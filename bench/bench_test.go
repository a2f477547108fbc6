package main

import (
	"encoding/json"
	"os"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []metricDef) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, m := range decl.EndToEnd {
		endToEnd = append(endToEnd, metricDef{m.Name, m.Unit})
	}
	for _, m := range decl.PerLayer {
		perLayer = append(perLayer, metricDef{m.Name, m.Unit})
	}
	return endToEnd, perLayer
}

func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	e2e, layers := declared(t)
	for _, c := range []struct {
		kind      string
		want, got []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layers, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: the benchmark reports %d metrics, BENCHMARK.json declares %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: the benchmark reports %v, BENCHMARK.json declares %v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at smoke size — one set-up, one
// pass of each kind over the first two inputs (one HTTP round) — and
// checks the answers and the output line the benchmark prints.
func TestWorkloadsSmoke(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := config{workload: w.name, seed: 1, seconds: 1, trace: true, workdir: t.TempDir(), smoke: true}
			rec, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.WrongCells != 0 || rec.ErrorRate != 0 {
				t.Errorf("correct %v, wrong_cells %d, error_rate %g over %d answers",
					rec.Correct, rec.WrongCells, rec.ErrorRate, rec.Attempted)
			}
			for _, c := range []struct {
				traced bool
				defs   []metricDef
			}{{false, e2e}, {true, layers}} {
				out := rec.result(c.traced)
				if len(out.Metrics) != len(c.defs) {
					t.Errorf("trace %v: %d metrics printed, %d declared", c.traced, len(out.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					m, ok := out.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("%s not printed", d.name)
					case m.Unit != d.unit:
						t.Errorf("%s printed in %q, declared in %q", d.name, m.Unit, d.unit)
					case !c.traced && m.Value <= 0:
						t.Errorf("end-to-end %s = %g, want > 0", d.name, m.Value)
					}
				}
			}
			// The HTTP job span also holds work no server span covers, such
			// as persisting a result, so only the library workloads must
			// account for their whole pass.
			if w.name != "http-explore" {
				if cov := rec.Metrics["bench.layer_coverage"].Value; cov < 0.9 || cov > 1.1 {
					t.Errorf("layer coverage %.3f, want 0.9–1.1", cov)
				}
			}
		})
	}
}
