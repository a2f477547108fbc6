package experiments

import (
	"context"
	"fmt"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/cacti"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/minicbench"
	"github.com/example/cachedse/internal/report"
	"github.com/example/cachedse/internal/trace"
)

// Extension experiments: paper-style tables for the future-work axes (§4)
// built on the same traced suite — replacement policies, energy-optimal
// design points, trace reduction and compiled code shape. These have no
// counterpart table numbers in the paper; cmd/repro prints them under
// -extensions.

// PolicyTable compares replacement policies at a fixed geometry across the
// suite's chosen stream.
func (s *Suite) PolicyTable(stream Stream, depth, assoc int) (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Extension: replacement policies, %s traces, D=%d A=%d",
			stream, depth, assoc),
		Headers: []string{"Benchmark", "LRU", "FIFO", "PLRU", "Random"},
	}
	for _, ts := range s.Sets {
		tr := ts.Stream(stream)
		row := []interface{}{ts.Name}
		for _, repl := range []cache.Replacement{cache.LRU, cache.FIFO, cache.PLRU, cache.Random} {
			res, err := cache.Simulate(cache.Config{Depth: depth, Assoc: assoc, Repl: repl}, tr)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Misses)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// EnergyTable reports the minimum-energy configuration per benchmark at a
// 10%-of-max miss budget.
func (s *Suite) EnergyTable(stream Stream, capWords int, missPenaltyPJ float64) (*report.Table, error) {
	t := &report.Table{
		Title: fmt.Sprintf("Extension: minimum-energy instances, %s traces (cap %d words, penalty %.0f pJ)",
			stream, capWords, missPenaltyPJ),
		Headers: []string{"Benchmark", "K", "Line", "Depth", "Assoc", "Total misses", "Energy (nJ)"},
	}
	params := cacti.DefaultParams()
	for _, ts := range s.Sets {
		tr := ts.Stream(stream)
		k := trace.ComputeStats(tr).MaxMisses / 10
		p, err := dse.EnergyAware(tr, k, []int{1, 2, 4}, capWords, params, missPenaltyPJ)
		if err != nil {
			return nil, err
		}
		l := p.Levels[0]
		t.AddRow(ts.Name, k, l.LineWords, l.Depth, l.Assoc, p.Misses, fmt.Sprintf("%.1f", p.EnergyPJ/1000))
	}
	return t, nil
}

// CompilerTable contrasts hand-assembly and minic-compiled variants of the
// kernels that exist in both forms: same algorithm and inputs
// (bit-identical checksums, enforced by minicbench's tests), different code
// shape — the compiled-benchmark methodology of the paper's §3.
func (s *Suite) CompilerTable() (*report.Table, error) {
	t := &report.Table{
		Title: "Extension: hand assembly vs minic-compiled kernels (instruction streams, K=10%)",
		Headers: []string{"Benchmark", "Variant", "N", "N'", "Max misses",
			"Smallest instance @10%"},
	}
	// Three representative kernels (streaming, table-driven, recursive);
	// the full compiled dataset is available via LoadCompiled and
	// `repro -compiled`.
	for _, name := range []string{"fir", "crc", "ucbqsort"} {
		k := minicbench.Get(name)
		cres, err := k.Run()
		if err != nil {
			return nil, err
		}
		hand := s.Get(k.Name)
		if hand == nil {
			return nil, fmt.Errorf("experiments: no hand variant for %q", k.Name)
		}
		for _, v := range []struct {
			variant string
			tr      *trace.Trace
		}{
			{"hand", hand.Instr},
			{"compiled", cres.Instr},
		} {
			st := trace.ComputeStats(v.tr)
			r, err := core.Explore(context.Background(), v.tr, core.Options{})
			if err != nil {
				return nil, err
			}
			p := r.ParetoSet(st.MaxMisses / 10)
			best := p[len(p)-1]
			t.AddRow(k.Name, v.variant, st.N, st.NUnique, st.MaxMisses,
				fmt.Sprintf("%v = %d words", best, best.SizeWords()))
		}
	}
	return t, nil
}

// DedupTable reports the exact trace reduction's effect per benchmark.
func (s *Suite) DedupTable(stream Stream) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Extension: immediate-repeat trace reduction, %s traces", stream),
		Headers: []string{"Benchmark", "N", "N reduced", "Removed %"},
	}
	for _, ts := range s.Sets {
		tr := ts.Stream(stream)
		reduced, removed := trace.Dedup(tr)
		pct := 0.0
		if tr.Len() > 0 {
			pct = 100 * float64(removed) / float64(tr.Len())
		}
		t.AddRow(ts.Name, tr.Len(), reduced.Len(), fmt.Sprintf("%.1f", pct))
	}
	return t
}
