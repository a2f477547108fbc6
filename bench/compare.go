package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges change B against parent A on one metric:
//
//   - unresolved: A's interquartile range, as a share of its median, is
//     wider than the metric's bound — unless every run of B is better
//     than every run of A;
//   - no change: B's median lies inside A's interquartile range;
//   - better or worse otherwise, "worse" being a regression once B's
//     median is worse than A's by more than the bound.
func verdict(a, b setMetric, lowerIsBetter bool, bound float64) string {
	better := func(x, y float64) bool { // x better than y
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	if a.Value != 0 && (a.P75-a.P25)/a.Value > bound {
		if len(a.Values) > 0 && len(b.Values) > 0 {
			bWorst, aBest := slices.Max(b.Values), slices.Min(a.Values)
			if !lowerIsBetter {
				bWorst, aBest = slices.Min(b.Values), slices.Max(a.Values)
			}
			if better(bWorst, aBest) {
				return "better"
			}
		}
		return "unresolved"
	}
	if b.Value >= a.P25 && b.Value <= a.P75 {
		return "no change"
	}
	if better(b.Value, a.Value) {
		return "better"
	}
	if a.Value != 0 && math.Abs(b.Value-a.Value)/math.Abs(a.Value) > bound {
		return "worse (regression)"
	}
	return "worse"
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintf(stderr, "usage: bench compare [-benchmark BENCHMARK.json] PARENT.json CHANGE.json\n")
		return 2
	}
	var decl benchmarkFile
	var a, b setFile
	for path, v := range map[string]any{*benchPath: &decl, fs.Arg(0): &a, fs.Arg(1): &b} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, v)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %s: %v\n", path, err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "A: commit %s, %s, GOMAXPROCS %d, nproc %d, %s\n", a.Host.Commit, a.Host.Go, a.Host.GOMAXPROCS, a.Host.NProc, a.Host.CPU)
	fmt.Fprintf(stdout, "B: commit %s, %s, GOMAXPROCS %d, nproc %d, %s\n", b.Host.Commit, b.Host.Go, b.Host.GOMAXPROCS, b.Host.NProc, b.Host.CPU)
	regressions := 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		switch {
		case wa == nil || wb == nil:
			fmt.Fprintf(stdout, "%s: missing from a set\n", wl.name)
			continue
		case wa.Skipped != "" || wb.Skipped != "":
			fmt.Fprintf(stdout, "%s: skipped (A: %q, B: %q)\n", wl.name, wa.Skipped, wb.Skipped)
			continue
		}
		fmt.Fprintf(stdout, "%s (wrong_cells %d→%d, error_rate %g→%g)\n", wl.name, wa.WrongCells, wb.WrongCells, wa.ErrorRate, wb.ErrorRate)
		for _, m := range decl.EndToEnd {
			ma, mb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			v := verdict(ma, mb, m.Better == "lower", m.Bound)
			if v == "worse (regression)" {
				regressions++
			}
			fmt.Fprintf(stdout, "  %-16s A %10.5g [%.5g, %.5g]  B %10.5g [%.5g, %.5g] %-4s bound %2.0f%%  %s\n",
				m.Name, ma.Value, ma.P25, ma.P75, mb.Value, mb.P25, mb.P75, m.Unit, 100*m.Bound, v)
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}
