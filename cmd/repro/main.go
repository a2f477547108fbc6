// Command repro regenerates every table and figure of the paper's
// evaluation from scratch: it executes the PowerStone kernels on the VM,
// captures instruction and data traces, runs the analytical exploration,
// and prints the paper-numbered tables. With -verify it additionally
// simulates every emitted cache instance to certify the miss-budget
// guarantee.
//
// Usage:
//
//	repro [-verify] [-example] [-tables 5,6,7-30,31,32] [-figure4]
//
// With no selection flags, everything is regenerated.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/experiments"
	"github.com/example/cachedse/internal/paperex"
	"github.com/example/cachedse/internal/report"
	"github.com/example/cachedse/internal/trace"
)

func main() {
	verify := flag.Bool("verify", false, "simulate every emitted instance to certify budgets")
	example := flag.Bool("example", false, "show the paper's running example (Tables 1-4, Figure 3)")
	tables := flag.String("tables", "", "comma/range list of paper table numbers to regenerate (default all)")
	figure4 := flag.Bool("figure4", false, "regenerate only Figure 4")
	extensions := flag.Bool("extensions", false, "also run the future-work extension experiments")
	compiled := flag.Bool("compiled", false, "run the evaluation on the minic-compiled suite instead of hand assembly")
	csvDir := flag.String("csv", "", "directory to also write each table as CSV")
	flag.Parse()

	want, err := parseSelection(*tables)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	all := *tables == "" && !*example && !*figure4 && !*extensions && !*compiled

	em := &emitter{csvDir: *csvDir}
	if em.csvDir != "" {
		if err := os.MkdirAll(em.csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *example || all {
		runningExample()
	}
	if *tables != "" || all || *figure4 || *compiled {
		load := experiments.Load
		if *compiled {
			load = experiments.LoadCompiled
		}
		suite, err := load()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		wantAll := all || (*compiled && *tables == "" && !*figure4)
		if err := evaluation(em, suite, want, wantAll, *figure4, *verify); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *extensions || all {
		if err := extensionExperiments(em); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// emitter prints tables and optionally mirrors them as CSV files.
type emitter struct {
	csvDir string
}

func (e *emitter) table(t *report.Table) error {
	fmt.Println(t.Render())
	if e.csvDir == "" {
		return nil
	}
	name := slug(t.Title) + ".csv"
	return os.WriteFile(filepath.Join(e.csvDir, name), []byte(t.CSV()), 0o644)
}

// slug reduces a table title to a file-name-safe stem.
func slug(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == ':' || r == ',' || r == '-':
			if n := b.Len(); n > 0 && b.String()[n-1] != '-' {
				b.WriteByte('-')
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

// extensionExperiments prints the future-work tables.
func extensionExperiments(em *emitter) error {
	suite, err := experiments.Load()
	if err != nil {
		return err
	}
	fmt.Println("=== Extension experiments (future work, Section 4) ===")
	// Geometries sized so the caches are contended: data footprints are
	// hundreds of words, instruction footprints under a hundred.
	for _, cfg := range []struct {
		stream       experiments.Stream
		depth, assoc int
	}{
		{experiments.Data, 32, 4},
		{experiments.Instruction, 8, 2},
	} {
		pol, err := suite.PolicyTable(cfg.stream, cfg.depth, cfg.assoc)
		if err != nil {
			return err
		}
		if err := em.table(pol); err != nil {
			return err
		}
	}
	en, err := suite.EnergyTable(experiments.Data, 8192, 2000)
	if err != nil {
		return err
	}
	if err := em.table(en); err != nil {
		return err
	}
	if err := em.table(suite.DedupTable(experiments.Data)); err != nil {
		return err
	}
	ct, err := suite.CompilerTable()
	if err != nil {
		return err
	}
	return em.table(ct)
}

// parseSelection parses "5,7-18,31" into a set of table numbers.
func parseSelection(s string) (map[int]bool, error) {
	out := map[int]bool{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("repro: bad range %q", part)
			}
			for i := a; i <= b; i++ {
				out[i] = true
			}
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("repro: bad table number %q", part)
		}
		out[n] = true
	}
	return out, nil
}

// runningExample prints the paper's Tables 1-4 and the Figure 3 BCAT,
// regenerated from the fixture trace through the real pipeline.
func runningExample() {
	fmt.Println("=== Running example (Section 2) ===")
	tr := paperex.Trace()
	s := trace.Strip(tr)

	t1 := &report.Table{Title: "Table 1: Original trace", Headers: []string{"A3 A2 A1 A0"}}
	for _, a := range paperex.Addrs {
		t1.AddRow(fmt.Sprintf("%04b", a))
	}
	fmt.Println(t1.Render())

	t2 := &report.Table{Title: "Table 2: Stripped trace", Headers: []string{"ID", "A3 A2 A1 A0"}}
	for id := 0; id < s.NUnique(); id++ {
		t2.AddRow(id+1, fmt.Sprintf("%04b", s.Addr(id)))
	}
	fmt.Println(t2.Render())

	t3 := &report.Table{Title: "Table 3: Zero/one sets", Headers: []string{"Bit", "Z", "O"}}
	for b, zo := range s.ZeroOneSets(0) {
		t3.AddRow(fmt.Sprintf("B%d", b), oneBased(zo.Zero.Elems()), oneBased(zo.One.Elems()))
	}
	fmt.Println(t3.Render())

	m := core.BuildMRCT(s)
	t4 := &report.Table{Title: "Table 4: MRCT data structure", Headers: []string{"ID", "Conflict Sets"}}
	for id := 0; id < s.NUnique(); id++ {
		var sets []string
		for _, cs := range m.ConflictSets(id) {
			ids := make([]int, len(cs))
			for i, v := range cs {
				ids[i] = int(v)
			}
			sets = append(sets, oneBased(ids))
		}
		t4.AddRow(id+1, "{"+strings.Join(sets, ", ")+"}")
	}
	fmt.Println(t4.Render())

	fmt.Println("Figure 3: BCAT level sets")
	bcat := core.BuildBCAT(s, 0)
	for l := 1; l <= bcat.Levels; l++ {
		var sets []string
		for _, set := range bcat.LevelSets(l) {
			sets = append(sets, oneBased(set.Elems()))
		}
		fmt.Printf("  depth %2d: %s\n", 1<<uint(l), strings.Join(sets, " "))
	}
	fmt.Println()
}

func oneBased(ids []int) string {
	parts := make([]string, len(ids))
	for i, v := range ids {
		parts[i] = strconv.Itoa(v + 1)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func evaluation(em *emitter, suite *experiments.Suite, want map[int]bool, all, fig4 bool, verify bool) error {
	selected := func(n int) bool { return all || want[n] }

	if suite.Variant != "" {
		fmt.Printf("=== Evaluation (Section 3) — %s suite ===\n", suite.Variant)
	} else {
		fmt.Println("=== Evaluation (Section 3) ===")
	}
	for _, stream := range []experiments.Stream{experiments.Data, experiments.Instruction} {
		statsNum := 5
		if stream == experiments.Instruction {
			statsNum = 6
		}
		if selected(statsNum) {
			tab, err := suite.StatsTable(stream)
			if err != nil {
				return err
			}
			if err := em.table(tab); err != nil {
				return err
			}
		}
	}
	for _, stream := range []experiments.Stream{experiments.Data, experiments.Instruction} {
		base := 7
		if stream == experiments.Instruction {
			base = 19
		}
		for i, ts := range suite.Sets {
			if !selected(base + i) {
				continue
			}
			or, err := suite.Optimal(ts.Name, stream)
			if err != nil {
				return err
			}
			if err := em.table(or.Table); err != nil {
				return err
			}
			if verify {
				if err := suite.VerifyOptimal(ts.Name, stream, or); err != nil {
					return err
				}
				fmt.Printf("  verified: all instances meet their budgets under simulation\n\n")
			}
		}
	}

	var timings []experiments.Timing
	needTimings := selected(31) || selected(32) || fig4 || all
	if needTimings {
		for _, stream := range []experiments.Stream{experiments.Data, experiments.Instruction} {
			num := 31
			if stream == experiments.Instruction {
				num = 32
			}
			tab, tms, err := suite.Runtime(stream)
			if err != nil {
				return err
			}
			timings = append(timings, tms...)
			if selected(num) {
				if err := em.table(tab); err != nil {
					return err
				}
			}
		}
	}
	if fig4 || all {
		fit, scatter, err := experiments.Figure4(timings)
		if err != nil {
			return err
		}
		fmt.Println("Figure 4: Execution efficiency (time vs N*N')")
		fmt.Printf("  least-squares fit: time = %.3g * (N*N') + %.3g, R^2 = %.4f over %d traces\n",
			fit.Slope, fit.Intercept, fit.R2, fit.N)
		fmt.Println(scatter)

		ctl, err := experiments.ControlledScaling(1)
		if err != nil {
			return err
		}
		cfit, cscatter, err := experiments.Figure4(ctl)
		if err != nil {
			return err
		}
		fmt.Println("Figure 4 (controlled): fixed workload shape, swept N and N'")
		fmt.Printf("  least-squares fit: time = %.3g * (N*N') + %.3g, R^2 = %.4f over %d traces\n",
			cfit.Slope, cfit.Intercept, cfit.R2, cfit.N)
		fmt.Println(cscatter)
	}
	return nil
}
