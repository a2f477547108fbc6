package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/cacti"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/report"
	"github.com/example/cachedse/internal/trace"
)

// Extension subcommands: minimum-energy selection, exact trace reduction
// and a trace's locality profile. Line sizes, replacement policies and
// two-level hierarchies are axes of explore's design-space mode.

func cmdEnergy(args []string) error {
	fs := newFlagSet("energy", "energy [-k N] [-cap W] [-lines L1,L2,...] [-penalty PJ] TRACE")
	k := fs.Int("k", 0, "miss budget K (non-cold misses)")
	capWords := fs.Int("cap", 8192, "capacity limit in words")
	lines := fs.String("lines", "1,2,4", "comma list of line sizes (words)")
	penalty := fs.Float64("penalty", 2000, "off-chip miss penalty (pJ)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("energy needs exactly one trace file")
	}
	if *k < 0 {
		return fmt.Errorf("-k must be >= 0, got %d", *k)
	}
	if *penalty < 0 {
		return fmt.Errorf("-penalty must be >= 0, got %g", *penalty)
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	lineWords, err := parseInts(*lines)
	if err != nil {
		return err
	}
	params := cacti.DefaultParams()
	p, err := dse.EnergyAware(tr, *k, lineWords, *capWords, params, *penalty)
	if err != nil {
		return err
	}
	l := p.Levels[0]
	est, err := cacti.Model(cache.Config{Depth: l.Depth, Assoc: l.Assoc, LineWords: l.LineWords}, params)
	if err != nil {
		return err
	}
	fmt.Printf("minimum-energy configuration meeting K=%d within %d words:\n", *k, *capWords)
	fmt.Printf("  line size:    %d words\n", l.LineWords)
	fmt.Printf("  instance:     %v (%d words)\n", core.Instance{Depth: l.Depth, Assoc: l.Assoc}, l.SizeWords())
	fmt.Printf("  total misses: %d (cold + conflict)\n", p.Misses)
	fmt.Printf("  energy:       %.1f nJ over the trace\n", p.EnergyPJ/1000)
	fmt.Printf("  area:         %.0f um^2, access %.2f ns, read %.2f pJ\n",
		p.AreaUM2, est.AccessNS, est.ReadPJ)
	return nil
}

func cmdDedup(args []string) error {
	fs := newFlagSet("dedup", "dedup [-o OUT] TRACE")
	out := fs.String("o", "", "output trace file (text format); empty prints stats only")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("dedup needs exactly one trace file")
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	reduced, removed := trace.Dedup(tr)
	fmt.Printf("N: %d -> %d (removed %d immediate repeats, %.1f%%)\n",
		tr.Len(), reduced.Len(), removed, 100*float64(removed)/float64(max(1, tr.Len())))
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := trace.WriteText(f, reduced); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func cmdProfile(args []string) error {
	fs := newFlagSet("profile", "profile [-windows W1,W2,...] [-hist N] TRACE")
	windows := fs.String("windows", "16,64,256,1024", "working-set window lengths")
	histMax := fs.Int("hist", 16, "print reuse-distance histogram up to this distance")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("profile needs exactly one trace file")
	}
	if *histMax < 0 {
		return fmt.Errorf("-hist must be >= 0, got %d", *histMax)
	}
	ws, err := parseInts(*windows)
	if err != nil {
		return err
	}
	for _, w := range ws {
		if w < 1 {
			return fmt.Errorf("-windows: window %d must be >= 1", w)
		}
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	st := trace.ComputeStats(tr)
	fmt.Printf("N=%d N'=%d max misses=%d\n\n", st.N, st.NUnique, st.MaxMisses)

	tab := &report.Table{
		Title:   "Working set (tiled windows)",
		Headers: []string{"Window", "Avg distinct", "Max distinct"},
	}
	for _, p := range trace.WorkingSet(tr, ws) {
		tab.AddRow(p.Window, fmt.Sprintf("%.1f", p.AvgSize), p.MaxSize)
	}
	fmt.Println(tab.Render())

	// At depth 1 the per-set stack distances are the global reuse
	// distances: the fully-associative LRU profile.
	p, err := onepass.Run(tr, 1)
	if err != nil {
		return err
	}
	fmt.Printf("Reuse distances (cold refs: %d):\n", p.Cold)
	for d := 0; d < *histMax && d < len(p.Hist); d++ {
		fmt.Printf("  d=%-4d %8d\n", d, p.Hist[d])
	}
	if len(p.Hist) > *histMax {
		tail := p.Accesses - p.Cold // at capacity 0 every reuse misses
		if *histMax >= 1 {
			tail = p.Misses(*histMax)
		}
		fmt.Printf("  d>=%-3d %8d\n", *histMax, tail)
	}
	fmt.Printf("\nfully-associative LRU misses by capacity:\n")
	for c := 1; c <= st.NUnique*2; c *= 2 {
		m := p.Misses(c)
		fmt.Printf("  %5d lines: %d\n", c, m)
		if m == 0 {
			break
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
