// Package experiments reproduces the paper's evaluation (§3): it runs the
// 12 PowerStone kernels on the VM to obtain instruction and data traces,
// then regenerates every table and figure — trace statistics (Tables 5/6),
// optimal cache instances per benchmark and budget (Tables 7–30), algorithm
// run times (Tables 31/32), and the run-time-vs-N·N' scaling study
// (Figure 4). cmd/repro and the root benchmark suite both drive this
// package.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/minicbench"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/report"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// Stream selects the instruction or data reference stream of a benchmark.
type Stream uint8

// Streams.
const (
	Data Stream = iota
	Instruction
)

// String names the stream the way the paper's table captions do.
func (s Stream) String() string {
	if s == Instruction {
		return "instruction"
	}
	return "data"
}

// KPercents are the miss budgets of the evaluation: K is set to these
// percentages of each trace's maximum miss count.
var KPercents = []int{5, 10, 15, 20}

// TraceSet is one benchmark's pair of reference streams.
type TraceSet struct {
	Name  string
	Instr *trace.Trace
	Data  *trace.Trace
}

// Stream returns the requested stream.
func (ts *TraceSet) Stream(s Stream) *trace.Trace {
	if s == Instruction {
		return ts.Instr
	}
	return ts.Data
}

// Suite holds the traced benchmark executions.
type Suite struct {
	Sets []TraceSet
	// Variant is empty for the paper's hand-assembly suite and names any
	// alternative dataset (e.g. "compiled") whose tables carry no paper
	// numbering.
	Variant string
}

// Get returns the trace set of the named benchmark, or nil.
func (s *Suite) Get(name string) *TraceSet {
	for i := range s.Sets {
		if s.Sets[i].Name == name {
			return &s.Sets[i]
		}
	}
	return nil
}

var (
	loadOnce sync.Once
	loaded   *Suite
	loadErr  error

	loadCompiledOnce sync.Once
	loadedCompiled   *Suite
	loadCompiledErr  error
)

// Load runs the full PowerStone suite once per process and caches the
// traces; executions are deterministic, so the cache is sound.
func Load() (*Suite, error) {
	loadOnce.Do(func() {
		s := &Suite{}
		for _, name := range powerstone.Names() {
			res, err := powerstone.Get(name).Run()
			if err != nil {
				loadErr = err
				return
			}
			s.Sets = append(s.Sets, TraceSet{Name: name, Instr: res.Instr, Data: res.Data})
		}
		loaded = s
	})
	return loaded, loadErr
}

// LoadCompiled builds the second dataset: the same 12 benchmarks in their
// minic-compiled form (internal/minicbench), whose traces carry the
// frame/call/stack shape of compiled code at roughly the paper's scale.
// All Suite machinery — statistics, optimal tables, run times, Figure 4 —
// applies unchanged.
func LoadCompiled() (*Suite, error) {
	loadCompiledOnce.Do(func() {
		s := &Suite{Variant: "compiled"}
		for _, name := range powerstone.Names() {
			k := minicbench.Get(name)
			if k == nil {
				loadCompiledErr = fmt.Errorf("experiments: no compiled kernel %q", name)
				return
			}
			res, err := k.Run()
			if err != nil {
				loadCompiledErr = err
				return
			}
			s.Sets = append(s.Sets, TraceSet{Name: name, Instr: res.Instr, Data: res.Data})
		}
		loadedCompiled = s
	})
	return loadedCompiled, loadCompiledErr
}

// StatsTable regenerates Table 5 (data) or Table 6 (instruction): per
// benchmark, the trace size N, unique references N', and the maximum number
// of non-cold misses (depth-1 direct-mapped). The max-miss column is
// computed analytically and cross-checked against the cache simulator.
func (s *Suite) StatsTable(stream Stream) (*report.Table, error) {
	num := 5
	if stream == Instruction {
		num = 6
	}
	title := fmt.Sprintf("Table %d: %s trace statistics", num, stream)
	if s.Variant != "" {
		title = fmt.Sprintf("%s trace statistics (%s suite)", stream, s.Variant)
	}
	t := &report.Table{
		Title:   title,
		Headers: []string{"Benchmark", "Size N", "Unique References N'", "Max. Misses"},
	}
	for _, ts := range s.Sets {
		tr := ts.Stream(stream)
		st := trace.ComputeStats(tr)
		res, err := cache.Simulate(cache.Config{Depth: 1, Assoc: 1}, tr)
		if err != nil {
			return nil, err
		}
		if res.Misses != st.MaxMisses {
			return nil, fmt.Errorf("experiments: %s/%s: analytic max misses %d != simulated %d",
				ts.Name, stream, st.MaxMisses, res.Misses)
		}
		t.AddRow(ts.Name, st.N, st.NUnique, st.MaxMisses)
	}
	return t, nil
}

// Budgets returns the absolute K values for a trace: KPercents of its
// maximum miss count.
func Budgets(tr *trace.Trace) []int {
	max := trace.ComputeStats(tr).MaxMisses
	out := make([]int, len(KPercents))
	for i, p := range KPercents {
		out[i] = max * p / 100
	}
	return out
}

// OptimalResult is one regenerated Tables 7–30 grid plus the exploration it
// came from, so callers can verify instances by simulation.
type OptimalResult struct {
	Table   *report.Table
	Result  *core.Result
	Budgets []int
}

// tableNumber maps (benchmark, stream) to the paper's table numbering:
// Tables 7–18 are the data caches, 19–30 the instruction caches, both in
// the suite's alphabetical benchmark order.
func (s *Suite) tableNumber(name string, stream Stream) int {
	for i := range s.Sets {
		if s.Sets[i].Name == name {
			if stream == Instruction {
				return 19 + i
			}
			return 7 + i
		}
	}
	return 0
}

// Optimal regenerates the optimal cache instance table of one benchmark and
// stream: one row per power-of-two depth, one associativity column per
// K percentage.
func (s *Suite) Optimal(name string, stream Stream) (*OptimalResult, error) {
	ts := s.Get(name)
	if ts == nil {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	tr := ts.Stream(stream)
	budgets := Budgets(tr)
	r, err := core.Explore(context.Background(), tr, core.Options{})
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Table %d: Optimal %s cache instances for %s",
		s.tableNumber(name, stream), stream, name)
	if s.Variant != "" {
		title = fmt.Sprintf("Optimal %s cache instances for %s (%s suite)", stream, name, s.Variant)
	}
	t := &report.Table{
		Title:   title,
		Headers: []string{"Depth D"},
	}
	for _, p := range KPercents {
		t.Headers = append(t.Headers, fmt.Sprintf("A @ K=%d%%", p))
	}
	for _, l := range r.Levels {
		row := []interface{}{l.Depth}
		for _, k := range budgets {
			row = append(row, l.MinAssoc(k))
		}
		t.AddRow(row...)
	}
	return &OptimalResult{Table: t, Result: r, Budgets: budgets}, nil
}

// VerifyOptimal simulates every (depth, minimal associativity) instance of
// an OptimalResult at every budget and reports the first violation of
// either the budget guarantee or the exactness of the analytical count.
func (s *Suite) VerifyOptimal(name string, stream Stream, or *OptimalResult) error {
	tr := s.Get(name).Stream(stream)
	for _, l := range or.Result.Levels {
		for _, k := range or.Budgets {
			a := l.MinAssoc(k)
			res, err := cache.Simulate(cache.Config{Depth: l.Depth, Assoc: a}, tr)
			if err != nil {
				return err
			}
			if res.Misses > k {
				return fmt.Errorf("experiments: %s/%s D=%d A=%d: %d misses > budget %d",
					name, stream, l.Depth, a, res.Misses, k)
			}
			if res.Misses != l.Misses(a) {
				return fmt.Errorf("experiments: %s/%s D=%d A=%d: simulated %d != analytical %d",
					name, stream, l.Depth, a, res.Misses, l.Misses(a))
			}
		}
	}
	return nil
}

// Timing is one run-time measurement for Tables 31/32 and Figure 4.
type Timing struct {
	Name    string
	N       int
	NUnique int
	Seconds float64
}

// Runtime regenerates Table 31 (data) or 32 (instruction): wall-clock time
// of the full analytical pipeline (strip + MRCT + postlude) per benchmark.
func (s *Suite) Runtime(stream Stream) (*report.Table, []Timing, error) {
	num := 31
	if stream == Instruction {
		num = 32
	}
	title := fmt.Sprintf("Table %d: Algorithm run time: %s traces", num, stream)
	if s.Variant != "" {
		title = fmt.Sprintf("Algorithm run time: %s traces (%s suite)", stream, s.Variant)
	}
	t := &report.Table{
		Title:   title,
		Headers: []string{"Benchmark", "Time (sec)", "N", "N'"},
	}
	var timings []Timing
	for _, ts := range s.Sets {
		tr := ts.Stream(stream)
		start := time.Now()
		if _, err := core.Explore(context.Background(), tr, core.Options{}); err != nil {
			return nil, nil, err
		}
		el := time.Since(start).Seconds()
		st := trace.ComputeStats(tr)
		timings = append(timings, Timing{Name: ts.Name, N: st.N, NUnique: st.NUnique, Seconds: el})
		t.AddRow(ts.Name, fmt.Sprintf("%.5f", el), st.N, st.NUnique)
	}
	return t, timings, nil
}

// ControlledScaling is the complementary Figure 4 study on homogeneous
// synthetic traces: it sweeps a grid of (N, N') targets with a fixed
// workload shape and times the exploration of each, isolating the
// linear-in-N·N' claim from the workload-shape variance the PowerStone
// kernels add. Each point is the best of three runs to damp scheduler
// noise.
func ControlledScaling(seed int64) ([]Timing, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []Timing
	for _, n := range []int{2000, 4000, 8000, 16000} {
		for _, unique := range []int{100, 200, 400} {
			tr, err := tracegen.Sized(rng, n, unique)
			if err != nil {
				return nil, err
			}
			best := 0.0
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				if _, err := core.Explore(context.Background(), tr, core.Options{}); err != nil {
					return nil, err
				}
				el := time.Since(start).Seconds()
				if rep == 0 || el < best {
					best = el
				}
			}
			out = append(out, Timing{
				Name:    fmt.Sprintf("sized-%d-%d", n, unique),
				N:       n,
				NUnique: unique,
				Seconds: best,
			})
		}
	}
	return out, nil
}

// Figure4 fits run time against N·N' over the supplied timings and renders
// the scatter; the paper's claim is that the relationship is linear on
// average.
func Figure4(timings []Timing) (report.Fit, string, error) {
	xs := make([]float64, len(timings))
	ys := make([]float64, len(timings))
	for i, tm := range timings {
		xs[i] = float64(tm.N) * float64(tm.NUnique)
		ys[i] = tm.Seconds
	}
	fit, err := report.LinearFit(xs, ys)
	if err != nil {
		return report.Fit{}, "", err
	}
	return fit, report.AsciiScatter(xs, ys, fit, 64, 16), nil
}
