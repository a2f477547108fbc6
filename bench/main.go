// Command bench is the cachedse benchmark: five workloads, from the
// PowerStone engine path to the HTTP service, each run in its own
// process and checked against checked-in references. See README.md.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench set [-seeds 1,2,3] [-seconds s] [-out set.json]
//	bench compare A.json B.json
//	bench -regen [-refs testdata]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one workload run.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string // stores, spans and temporary files go here
	// smoke shrinks the run to one pass of each kind over the first two
	// inputs (one HTTP round), one set-up, for the package test.
	smoke bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of everything random in the workload")
	fs.IntVar(&cfg.seconds, "seconds", 10, "run length: the pass count is this over the workload's nominal pass time")
	traceFlag := fs.Int("trace", 0, "1 adds traced passes and reports the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for stores, spans and temporary files")
	recordPath := fs.String("record", "", "also write the full record as JSON to this file")
	doRegen := fs.Bool("regen", false, "recompute the reference files and exit")
	refsDir := fs.String("refs", filepath.Join("bench", "testdata"), "reference directory -regen writes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if fs.NArg() > 0 {
		switch fs.Arg(0) {
		case "set":
			return runSet(fs.Args()[1:], cfg.workdir, stdout, stderr)
		case "compare":
			return runCompare(fs.Args()[1:], stdout, stderr)
		}
		fmt.Fprintf(stderr, "bench: unknown command %q\n", fs.Arg(0))
		return 2
	}
	if *doRegen {
		if err := regen(*refsDir); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if cfg.seconds < 1 {
		fmt.Fprintf(stderr, "bench: --seconds must be at least 1\n")
		return 2
	}
	w := findWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", cfg.workload, workloadNames())
		return 2
	}
	rec, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if *recordPath != "" {
		if err := writeJSON(*recordPath, rec); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result(cfg.trace))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d wrong cells, %d of %d answers failed\n",
			w.name, rec.WrongCells, rec.Failed, rec.Attempted)
		return 1
	}
	return 0
}

// workload is one set of inputs and the pass that runs over them.
type workload struct {
	name string
	// passSeconds is the nominal time of one pass on a 2-CPU x86-64 host.
	// A run does ⌈seconds/passSeconds⌉ passes, a count fixed by --seconds
	// alone, so two commits measured with the same --seconds do the same
	// work.
	passSeconds float64
	// traceModes are the pass kinds a traced run cycles through.
	traceModes []passMode
	setup      func(config) (instance, error)
}

var workloads = []*workload{
	{"suite-exact", 0.45, []passMode{plain, recorded, traced}, setupExact(powerstoneStreams, suiteRefs, false)},
	{"compiled-stream", 5.0, []passMode{plain, traced}, setupExact(compiledStreams, compiledRefs, true)},
	{"zipf-sampled", 1.2, []passMode{plain, traced}, setupZipf},
	{"space-default", 1.7, []passMode{plain, traced}, setupSpace},
	{"http-explore", 1.25, []passMode{plain, traced}, setupHTTP},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// instance is a workload after set-up.
type instance interface {
	pass(ctx context.Context, p passCtx) (passResult, error)
	close() error
}

type passMode int

const (
	plain    passMode = iota // the calls a user makes; end-to-end metrics
	traced                   // the same work through each layer, in spans
	recorded                 // plain under obs.WithRecorder: the program's own tracing on
	warmup                   // plain, untimed, measuring the heap each answer needs
)

func (m passMode) String() string {
	return [...]string{"plain", "traced", "recorded", "warmup"}[m]
}

type passCtx struct {
	rng  *rand.Rand // order, budgets and sample seeds of this pass
	mode passMode
	sp   *spans     // nil unless mode is traced
	heap *heapMeter // non-nil in the warm-up pass only
	host *sampler   // probes the host between answers; nil in the warm-up pass
}

// passResult is what one pass measured and checked.
type passResult struct {
	// elapsed is the time the pass is judged by: its answers, or a traced
	// space pass's replay. Checking answers is excluded.
	elapsed time.Duration
	// answers is the latency of each answer, ms, keyed by the answer's
	// place in a pass (its input; for HTTP also its class and repeat), so
	// one answer can be followed across passes.
	answers map[string]float64
	// classes groups HTTP request latencies by request class, ms.
	classes map[string][]float64
	// errored and wrong count the answers that failed or disagreed with
	// their reference; wrongCells counts the cells they got wrong.
	errored, wrong, wrongCells int
	gauges                     map[string]float64
}

// check folds one answer's wrong-cell count into the pass.
func (r *passResult) check(cells int) {
	if cells > 0 {
		r.wrong++
		r.wrongCells += cells
	}
}

// passCount is the number of passes a run does.
func passCount(w *workload, cfg config) int {
	if cfg.smoke {
		return 1
	}
	return max(1, int(math.Ceil(float64(cfg.seconds)/w.passSeconds)))
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

func runWorkload(w *workload, cfg config) (*record, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("creating workdir: %w", err)
	}
	pr, err := newProbe()
	if err != nil {
		return nil, err
	}
	defer pr.close()
	// The probe runs before every set-up and pass, and between the answers
	// of a pass; its median over the run is the host's speed while the run
	// was measured.
	host := &sampler{p: pr}

	var inst instance
	var setups []float64
	for i := 0; i < setupRuns && (i == 0 || !cfg.smoke); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
			debug.FreeOSMemory()
		}
		host.run()
		t0 := time.Now()
		var err error
		if inst, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	modes := []passMode{plain}
	if cfg.trace {
		modes = w.traceModes
	}
	// A traced run cycles through its pass kinds; the kinds of one cycle
	// share a seed, so they do the same work in the same order.
	cycles := max(1, passCount(w, cfg)/len(modes))
	var sp *spans
	if cfg.trace {
		sp = newSpans()
	}
	ctx := context.Background()
	// An untimed warm-up pass fills the engine's pools and the servers'
	// caches before timing starts, and measures the heap each answer needs.
	// Its seed is fixed: the order of answers and the sample seed change
	// what pooled scratch a later answer reuses and how many references
	// sampling keeps, so a seeded warm-up would measure a different heap
	// on every run.
	heap := &heapMeter{}
	host.run()
	warm, err := inst.pass(ctx, passCtx{rng: rand.New(rand.NewSource(0)), mode: warmup, heap: heap})
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	runtime.GC()
	byMode := map[passMode][]passResult{warmup: {warm}}
	for c := 0; c < cycles; c++ {
		for j := range modes {
			// Odd cycles run their kinds in reverse, so no kind always
			// runs right after another and inherits its warm caches.
			mode := modes[j]
			if c%2 == 1 {
				mode = modes[len(modes)-1-j]
			}
			i := c*len(modes) + j
			p := passCtx{rng: rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(c))), mode: mode, host: host}
			if mode == traced {
				p.sp = sp
				sp.setPass(i)
			}
			host.run()
			res, err := inst.pass(ctx, p)
			if err != nil {
				return nil, fmt.Errorf("%s pass %d: %w", mode, c, err)
			}
			if mode == traced {
				res.gauges = addSpanMetrics(res, sp, i)
			}
			byMode[mode] = append(byMode[mode], res)
			runtime.GC() // start every pass from the same heap state
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if sp != nil {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
		if err := sp.write(path); err != nil {
			return nil, err
		}
	}
	return newRecord(w, cfg, setups, host.times, rss, heap.peakMB(), byMode), nil
}

// addSpanMetrics folds a traced pass's span totals into its gauges: one
// "<span>_s" metric per span name, and the layer coverage.
func addSpanMetrics(res passResult, sp *spans, pass int) map[string]float64 {
	g := res.gauges
	if g == nil {
		g = map[string]float64{}
	}
	byName, layers := sp.passTotals(pass)
	for name, sec := range byName {
		g[name+"_s"] = sec
	}
	if _, ok := g["bench.layer_coverage"]; !ok && res.elapsed > 0 {
		g["bench.layer_coverage"] = layers / res.elapsed.Seconds()
	}
	return g
}
