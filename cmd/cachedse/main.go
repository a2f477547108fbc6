// Command cachedse is the analytical cache design-space explorer: the
// user-facing tool of the repository. It operates on trace files in the
// Dinero-style text format (.din), the compact binary format (.ctr) or
// the checksummed block format (.ctz), all auto-detected by magic.
//
// Subcommands:
//
//	cachedse stats    TRACE            trace statistics (N, N', max misses)
//	cachedse strip    TRACE            stripped trace (unique refs + ids)
//	cachedse explore  [-k N | -kpct P] [-maxdepth D] [-workers W] [-verify]
//	                  [-policy P[,P...]] [-levels 1|2] [-max-assoc A]
//	                  [-tech T[,T...]] [-front table|csv]
//	                  [-sample R]
//	                  [-cpuprofile F] [-memprofile F] [-store DIR]
//	                  [-trace-json F] [-log-format text|json] TRACE
//	                                   optimal (D, A) instances for budget K;
//	                                   -sample R is accepted and answered
//	                                   exactly; any -policy other than lru
//	                                   alone, -levels 2 or a -tech axis
//	                                   switch to design-space mode and emit
//	                                   the Pareto front over (misses,
//	                                   energy, area)
//	cachedse simulate -depth D -assoc A [-line W] [-repl P] [-store DIR] TRACE
//	                                   simulate one configuration
//	cachedse verify   -k N TRACE D:A [D:A ...]
//	                                   certify instances against budget K
//	cachedse pack     [-o OUT] [-block N] [-store DIR] TRACE
//	                                   convert a trace to the ctz1 format
//	cachedse unpack   [-o OUT] [-binary] TRACE
//	                                   convert a trace back to text/binary
//	cachedse serve    [-addr HOST:PORT] [-store DIR] [-profile-dir DIR] [flags]
//	                                   run the exploration HTTP service
//	cachedse trace    [-addr URL] [-cluster] [-chrome F] JOB_ID
//	                                   render a job's (cluster-wide) span tree
//	cachedse energy   [-k N] [-cap W] [-lines L,...] [-penalty PJ] TRACE
//	                                   minimum-energy configuration meeting K
//	cachedse dedup    [-o OUT] TRACE   drop immediate repeats (exact reduction)
//	cachedse profile  [-windows W,...] [-hist N] TRACE
//	                                   working sets and reuse distances
//
// cachedse help lists the same verbs from the table main dispatches on.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// verbs is the CLI's one verb table: main dispatches on it and usage
// lists it.
var verbs = map[string]func([]string) error{
	"stats":    cmdStats,
	"strip":    cmdStrip,
	"explore":  cmdExplore,
	"simulate": cmdSimulate,
	"verify":   cmdVerify,
	"serve":    cmdServe,
	"trace":    cmdTrace,
	"pack":     cmdPack,
	"unpack":   cmdUnpack,
	"energy":   cmdEnergy,
	"dedup":    cmdDedup,
	"profile":  cmdProfile,
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "help", "-h", "--help":
		usage()
		return
	}
	cmd, ok := verbs[os.Args[1]]
	if !ok {
		fmt.Fprintf(os.Stderr, "cachedse: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	err := cmd(os.Args[2:])
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// -h on a subcommand already printed that subcommand's usage.
	case errors.Is(err, errUsage):
		// The FlagSet already reported the problem with the subcommand's
		// own usage; exit with the conventional usage-error code.
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "cachedse:", err)
		os.Exit(1)
	}
}

func usage() {
	names := make([]string, 0, len(verbs))
	for name := range verbs {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Fprintf(os.Stderr, `usage: cachedse <subcommand> [flags] TRACE

subcommands: %s

Run cachedse <subcommand> -h for its flags.
`, strings.Join(names, "  "))
}

// errUsage signals a flag-parse failure that the subcommand's FlagSet has
// already reported (with its own usage, not the generic one).
var errUsage = errors.New("usage error")

// newFlagSet builds a subcommand FlagSet that prints the subcommand's own
// synopsis and flag defaults on bad flags or -h.
func newFlagSet(name, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cachedse %s\n", synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// parseFlags parses args, normalising flag errors: -h propagates
// flag.ErrHelp (exit 0), anything else becomes errUsage (exit 2).
func parseFlags(fs *flag.FlagSet, args []string) error {
	switch err := fs.Parse(args); {
	case err == nil:
		return nil
	case errors.Is(err, flag.ErrHelp):
		return flag.ErrHelp
	default:
		return errUsage
	}
}

// newCLILogger builds the structured logger subcommands share, rejecting
// unknown formats so a typo fails fast instead of silently logging text.
func newCLILogger(format string) (*slog.Logger, error) {
	switch format {
	case "text", "json":
		return obs.NewLogger(os.Stderr, format, slog.LevelInfo), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q, want text or json", format)
	}
}

// writeTraceJSON dumps a recorder's span tree to path in the same nested
// shape the server's job-trace endpoint serves.
func writeTraceJSON(path, traceName string, rec *obs.Recorder) error {
	tr := rec.Export()
	out := map[string]any{
		"trace":   traceName,
		"spans":   tr.Tree(),
		"dropped": tr.Dropped,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadTrace reads a trace file, auto-detecting binary by magic.
func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Decode(f, trace.Limits{})
}

func cmdStats(args []string) error {
	fs := newFlagSet("stats", "stats TRACE")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("stats needs exactly one trace file")
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	st := trace.ComputeStats(tr)
	fmt.Printf("size N:             %d\n", st.N)
	fmt.Printf("unique refs N':     %d\n", st.NUnique)
	fmt.Printf("max misses:         %d\n", st.MaxMisses)
	fmt.Printf("address bits:       %d\n", tr.AddrBits())
	return nil
}

func cmdStrip(args []string) error {
	fs := newFlagSet("strip", "strip [-n N] TRACE")
	limit := fs.Int("n", 0, "print at most n unique references (0 = all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("strip needs exactly one trace file")
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	s, err := trace.StripLines(tr, 1, nil)
	if err != nil {
		return err
	}
	fmt.Printf("# N=%d N'=%d\n", s.N(), s.NUnique())
	for id := 0; id < s.NUnique(); id++ {
		if *limit > 0 && id >= *limit {
			fmt.Printf("# ... %d more\n", s.NUnique()-id)
			break
		}
		fmt.Printf("%d %x\n", id+1, s.Addr(id))
	}
	return nil
}

func cmdExplore(args []string) error {
	fs := newFlagSet("explore", "explore [-k N | -kpct P] [-maxdepth D] [-workers W] [-pareto] [-verify] [-policy P[,P...]] [-levels 1|2] [-max-assoc A] [-tech T[,T...]] [-front table|csv] [-sample R] [-cpuprofile F] [-memprofile F] [-store DIR] [-trace-json F] [-log-format text|json] TRACE")
	k := fs.Int("k", -1, "miss budget K (absolute)")
	kpct := fs.Float64("kpct", -1, "miss budget as percent of max misses")
	maxDepth := fs.Int("maxdepth", 0, "largest cache depth to explore (power of two)")
	workers := fs.Int("workers", 1, "postlude worker count (0 = GOMAXPROCS, 1 = sequential)")
	verify := fs.Bool("verify", false, "simulate each emitted instance")
	sample := fs.Float64("sample", 0, "spatial sampling rate in (0, 1]; a trace file is still explored exactly (0 = no sample summary)")
	pareto := fs.Bool("pareto", false, "print only the size-Pareto frontier")
	policy := fs.String("policy", "lru", "replacement policies to explore, comma-separated: lru, fifo, random, plru (anything but lru alone switches to design-space mode)")
	levels := fs.Int("levels", 1, "hierarchy levels: 1 = unified, 2 = split L1I/L1D + shared L2 (design-space mode)")
	maxAssoc := fs.Int("max-assoc", 0, "largest associativity to explore (0 = default; design-space mode)")
	tech := fs.String("tech", "", "storage technologies to cost, comma-separated: sram, nvm-hybrid (design-space mode)")
	frontFmt := fs.String("front", "table", "result rendering: table or csv")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the exploration to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the exploration to this file")
	storeDir := fs.String("store", "", "read TRACE from this tracestore directory instead of the filesystem")
	traceJSON := fs.String("trace-json", "", "record the exploration's span tree and write it as JSON to this file")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("explore needs exactly one trace file")
	}
	logger, err := newCLILogger(*logFormat)
	if err != nil {
		return err
	}
	var pols []core.Policy
	for _, name := range strings.Split(*policy, ",") {
		p, perr := core.ParsePolicy(name)
		if perr != nil {
			return perr
		}
		pols = append(pols, p)
	}
	var techs []core.Technology
	if *tech != "" {
		for _, name := range strings.Split(*tech, ",") {
			tc, terr := core.ParseTechnology(name)
			if terr != nil {
				return terr
			}
			techs = append(techs, tc)
		}
	}
	if *frontFmt != "table" && *frontFmt != "csv" {
		return fmt.Errorf("unknown -front %q, want table or csv", *frontFmt)
	}
	if *levels != 1 && *levels != 2 {
		return fmt.Errorf("-levels must be 1 (unified) or 2 (split L1I/L1D + shared L2)")
	}
	// Any policy but LRU alone, a second hierarchy level or a technology
	// axis turns the run into a design-space exploration: the answer is
	// the Pareto front over (misses, energy, area) rather than a budget-K
	// instance list. The analytical engine profiles LRU only; every other
	// policy is evaluated by the design-space evaluator.
	spaceMode := *levels == 2 || len(pols) > 1 || pols[0] != core.PolicyLRU || len(techs) > 0
	tr, err := resolveTrace(*storeDir, fs.Arg(0))
	if err != nil {
		return err
	}
	st := trace.ComputeStats(tr)
	budget := 0
	if spaceMode {
		if *verify {
			return fmt.Errorf("-verify applies to budget exploration; certify a design point with the simulate command instead")
		}
		if *sample != 0 {
			return fmt.Errorf("a design-space exploration is exact end to end; drop -sample")
		}
	} else {
		budget = *k
		if budget < 0 && *kpct >= 0 {
			budget = int(float64(st.MaxMisses) * *kpct / 100)
		}
		if budget < 0 {
			return fmt.Errorf("explore needs -k or -kpct")
		}
		if *sample != 0 && *verify {
			return fmt.Errorf("-verify needs exact miss counts; drop -sample or verify the chosen instances with the verify command")
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	// With -trace-json the run records its span tree: a root "explore"
	// span whose children are the engine phases (strip, mrct, postlude —
	// the same phases a server job's trace shows).
	ctx := context.Background()
	var rec *obs.Recorder
	if *traceJSON != "" {
		rec = obs.NewRecorder(0)
		ctx = obs.WithRecorder(ctx, rec)
	}
	ctx, root := obs.StartSpan(ctx, "explore")
	root.SetAttr("trace", fs.Arg(0))
	root.SetAttr("n", st.N)
	root.SetAttr("n_unique", st.NUnique)
	start := time.Now()
	if spaceMode {
		sp := core.Space{
			L1: core.LevelSpace{MaxDepth: *maxDepth, MaxAssoc: *maxAssoc, Policies: pols, Technologies: techs},
		}
		if *levels == 2 {
			sp.Topology = core.TopoSplitL2
			sp.L2 = core.LevelSpace{MaxAssoc: *maxAssoc, Policies: pols, Technologies: techs}
		}
		front, err := dse.ExploreSpace(ctx, tr, sp, dse.SpaceOptions{})
		if err != nil {
			return err
		}
		root.SetAttr("space", sp.Key())
		root.End()
		logger.Info("design-space exploration complete",
			"trace", fs.Arg(0), "space", sp.Key(), "points", front.Len(),
			"evaluated", front.Stats.Evaluated, "pruned", front.Stats.Pruned(),
			"duration", time.Since(start).String())
		if rec != nil {
			if err := writeTraceJSON(*traceJSON, fs.Arg(0), rec); err != nil {
				return err
			}
		}
		tab := dse.FrontTable(front)
		if *frontFmt == "csv" {
			fmt.Print(tab.CSV())
		} else {
			fmt.Print(tab.Render())
		}
		return nil
	}
	opts := core.Options{
		MaxDepth: *maxDepth, Workers: *workers, SampleRate: *sample,
	}
	if *workers == 0 {
		// The flag's historical default 0 meant "use every core".
		opts.Workers = -1
	}
	r, err := core.Explore(ctx, tr, opts)
	if err != nil {
		return err
	}
	root.End()
	logger.Info("exploration complete",
		"trace", fs.Arg(0), "n", st.N, "n_unique", st.NUnique,
		"levels", len(r.Levels), "duration", time.Since(start).String())
	if est := r.Sample; est != nil {
		fmt.Printf("# sampled at rate %g: an in-memory trace is explored exactly — result is exact\n",
			est.RequestedRate)
	}
	if rec != nil {
		if err := writeTraceJSON(*traceJSON, fs.Arg(0), rec); err != nil {
			return err
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	instances, tab := dse.InstanceTable(r, budget, st.MaxMisses, *pareto)
	if *frontFmt == "csv" {
		fmt.Print(tab.CSV())
	} else {
		fmt.Print(tab.Render())
	}
	if *verify {
		if err := dse.Verify(tr, instances, budget); err != nil {
			return err
		}
		fmt.Println("verified: all instances meet the budget under simulation")
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := newFlagSet("simulate", "simulate [-depth D] [-assoc A] [-line W] [-repl P] [-wt] [-store DIR] TRACE")
	depth := fs.Int("depth", 256, "cache depth (sets)")
	assoc := fs.Int("assoc", 1, "associativity")
	line := fs.Int("line", 1, "line size in words")
	replName := fs.String("repl", "lru", "replacement policy: lru, fifo, random, plru")
	wt := fs.Bool("wt", false, "write-through instead of write-back")
	storeDir := fs.String("store", "", "read TRACE from this tracestore directory instead of the filesystem")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("simulate needs exactly one trace file")
	}
	tr, err := resolveTrace(*storeDir, fs.Arg(0))
	if err != nil {
		return err
	}
	policy, err := core.ParsePolicy(*replName)
	if err != nil {
		return err
	}
	cfg := cache.Config{Depth: *depth, Assoc: *assoc, LineWords: *line, Repl: dse.ReplOf(policy), Allocate: true}
	if *wt {
		cfg.Write = cache.WriteThrough
	}
	res, err := cache.Simulate(cfg, tr)
	if err != nil {
		return err
	}
	fmt.Printf("config:      %s\n", cfg)
	fmt.Printf("accesses:    %d\n", res.Accesses)
	fmt.Printf("hits:        %d\n", res.Hits)
	fmt.Printf("cold misses: %d\n", res.ColdMisses)
	fmt.Printf("misses:      %d (non-cold)\n", res.Misses)
	fmt.Printf("writebacks:  %d\n", res.Writebacks)
	fmt.Printf("miss rate:   %.4f (non-cold / accesses)\n", res.MissRate())
	return nil
}

func cmdVerify(args []string) error {
	fs := newFlagSet("verify", "verify -k N TRACE D:A [D:A ...]")
	k := fs.Int("k", 0, "miss budget K")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("verify needs a trace file and at least one D:A instance")
	}
	tr, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	var instances []core.Instance
	for _, arg := range fs.Args()[1:] {
		d, a, ok := strings.Cut(arg, ":")
		if !ok {
			return fmt.Errorf("bad instance %q, want D:A", arg)
		}
		depth, err1 := strconv.Atoi(d)
		assoc, err2 := strconv.Atoi(a)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad instance %q, want D:A", arg)
		}
		instances = append(instances, core.Instance{Depth: depth, Assoc: assoc})
	}
	if err := dse.Verify(tr, instances, *k); err != nil {
		return err
	}
	fmt.Printf("ok: %d instances meet budget K=%d\n", len(instances), *k)
	return nil
}
