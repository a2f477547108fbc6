package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// kernelStreams runs a PowerStone kernel once per test binary and caches
// its streams.
var kernelCache sync.Map // name -> *powerstone.Result

func kernelStreams(t *testing.T, name string) *powerstone.Result {
	t.Helper()
	if r, ok := kernelCache.Load(name); ok {
		return r.(*powerstone.Result)
	}
	b := powerstone.Get(name)
	if b == nil {
		t.Fatalf("unknown PowerStone kernel %q", name)
	}
	r, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	kernelCache.Store(name, r)
	return r
}

// mergeStreams interleaves the split streams proportionally — a
// deterministic stand-in for the original fetch/data arrival order, good
// enough to exercise split topologies.
func mergeStreams(instr, data *trace.Trace) *trace.Trace {
	ni, nd := instr.Len(), data.Len()
	out := trace.New(ni + nd)
	i, d := 0, 0
	for i < ni || d < nd {
		if d < nd && (i >= ni || d*ni <= i*nd) {
			out.Append(data.Refs[d])
			d++
		} else {
			out.Append(instr.Refs[i])
			i++
		}
	}
	return out
}

// TestCrossCheckPoliciesPowerStone is the estimator's oracle suite: on
// every PowerStone kernel, the one-pass FIFO/Random/PLRU profiles the
// design-space evaluator reads must agree exactly with the cache
// simulator, cell for cell, on both the instruction and the data stream.
// Tolerance is zero — the one-pass estimator replicates the simulator's
// replacement semantics bit for bit.
func TestCrossCheckPoliciesPowerStone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every PowerStone kernel")
	}
	const maxDepth, maxAssoc = 16, 4
	policies := []core.Policy{core.PolicyFIFO, core.PolicyRandom, core.PolicyPLRU}
	for _, name := range powerstone.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := kernelStreams(t, name)
			for _, stream := range []*trace.Trace{res.Instr, res.Data} {
				for _, pol := range policies {
					for depth := 1; depth <= maxDepth; depth *= 2 {
						sw, err := onepass.PolicySweep(stream, depth, maxAssoc, 1, onepassOf(pol))
						if err != nil {
							t.Fatal(err)
						}
						for a := 1; a <= maxAssoc; a++ {
							sim, err := cache.Simulate(cache.Config{Depth: depth, Assoc: a, Repl: ReplOf(pol)}, stream)
							if err != nil {
								t.Fatal(err)
							}
							if sw.MissByAssoc[a] != sim.Misses {
								t.Errorf("%s %s D=%d A=%d: one-pass %d, simulated %d",
									name, pol, depth, a, sw.MissByAssoc[a], sim.Misses)
							}
						}
					}
				}
			}
		})
	}
}

// TestExploreSpaceFIFOOnlyComplete: the A_zero and α cuts stand on an LRU
// candidate that dominates or approximates the skipped cells. A space
// without LRU has none, so its pruned front must equal the exhaustive
// one point for point, and every point's misses must match simulation.
func TestExploreSpaceFIFOOnlyComplete(t *testing.T) {
	tr := tracegen.HotCold(200)
	space := core.Space{L1: core.LevelSpace{MaxDepth: 1, MaxAssoc: 8, Policies: []core.Policy{core.PolicyFIFO}}}
	ctx := context.Background()
	pruned, err := ExploreSpace(ctx, tr, space, SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := ExploreSpace(ctx, tr, space, SpaceOptions{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pruned.Points(), full.Points()) {
		t.Fatalf("pruned front (%d points) != exhaustive front (%d points):\n%s\nvs\n%s",
			pruned.Len(), full.Len(), FrontTable(pruned).Render(), FrontTable(full).Render())
	}
	if pruned.Len() != 8 {
		t.Errorf("front has %d points, want all 8 associativities", pruned.Len())
	}
	for _, p := range pruned.Points() {
		l := p.Levels[0]
		sim, err := cache.Simulate(cache.Config{Depth: l.Depth, Assoc: l.Assoc, LineWords: l.LineWords, Repl: cache.FIFO}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Misses, sim.ColdMisses+sim.Misses; got != want {
			t.Errorf("%v: front misses %d, simulated %d", l, got, want)
		}
	}
}

// spaceFIFOPLRU is the acceptance-criteria space: joint split L1I/L1D +
// shared L2 with FIFO and PLRU alongside LRU.
func spaceFIFOPLRU() core.Space {
	return core.Space{
		Topology: core.TopoSplitL2,
		L1: core.LevelSpace{
			MaxDepth: 32, MaxAssoc: 4,
			Policies: []core.Policy{core.PolicyLRU, core.PolicyFIFO, core.PolicyPLRU},
		},
		L2: core.LevelSpace{
			MaxDepth: 256, MaxAssoc: 4,
			Policies: []core.Policy{core.PolicyLRU, core.PolicyFIFO, core.PolicyPLRU},
		},
	}
}

// TestExploreSpaceJointFrontStableAndSound covers three acceptance
// criteria at once on a joint L1I/L1D+L2 exploration with FIFO and PLRU:
// the front is bit-stable across runs, every point is non-dominated, and
// every point's miss count matches a full hierarchy simulation exactly.
func TestExploreSpaceJointFrontStableAndSound(t *testing.T) {
	res := kernelStreams(t, "crc")
	tr := mergeStreams(res.Instr, res.Data)
	ctx := context.Background()
	front, err := ExploreSpace(ctx, tr, spaceFIFOPLRU(), SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if front.Len() == 0 {
		t.Fatal("empty Pareto front")
	}

	again, err := ExploreSpace(ctx, tr, spaceFIFOPLRU(), SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(front.Points(), again.Points()) {
		t.Error("Pareto front is not bit-stable across runs")
	}
	if !reflect.DeepEqual(front.Stats, again.Stats) {
		t.Errorf("prune stats differ across runs: %+v vs %+v", front.Stats, again.Stats)
	}

	pts := front.Points()
	for i, p := range pts {
		for j, q := range pts {
			if i != j && p.Dominates(q) {
				t.Fatalf("emitted point %s dominates emitted point %s", p.Key(), q.Key())
			}
		}
	}

	// Certify miss counts against the simulator: replay the exact
	// hierarchy of each point. Locked tolerance: zero.
	instr, data := tr.Split()
	for _, p := range pts {
		if len(p.Levels) != 3 {
			t.Fatalf("split+l2 point has %d levels: %s", len(p.Levels), p.Key())
		}
		cfgOf := func(lc core.LevelConfig) cache.Config {
			return cache.Config{Depth: lc.Depth, Assoc: lc.Assoc, LineWords: lc.LineWords, Repl: ReplOf(lc.Policy)}
		}
		filtered, err := FilterThroughSplitL1(tr, cfgOf(p.Levels[0]), cfgOf(p.Levels[1]))
		if err != nil {
			t.Fatal(err)
		}
		l2res, err := cache.Simulate(cfgOf(p.Levels[2]), filtered)
		if err != nil {
			t.Fatal(err)
		}
		if p.Misses != l2res.TotalMisses() {
			t.Errorf("point %s: analytical misses %d, simulated %d",
				p.Key(), p.Misses, l2res.TotalMisses())
		}
	}
	_ = instr
	_ = data
}

// TestExploreSpaceDefaultPruneRate asserts the α-threshold/A_zero cuts
// skip at least 30% of the candidate cells on the default space — the
// analytical payoff the design-space layer exists for.
func TestExploreSpaceDefaultPruneRate(t *testing.T) {
	res := kernelStreams(t, "crc")
	tr := mergeStreams(res.Instr, res.Data)
	front, err := ExploreSpace(context.Background(), tr, core.DefaultSpace(), SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := front.Stats
	if s.Candidates == 0 || s.Evaluated+s.Pruned() != s.Candidates {
		t.Fatalf("prune tally does not partition the grid: %+v", s)
	}
	if rate := s.Rate(); rate < 0.30 {
		t.Errorf("prune rate %.2f < 0.30 on the default space (%+v)", rate, s)
	} else {
		t.Logf("default space: %d candidates, %d evaluated, prune rate %.2f",
			s.Candidates, s.Evaluated, rate)
	}
}

// TestExploreSpaceUnifiedTechnologies checks the technology axis: on an
// identical geometry, the NVM-hybrid variant must trade area against
// energy rather than silently duplicate SRAM points.
func TestExploreSpaceUnifiedTechnologies(t *testing.T) {
	res := kernelStreams(t, "bcnt")
	space := core.Space{
		Topology: core.TopoUnified,
		L1: core.LevelSpace{
			MaxDepth: 32, MaxAssoc: 4,
			Policies:     []core.Policy{core.PolicyLRU, core.PolicyFIFO},
			Technologies: []core.Technology{core.TechSRAM, core.TechNVMHybrid},
		},
	}
	front, err := ExploreSpace(context.Background(), res.Data, space, SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sawSRAM, sawNVM bool
	for _, p := range front.Points() {
		if len(p.Levels) != 1 {
			t.Fatalf("unified point has %d levels", len(p.Levels))
		}
		switch p.Levels[0].Technology {
		case core.TechSRAM:
			sawSRAM = true
		case core.TechNVMHybrid:
			sawNVM = true
		}
	}
	if !sawSRAM || !sawNVM {
		t.Errorf("front covers technologies sram=%v nvm=%v, want both on the front", sawSRAM, sawNVM)
	}
}

// TestExploreSpaceRejectsInvalid pins validation errors.
func TestExploreSpaceRejectsInvalid(t *testing.T) {
	tr := trace.New(0)
	if _, err := ExploreSpace(context.Background(), tr, core.Space{L1: core.LevelSpace{MaxDepth: 3}}, SpaceOptions{}); err == nil {
		t.Error("ExploreSpace accepted MaxDepth 3")
	}
}

// TestFrontTableRendering smoke-checks the shared renderer.
func TestFrontTableRendering(t *testing.T) {
	res := kernelStreams(t, "bcnt")
	space := core.Space{Topology: core.TopoUnified, L1: core.LevelSpace{MaxDepth: 16, MaxAssoc: 2}}
	front, err := ExploreSpace(context.Background(), res.Data, space, SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tab := FrontTable(front)
	out := tab.Render()
	if !strings.Contains(out, "Pareto front") || !strings.Contains(out, "Misses") {
		t.Errorf("front table missing headers:\n%s", out)
	}
	if got := len(strings.Split(strings.TrimSpace(tab.CSV()), "\n")); got != front.Len()+1 {
		t.Errorf("CSV rows = %d, want %d points + header", got, front.Len())
	}
}

// TestExploreSpaceExhaustiveAgrees prices the cuts' correctness: the
// exhaustive evaluation of the same space must evaluate every candidate
// cell (no pruning), and the pruned front must still reach the same
// best miss count — the cuts only drop dominated or near-floor cells.
func TestExploreSpaceExhaustiveAgrees(t *testing.T) {
	res := kernelStreams(t, "crc")
	sp := core.Space{L1: core.LevelSpace{
		MaxDepth: 16, MaxAssoc: 8,
		Policies: []core.Policy{core.PolicyLRU, core.PolicyFIFO, core.PolicyPLRU},
	}}
	pruned, err := ExploreSpace(context.Background(), res.Data, sp, SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := ExploreSpace(context.Background(), res.Data, sp, SpaceOptions{Exhaustive: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := full.Stats; s.Evaluated != s.Candidates || s.Pruned() != 0 {
		t.Errorf("exhaustive run still pruned: %+v", s)
	}
	if full.Stats.Candidates != pruned.Stats.Candidates {
		t.Errorf("candidate grids differ: exhaustive %d, pruned %d",
			full.Stats.Candidates, pruned.Stats.Candidates)
	}
	if pruned.Stats.Pruned() == 0 {
		t.Error("pruned run cut nothing, benchmark comparison is vacuous")
	}
	pp, fp := pruned.Points(), full.Points()
	if len(pp) == 0 || len(fp) == 0 {
		t.Fatalf("empty front: pruned %d, exhaustive %d", len(pp), len(fp))
	}
	if pp[0].Misses != fp[0].Misses {
		t.Errorf("best miss count differs: pruned %d, exhaustive %d",
			pp[0].Misses, fp[0].Misses)
	}
}

// levelCandidates evaluates one level's grid on stream as the one stage
// of its own run and returns the stage's candidates.
func levelCandidates(t *testing.T, stream *trace.Trace, ls core.LevelSpace, o SpaceOptions) []levelCand {
	t.Helper()
	st := newLevelStage(stream, ls, o, 1)
	if err := newSpaceRun(context.Background()).run(new(core.PruneStats), st); err != nil {
		t.Fatal(err)
	}
	return st.cands
}

// TestParetoPairsKeyOrder: paretoPairs ranks each candidate's config
// string once and compares the (L1I, L1D) ranks in turn; the pairs it
// keeps, in order, must be those of a sort on the joined "L1I/L1D" key. The
// exhaustive grid over three line sizes is full of miss-and-size ties,
// including candidates whose config strings coincide (line size is not
// part of them).
func TestParetoPairsKeyOrder(t *testing.T) {
	res := kernelStreams(t, "crc")
	ls := core.LevelSpace{
		MaxDepth: 16, MaxAssoc: 4, LineWords: []int{1, 2, 4},
		Policies: []core.Policy{core.PolicyLRU, core.PolicyFIFO, core.PolicyPLRU},
	}
	o := SpaceOptions{Exhaustive: true}.normalized()
	candsI, candsD := levelCandidates(t, res.Instr, ls, o), levelCandidates(t, res.Data, ls, o)

	key := func(p l1Pair) string { return p.i.config().String() + "/" + p.d.config().String() }
	all := make([]l1Pair, 0, len(candsI)*len(candsD))
	for _, ci := range candsI {
		for _, cd := range candsD {
			all = append(all, l1Pair{i: ci, d: cd})
		}
	}
	misses := func(p l1Pair) int { return p.i.misses() + p.d.misses() }
	size := func(p l1Pair) int { return p.i.sizeWords() + p.d.sizeWords() }
	sort.Slice(all, func(i, j int) bool {
		if misses(all[i]) != misses(all[j]) {
			return misses(all[i]) < misses(all[j])
		}
		if size(all[i]) != size(all[j]) {
			return size(all[i]) < size(all[j])
		}
		return key(all[i]) < key(all[j])
	})
	var want []l1Pair
	best := -1
	for _, p := range all {
		if best >= 0 && size(p) >= best {
			continue
		}
		want = append(want, p)
		best = size(p)
	}
	if got := paretoPairs(candsI, candsD); !reflect.DeepEqual(got, want) {
		t.Fatalf("paretoPairs kept %d pairs, joined-key order %d:\n%v\nvs\n%v", len(got), len(want), got, want)
	}
}

// TestSpaceLRUMatchesExplore makes the MRCT engine the oracle of the LRU
// sweep the space evaluator reads instead of it: at every depth
// core.Explore profiles, the sweep's misses by associativity, its A_zero
// cap and its α cap equal what core.Explore's LevelResult gives, on the
// 24 PowerStone streams, three synthetic low-reuse mixes, the hot/cold
// trace and a pointer chase, at three line sizes and two associativity
// axes.
func TestSpaceLRUMatchesExplore(t *testing.T) {
	type stream struct {
		name string
		tr   *trace.Trace
	}
	var streams []stream
	for _, name := range powerstone.Names() {
		res := kernelStreams(t, name)
		streams = append(streams, stream{name + "/instr", res.Instr}, stream{name + "/data", res.Data})
	}
	rng := rand.New(rand.NewSource(21))
	streams = append(streams,
		stream{"zipf", tracegen.Zipf(rng, 0, 4096, 40_000, 1.2)},
		stream{"phases", tracegen.WorkingSetPhases(rng, 8, 5_000, 500)},
		stream{"loop+uniform", tracegen.Mixed(tracegen.Loop(0x10000, 300, 50), tracegen.Uniform(rng, 0x40000, 2_000, 15_000))},
		stream{"hotcold", tracegen.HotCold(200)},
		stream{"pointer", tracegen.PointerChase(rng, 3_000, 30_000)},
	)
	const maxDepth = 512
	var sw onepass.PolicySweeper
	var strip trace.Stripped
	for _, s := range streams {
		for _, line := range []int{1, 2, 4} {
			l, err := trace.StripLines(s.tr, line, &strip)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Explore(context.Background(), l, core.Options{MaxDepth: maxDepth})
			if err != nil {
				t.Fatal(err)
			}
			if got := depthLevels(l, maxDepth) + 1; got != len(want.Levels) {
				t.Fatalf("%s line %d: %d depths swept, core.Explore profiles %d", s.name, line, got, len(want.Levels))
			}
			for _, lr := range want.Levels {
				for _, maxAssoc := range []int{8, 64} {
					lru, err := sw.SweepLines(l, lr.Depth, maxAssoc, onepass.ReplLRU)
					if err != nil {
						t.Fatal(err)
					}
					for a := 1; a <= maxAssoc; a++ {
						if lru.MissByAssoc[a] != lr.Misses(a) {
							t.Fatalf("%s line %d D=%d A=%d: sweep %d misses, core.Explore %d",
								s.name, line, lr.Depth, a, lru.MissByAssoc[a], lr.Misses(a))
						}
					}
					capZero, capAlpha := lruCaps(lru.MissByAssoc)
					wantZero := min(maxAssoc, lr.AZero)
					if want := min(core.AlphaThreshold(lr, maxAssoc, core.DefaultAlphaEps), wantZero); capZero != wantZero || capAlpha != want {
						t.Fatalf("%s line %d D=%d maxA=%d: caps (%d, %d), core.Explore gives (%d, %d)",
							s.name, line, lr.Depth, maxAssoc, capZero, capAlpha, wantZero, want)
					}
					// The α cap read off the sweep's misses at any slack is
					// core.Explore's.
					for _, eps := range []float64{0.01, 0.2} {
						got := core.AlphaThresholdMisses(lru.MissByAssoc[:capZero+1], eps)
						if want := min(core.AlphaThreshold(lr, maxAssoc, eps), wantZero); got != want {
							t.Fatalf("%s line %d D=%d maxA=%d eps=%g: α cap %d, core.Explore gives %d",
								s.name, line, lr.Depth, maxAssoc, eps, got, want)
						}
					}
				}
			}
		}
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on, n < 0 never: a deterministic cancellation point inside
// a run, which checks its context only through Err. calls counts them.
type cancelAfter struct {
	context.Context
	n, calls int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.n >= 0 && c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestExploreSpaceHonorsCancel checks that a cancelled context stops a
// space exploration with context.Canceled, whether it was cancelled
// before the call or during the L2 stage. The split topology runs the
// same L1 stage as split+l2, so its count of context checks places the
// cancellation past the L1 stage, halfway through the L2 sweeps.
func TestExploreSpaceHonorsCancel(t *testing.T) {
	res := kernelStreams(t, "crc")
	tr := mergeStreams(res.Instr, res.Data)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExploreSpace(ctx, tr, core.DefaultSpace(), SpaceOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	count := func(sp core.Space) int {
		c := &cancelAfter{Context: context.Background(), n: -1}
		if _, err := ExploreSpace(c, tr, sp, SpaceOptions{}); err != nil {
			t.Fatal(err)
		}
		return c.calls
	}
	l1Only := core.DefaultSpace()
	l1Only.Topology = core.TopoSplit
	l1, all := count(l1Only), count(core.DefaultSpace())
	if all <= l1+1 {
		t.Fatalf("the L2 stage checks the context %d times, want several", all-l1)
	}
	c := &cancelAfter{Context: context.Background(), n: (l1 + all) / 2}
	if _, err := ExploreSpace(c, tr, core.DefaultSpace(), SpaceOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled in the L2 stage: err = %v, want context.Canceled", err)
	}
	if c.calls != c.n+1 {
		t.Errorf("run went on for %d context checks after the cancellation", c.calls-c.n-1)
	}
}

// TestExploreSpaceSameAtAnyProcs: every stage of a call runs on one pool
// of GOMAXPROCS workers, and the answer must not depend on how many. At
// GOMAXPROCS 1 (one worker), 2 and 4 the fronts agree point for point
// and the prune tallies are equal, on the default space pruned,
// exhaustive and with every L1 pair kept (so every L2 pair is in flight
// with the others) and on a unified four-policy space over three line
// sizes.
func TestExploreSpaceSameAtAnyProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	type named struct {
		name string
		tr   *trace.Trace
	}
	traces := []named{{"hotcold", tracegen.HotCold(200)}}
	for _, k := range []string{"crc", "bcnt", "qurt"} {
		res := kernelStreams(t, k)
		traces = append(traces, named{k, mergeStreams(res.Instr, res.Data)})
	}
	unified := core.Space{L1: core.LevelSpace{
		MaxDepth: 64, MaxAssoc: 8, LineWords: []int{1, 2, 4},
		Policies: []core.Policy{core.PolicyLRU, core.PolicyFIFO, core.PolicyRandom, core.PolicyPLRU},
	}}
	spaces := []struct {
		name string
		sp   core.Space
		o    SpaceOptions
	}{
		{"default", core.DefaultSpace(), SpaceOptions{}},
		{"default-exhaustive", core.DefaultSpace(), SpaceOptions{Exhaustive: true}},
		{"default-all-pairs", core.DefaultSpace(), SpaceOptions{MaxL1Pairs: -1}},
		{"unified", unified, SpaceOptions{}},
	}
	for _, tr := range traces {
		for _, c := range spaces {
			var one *core.Front
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				f, err := ExploreSpace(context.Background(), tr.tr, c.sp, c.o)
				if err != nil {
					t.Fatalf("%s %s GOMAXPROCS %d: %v", tr.name, c.name, procs, err)
				}
				if procs == 1 {
					one = f
					continue
				}
				if one.Stats != f.Stats {
					t.Errorf("%s %s: prune stats %+v at GOMAXPROCS 1, %+v at %d", tr.name, c.name, one.Stats, f.Stats, procs)
				}
				p1, pn := one.Points(), f.Points()
				if len(p1) != len(pn) {
					t.Errorf("%s %s: %d front points at GOMAXPROCS 1, %d at %d", tr.name, c.name, len(p1), len(pn), procs)
					continue
				}
				for i := range p1 {
					a, b := p1[i], pn[i]
					if a.Key() != b.Key() || a.Misses != b.Misses || a.EnergyPJ != b.EnergyPJ || a.AreaUM2 != b.AreaUM2 {
						t.Errorf("%s %s point %d: %s %d %g %g at GOMAXPROCS 1, %s %d %g %g at %d", tr.name, c.name, i,
							a.Key(), a.Misses, a.EnergyPJ, a.AreaUM2, b.Key(), b.Misses, b.EnergyPJ, b.AreaUM2, procs)
					}
				}
			}
		}
	}
}

// TestSweepWorkersWithinBudget: the sweeps of a level get
// min(GOMAXPROCS, depths) sweepers at once while their tables fit
// dse.MaxSweepWays together, one for a level at the server's admission
// bound, and a level after such a level gets what the budget still
// admits, the sweepers past it dropped. workers grants a level's sweeps
// deepest first, so its largest tables count from the first grant, as
// many as take admits, and gives them back.
func TestSweepWorkersWithinBudget(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	strip, err := trace.StripLines(tracegen.Uniform(rand.New(rand.NewSource(1)), 0, 4096, 8192), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := func(depths, assoc int) []int {
		axis := make([]int, depths)
		for lvl := range axis {
			axis[lvl] = assoc
		}
		return axis
	}
	workers := func(sc *spaceScratch, axis []int) int {
		var got []*onepass.PolicySweeper
		for lvl := len(axis) - 1; lvl >= 0; lvl-- {
			sw := sc.take(strip, 1<<lvl, axis[lvl])
			if sw == nil {
				break
			}
			got = append(got, sw)
		}
		for _, sw := range got {
			sc.give(sw)
		}
		return len(got)
	}
	held := func(sc *spaceScratch) int { return len(sc.idle) * (sc.ways + sc.residency) }
	sc := newSpaceScratch()
	if n := workers(sc, full(11, 8)); n != 4 {
		t.Fatalf("default-sized level: %d workers, want 4", n)
	}
	if n := workers(sc, full(3, 8)); n != 3 {
		t.Fatalf("three depths: %d workers, want 3", n)
	}
	// 1024·180·181/2 ways: the largest level the server admits.
	if n := workers(sc, full(11, 180)); n != 1 || len(sc.idle) != 1 {
		t.Fatalf("level at the admission bound: %d workers, %d sweepers kept, want 1 and 1", n, len(sc.idle))
	}
	if n := workers(sc, full(11, 8)); n != 1 {
		t.Fatalf("after a level at the bound: %d workers, want 1", n)
	}
	sc = newSpaceScratch()
	for _, assoc := range []int{8, 48, 64, 96} {
		n := workers(sc, full(11, assoc))
		if n < 1 || len(sc.idle) > 1 && held(sc) > MaxSweepWays {
			t.Fatalf("assoc %d: %d workers, %d sweepers of up to %d words each, over the %d-word budget",
				assoc, n, len(sc.idle), sc.ways+sc.residency, MaxSweepWays)
		}
	}
	// At 96 ways a sweeper needs 1024·96·97/2 ways and about 3 500·96
	// residency words, some 5.1M words: three fit the budget.
	if n := len(sc.idle); n != 3 {
		t.Fatalf("at assoc 96: %d sweepers kept, want 3", n)
	}
}

// TestSweepersInUseWithinBudget drives take and give through a seeded
// mix of sweeps, from a direct-mapped sweep of 64 lines to a 1024-deep
// 200-way sweep of 47 000, grants and returns interleaved as a pool's
// are. After every step the sweepers alive number at most GOMAXPROCS,
// and whenever two or more are alive — in particular whenever two or
// more are in use — their tables, at the largest size any granted sweep
// could give them, fit MaxSweepWays together. A sweep is refused only
// while another is in use.
func TestSweepersInUseWithinBudget(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	rng := rand.New(rand.NewSource(26))
	var strips []*trace.Stripped
	for _, universe := range []int{64, 4096, 50_000} {
		s, err := trace.StripLines(tracegen.Uniform(rng, 0, universe, 3*universe), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		strips = append(strips, s)
	}
	for round := range 20 {
		sc := newSpaceScratch()
		var inUse []*onepass.PolicySweeper
		refused := 0
		for step := range 400 {
			if len(inUse) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(inUse))
				sc.give(inUse[k])
				inUse = slices.Delete(inUse, k, k+1)
			} else {
				strip := strips[rng.Intn(len(strips))]
				depth, assoc := 1<<rng.Intn(11), 1+rng.Intn(8)
				if rng.Intn(4) == 0 {
					assoc = 1 + rng.Intn(200)
				}
				sw := sc.take(strip, depth, assoc)
				switch {
				case sw != nil:
					inUse = append(inUse, sw)
				case len(inUse) == 0:
					t.Fatalf("round %d step %d: a sweep refused with no sweeper in use", round, step)
				default:
					refused++
				}
			}
			alive := sc.busy + len(sc.idle)
			words := sc.ways + sc.residency
			if sc.busy != len(inUse) || alive > 4 {
				t.Fatalf("round %d step %d: %d busy for %d in use, %d alive at GOMAXPROCS 4", round, step, sc.busy, len(inUse), alive)
			}
			if alive >= 2 && alive*words > MaxSweepWays {
				t.Fatalf("round %d step %d: %d sweepers alive (%d in use) of up to %d words each, over the %d-word budget",
					round, step, alive, len(inUse), words, MaxSweepWays)
			}
		}
		if round == 0 && refused == 0 {
			t.Fatal("no sweep was ever refused: the budget never bound")
		}
	}
}

// TestSweepPanicReachesCaller: a sweep that panics on a worker goroutine
// panics ExploreSpace's caller, where a recover (the server's job panic
// net) can catch it, instead of the process; an injected sweep error
// comes back as ExploreSpace's error.
func TestSweepPanicReachesCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	t.Cleanup(faultinject.Disarm)
	tr := tracegen.HotCold(200)
	if err := faultinject.Arm("dse.sweep=error(boom)@1", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ExploreSpace(context.Background(), tr, core.DefaultSpace(), SpaceOptions{}); !faultinject.IsInjected(err) {
		t.Fatalf("injected sweep error: err = %v", err)
	}
	if err := faultinject.Arm("dse.sweep=panic(boom)@1", 1); err != nil {
		t.Fatal(err)
	}
	got := func() (p any) {
		defer func() { p = recover() }()
		ExploreSpace(context.Background(), tr, core.DefaultSpace(), SpaceOptions{})
		return nil
	}()
	if s, _ := got.(string); !strings.Contains(s, "boom at dse.sweep") {
		t.Fatalf("injected sweep panic: caller recovered %v", got)
	}
	faultinject.Disarm()
	if _, err := ExploreSpace(context.Background(), tr, core.DefaultSpace(), SpaceOptions{}); err != nil {
		t.Fatalf("after the panics: %v", err)
	}
}

// settledGoroutines waits up to a second for the goroutine count to fall
// to base and returns it: a goroutine that has signalled its WaitGroup
// may take a moment more to exit.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestExploreSpaceLeavesNoGoroutines: however ExploreSpace ends — with a
// front, cancelled before the call or during it, on an injected sweep
// error or on an injected sweep panic — every goroutine it started has
// returned with it.
func TestExploreSpaceLeavesNoGoroutines(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	t.Cleanup(faultinject.Disarm)
	res := kernelStreams(t, "crc")
	tr := mergeStreams(res.Instr, res.Data)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name, fault string
		ctx         context.Context
		ok          func(err error, panicked any) bool
	}{
		{"success", "", context.Background(), func(err error, p any) bool { return err == nil && p == nil }},
		{"pre-cancel", "", cancelled, func(err error, p any) bool { return errors.Is(err, context.Canceled) }},
		{"mid-run cancel", "", &cancelAfter{Context: context.Background(), n: 20},
			func(err error, p any) bool { return errors.Is(err, context.Canceled) }},
		{"sweep error", "dse.sweep=error(boom)@1", context.Background(),
			func(err error, p any) bool { return faultinject.IsInjected(err) }},
		{"sweep panic", "dse.sweep=panic(boom)@1", context.Background(),
			func(err error, p any) bool { return p != nil }},
	}
	for _, c := range cases {
		faultinject.Disarm()
		if c.fault != "" {
			if err := faultinject.Arm(c.fault, 1); err != nil {
				t.Fatal(err)
			}
		}
		base := runtime.NumGoroutine()
		var err error
		panicked := func() (p any) {
			defer func() { p = recover() }()
			_, err = ExploreSpace(c.ctx, tr, core.DefaultSpace(), SpaceOptions{})
			return nil
		}()
		if !c.ok(err, panicked) {
			t.Errorf("%s: err %v, panic %v", c.name, err, panicked)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("%s: %d goroutines after ExploreSpace returned, %d before", c.name, n, base)
		}
	}
}

// TestExploreSpaceCancelWhileWaiting: on a FIFO level as large as
// MaxSweepWays admits (the sweep-cap shape: depth 1 024, 180 ways), at
// GOMAXPROCS 4, once a deep sweep is granted no second sweeper is, so the
// other sweeps of its line wait for it. A cancellation seen at the n-th
// context check must end the call with context.Canceled, with no context
// check after it, rather than leave those sweeps waiting.
func TestExploreSpaceCancelWhileWaiting(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	tr := tracegen.Uniform(rand.New(rand.NewSource(1)), 0, 4096, 8192)
	sp := core.Space{L1: core.LevelSpace{
		MaxDepth: 1024, MaxAssoc: 180, LineWords: []int{1},
		Policies: []core.Policy{core.PolicyFIFO},
	}}
	for _, n := range []int{1, 2, 6} {
		c := &cancelAfter{Context: context.Background(), n: n}
		done := make(chan error, 1)
		go func() {
			_, err := ExploreSpace(c, tr, sp, SpaceOptions{})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled at check %d: err = %v, want context.Canceled", n+1, err)
			}
			if c.calls != n+1 {
				t.Errorf("cancelled at check %d: %d context checks", n+1, c.calls)
			}
		case <-time.After(time.Minute):
			t.Fatalf("cancelled at check %d: ExploreSpace has not returned after a minute", n+1)
		}
	}
}

// maxSpaceAllocBytes bounds the bytes one ExploreSpace of the fir mixed
// stream allocates at GOMAXPROCS 1, the figure space-default's
// heap_peak_mb adds to the live heap. Growing the split L1 streams and
// each L2 stream by append allocated 20.5 MB; sizing them exactly
// allocates 7.6 MB, the direct-mapped miss lists included. The bound
// sits between the two.
const maxSpaceAllocBytes = 11 << 20

// TestExploreSpaceAllocBytes is the space-mode allocation gate: the
// fewest bytes any of three calls allocates must stay under
// maxSpaceAllocBytes.
func TestExploreSpaceAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are meaningless under the race detector")
	}
	res := kernelStreams(t, "fir")
	tr := mergeStreams(res.Instr, res.Data)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ExploreSpace(context.Background(), tr, core.DefaultSpace(), SpaceOptions{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("ExploreSpace of fir (%d references) allocates %.2f MB", tr.Len(), float64(least)/1e6)
	if least > maxSpaceAllocBytes {
		t.Fatalf("ExploreSpace of fir allocates %d bytes, want <= %d", least, maxSpaceAllocBytes)
	}
}

// TestExploreSpaceSweepSpans checks the spans a space exploration records
// under a recorder: one "sweep" per (stream, line, policy), naming its
// policy and line, with as many depths as the candidate grid has and the
// LRU sweep covering every (depth, assoc) cell. Its refs are the
// references the sweeps read: the line's direct-mapped miss lists summed
// over the depths, at least the cold misses and at most the strip at
// every depth.
func TestExploreSpaceSweepSpans(t *testing.T) {
	res := kernelStreams(t, "crc")
	sp := core.Space{L1: core.LevelSpace{
		MaxDepth: 16, MaxAssoc: 4, LineWords: []int{1, 2},
		Policies: []core.Policy{core.PolicyLRU, core.PolicyFIFO},
	}}
	rec := obs.NewRecorder(0)
	front, err := ExploreSpace(obs.WithRecorder(context.Background(), rec), res.Data, sp, SpaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	candidates := 0
	for _, s := range rec.Export().Spans {
		if s.Name != "sweep" {
			continue
		}
		policy, _ := s.Attrs["policy"].(string)
		line, _ := s.Attrs["line"].(int)
		depths, _ := s.Attrs["depths"].(int)
		cells, _ := s.Attrs["cells"].(int)
		refs, _ := s.Attrs["refs"].(int)
		seen[fmt.Sprintf("%s/%d", policy, line)]++
		strip, err := trace.StripLines(res.Data, line, nil)
		if err != nil {
			t.Fatal(err)
		}
		var lists onepass.MissLists
		lists.Build(strip, depthLevels(strip, sp.L1.MaxDepth))
		want := 0
		for lvl := range depths {
			want += len(lists.At(lvl))
		}
		if refs != want || refs < depths*strip.NUnique() || refs > depths*strip.N() {
			t.Errorf("sweep span %v: refs %d, want the lists' %d, within depths·[N′, N]", s.Attrs, refs, want)
		}
		candidates += depths * sp.L1.MaxAssoc
		if depths < 1 || cells < depths || cells > depths*sp.L1.MaxAssoc {
			t.Errorf("sweep span %v: cells outside [depths, depths·MaxAssoc]", s.Attrs)
		}
		if policy == "lru" && cells != depths*sp.L1.MaxAssoc {
			t.Errorf("LRU sweep span %v: want every cell swept", s.Attrs)
		}
	}
	want := map[string]int{"lru/1": 1, "fifo/1": 1, "lru/2": 1, "fifo/2": 1}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("sweep spans %v, want %v", seen, want)
	}
	if candidates != front.Stats.Candidates {
		t.Errorf("sweep spans cover %d candidate cells, front tallies %d", candidates, front.Stats.Candidates)
	}
}

// TestExploreSpaceStageSpans checks the spans a split+l2 exploration
// records under a recorder, all children of the caller's span: one
// "l1_pairs" naming the pairs on the L1 pair front and the pairs kept,
// one "l2_filter" per kept pair replaying the whole trace, one "strip"
// per level stream (L1I, L1D and each pair's L2 stream, one line size
// each) and one "sweep" per stream and policy.
func TestExploreSpaceStageSpans(t *testing.T) {
	res := kernelStreams(t, "crc")
	tr := mergeStreams(res.Instr, res.Data)
	rec := obs.NewRecorder(0)
	ctx, root := obs.StartSpan(obs.WithRecorder(context.Background(), rec), "root")
	if _, err := ExploreSpace(ctx, tr, core.DefaultSpace(), SpaceOptions{}); err != nil {
		t.Fatal(err)
	}
	root.End()
	seen := map[string]int{}
	kept, pairs := -1, -1
	for _, s := range rec.Export().Spans {
		if s.Name == "root" {
			continue
		}
		seen[s.Name]++
		if s.Parent != root.ID() {
			t.Errorf("%s span %v is not a child of the caller's span", s.Name, s.Attrs)
		}
		switch s.Name {
		case "l1_pairs":
			pairs, _ = s.Attrs["pairs"].(int)
			kept, _ = s.Attrs["kept"].(int)
		case "l2_filter":
			in, _ := s.Attrs["refs_in"].(int)
			out, _ := s.Attrs["refs_out"].(int)
			if in != tr.Len() || out < 1 || out > 2*in {
				t.Errorf("l2_filter span %v: want refs_in %d and 1..2·refs_in refs out", s.Attrs, tr.Len())
			}
		}
	}
	if seen["l1_pairs"] != 1 || kept < 2 || kept > DefaultMaxL1Pairs || pairs < kept {
		t.Fatalf("%d l1_pairs spans, %d pairs on the front, %d kept: want one span keeping 2..%d",
			seen["l1_pairs"], pairs, kept, DefaultMaxL1Pairs)
	}
	policies := len(core.DefaultSpace().L1.Policies)
	want := map[string]int{"l1_pairs": 1, "l2_filter": kept, "strip": 2 + kept, "sweep": policies * (2 + kept)}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("spans %v, want %v", seen, want)
	}
}
