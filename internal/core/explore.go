package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
)

// Instance is one cache design point: depth (rows) and associativity.
// Cache size in words is Depth*Assoc (one-word lines, §2.1).
type Instance struct {
	Depth int
	Assoc int
}

// SizeWords returns the instance's total capacity in words.
func (i Instance) SizeWords() int { return i.Depth * i.Assoc }

// String renders the instance as (D,A).
func (i Instance) String() string { return fmt.Sprintf("(D=%d,A=%d)", i.Depth, i.Assoc) }

// Options configures an exploration.
type Options struct {
	// MaxDepth caps the explored depths at the given power of two. Zero
	// explores up to 2^AddrBits, where every unique reference has its own
	// row.
	MaxDepth int
	// Workers sets the postlude parallelism: 0 or 1 runs the serial
	// depth-first postlude, n > 1 fans the postlude out over n
	// work-stealing workers, and any negative value uses GOMAXPROCS.
	// Requests beyond GOMAXPROCS are clamped to it — extra workers on a
	// saturated machine only add queue and merge overhead (the negative
	// scaling BenchmarkAblationParallelExplore showed before the clamp).
	// Results are bit-identical at every setting.
	Workers int
	// SampleRate, when non-zero, asks for a spatially sampled answer at
	// this rate; valid rates lie in (0, 1], anything else fails with
	// *sampling.ErrRate. An in-memory source (*trace.Trace,
	// *trace.Stripped or Prelude) is explored exactly all the same, and
	// its Result.Sample is the degenerate rate-1 estimate. Only a
	// trace.RefReader is thinned before the prelude and rescaled back
	// (sampling.ModeStream). Zero is the exact path with no estimate.
	SampleRate float64
	// SampleSeed perturbs the stream-mode sampling hash; zero uses
	// sampling.DefaultSeed.
	SampleSeed uint64
}

// workerCount resolves Options.Workers: 0 and 1 are serial, negative is
// GOMAXPROCS, anything else is clamped to GOMAXPROCS.
func (o Options) workerCount() int {
	max := runtime.GOMAXPROCS(0)
	if o.Workers < 0 {
		return max
	}
	if o.Workers == 0 {
		return 1
	}
	if o.Workers > max {
		return max
	}
	return o.Workers
}

// LevelResult holds the analytical profile of one cache depth.
type LevelResult struct {
	// Depth is the cache depth (2^level).
	Depth int
	// Hist[d] counts non-cold occurrences whose conflict-set intersection
	// with their row set has cardinality d. An occurrence with value d
	// misses in every cache of this depth with associativity A <= d.
	//
	// Hist[0] may undercount guaranteed hits at deep levels: rows pruned
	// by the stop criterion (|row| < 2) are never revisited, and their
	// occurrences — always d = 0 — are omitted. Every d >= 1 bucket, and
	// therefore every miss count, is exact.
	Hist []int
	// AZero is the smallest associativity with zero non-cold misses at
	// this depth (the paper's A_zero aggregated over the level's nodes).
	AZero int
}

// Misses returns the non-cold miss count of an assoc-way LRU cache at
// this depth: the histogram tail at and above assoc.
func (l *LevelResult) Misses(assoc int) int {
	if assoc < 1 {
		panic(fmt.Sprintf("core: associativity %d < 1", assoc))
	}
	m := 0
	for d := assoc; d < len(l.Hist); d++ {
		m += l.Hist[d]
	}
	return m
}

// MinAssoc returns the smallest associativity whose miss count is at most
// k — the paper's min_i for this depth.
func (l *LevelResult) MinAssoc(k int) int {
	if k < 0 {
		k = 0
	}
	tail := 0
	for d := len(l.Hist) - 1; d >= 1; d-- {
		if tail+l.Hist[d] > k {
			return d + 1
		}
		tail += l.Hist[d]
	}
	return 1
}

// Result is the output of an exploration: one LevelResult per power-of-two
// depth from 1 to MaxDepth.
type Result struct {
	// Levels[i] profiles depth 2^i.
	Levels []*LevelResult
	// NUnique and N echo the trace statistics the exploration consumed.
	// Under sampling they are the estimated/true full-trace values, not
	// the sampled subset's.
	NUnique int
	N       int
	// Sample carries the sampling estimate when Options.SampleRate was
	// set; nil otherwise. Unless Sample.Exact(), the miss counts in Levels
	// are stream-mode estimates rescaled to full-trace magnitude.
	Sample *sampling.Estimate `json:",omitempty"`
}

// Level returns the profile for the given depth, or nil if the depth is
// not a power of two within the explored range.
func (r *Result) Level(depth int) *LevelResult {
	if depth < 1 || depth&(depth-1) != 0 {
		return nil
	}
	i := 0
	for d := depth; d > 1; d >>= 1 {
		i++
	}
	if i >= len(r.Levels) {
		return nil
	}
	return r.Levels[i]
}

// OptimalSet returns, for miss budget k, the paper's output: the set of
// optimal (D, A) pairs, one per explored depth (Algorithm 3's final loop).
func (r *Result) OptimalSet(k int) []Instance {
	out := make([]Instance, len(r.Levels))
	for i, l := range r.Levels {
		out[i] = Instance{Depth: l.Depth, Assoc: l.MinAssoc(k)}
	}
	return out
}

// ParetoSet filters OptimalSet(k) down to the (size, misses) Pareto
// frontier: an instance survives only if no smaller-or-equal-size instance
// achieves as few misses. All entries already meet the budget k; the
// frontier is what a designer actually chooses from.
func (r *Result) ParetoSet(k int) []Instance {
	all := r.OptimalSet(k)
	misses := func(ins Instance) int { return r.Level(ins.Depth).Misses(ins.Assoc) }
	sort.Slice(all, func(i, j int) bool {
		if all[i].SizeWords() != all[j].SizeWords() {
			return all[i].SizeWords() < all[j].SizeWords()
		}
		return misses(all[i]) < misses(all[j])
	})
	var out []Instance
	best := -1
	for _, ins := range all {
		m := misses(ins)
		if best >= 0 && m >= best {
			continue
		}
		out = append(out, ins)
		best = m
	}
	return out
}

// Explore is the one entry point of the analytical engine: it runs the
// prelude (strip + conflict table) over src as needed and the LRU
// postlude, returning the per-depth miss profile. Cancellation flows from
// ctx into every phase. Every other design question — replacement
// policies, energy, line sizes, hierarchies — goes through the
// design-space evaluator in internal/dse, which builds on this profile.
//
// Source accepts four shapes:
//
//	*trace.Trace     — the full prelude runs over the in-memory trace
//	*trace.Stripped  — a strip at any line size; the MRCT is built over it
//	Prelude          — pre-built strip + MRCT (reuse across budgets)
//	trace.RefReader  — streaming: the prelude consumes the reference
//	                   stream without materialising a *trace.Trace
//
// Options.Workers picks the serial depth-first or the work-stealing
// parallel postlude; results are bit-identical across worker counts and
// with the materialised-tree oracle of the tests
// (TestCrossCheckEnginesBitIdentical pins this).
func Explore(ctx context.Context, src Source, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := sharedScratch.Get(scratchHint(src))
	defer sharedScratch.Put(sc)
	cfg := sampling.Config{Rate: opts.SampleRate, Seed: opts.SampleSeed}
	if opts.SampleRate != 0 {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if rr, ok := src.(trace.RefReader); ok {
			return exploreStreamSampled(ctx, rr, cfg, opts, sc)
		}
	}
	s, m, err := resolveSource(ctx, src, sc)
	if err != nil {
		return nil, err
	}
	r, err := runPostlude(ctx, s, m, opts, sc)
	if err != nil || opts.SampleRate == 0 {
		return r, err
	}
	r.Sample = exactEstimate(cfg, r)
	return r, nil
}

// runPostlude runs the serial or parallel postlude over the resolved
// (stripped, MRCT) pair, drawing working memory from sc. Both the exact
// and the stream-sampled path funnel through here, so worker selection
// and the postlude failpoint behave identically in both modes.
func runPostlude(ctx context.Context, s *trace.Stripped, m *MRCT, opts Options, sc *Scratch) (*Result, error) {
	if err := faultinject.Hit("core.postlude"); err != nil {
		return nil, err
	}
	if workers := opts.workerCount(); workers > 1 {
		return exploreParallel(ctx, s, m, opts, workers, sc)
	}
	return exploreDFS(ctx, s, m, opts, sc)
}

// ctxCheck amortises cancellation checks over hot loops: ctx.Err is
// consulted once every `every` calls to stop, and once tripped the error
// sticks.
type ctxCheck struct {
	ctx   context.Context
	every int
	n     int
	err   error
}

func (c *ctxCheck) stop() bool {
	if c.err != nil {
		return true
	}
	if c.n++; c.n >= c.every {
		c.n = 0
		c.err = c.ctx.Err()
	}
	return c.err != nil
}

// exploreDFS runs the postlude in its depth-first, linear-space form
// (§2.4): the BCAT is never materialised; the recursion carries only the
// current root-to-leaf path of row sets, accumulating every level's
// distance histogram on the way down. The DFS checks ctx every few row
// sets. All row sets and zero/one planes come from sc's freelist: only
// one (left, right) pair per level is ever live, so the whole walk reuses
// O(levels) pooled sets and allocates nothing once the scratch is warm.
func exploreDFS(ctx context.Context, s *trace.Stripped, m *MRCT, opts Options, sc *Scratch) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	levels, err := levelCount(s, opts)
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "postlude")
	r := newResult(s, m, levels)
	if s.NUnique() == 0 {
		finalize(r)
		endPostludeSpan(span, "dfs", r, nil, nil)
		return r, nil
	}
	sc.resetSets()
	zo := s.ZeroOneSetsAlloc(levels, sc.newSet)
	lefts, rights := sc.dfsPairs(levels + 1)

	root := sc.newSet(s.NUnique())
	for id := 0; id < s.NUnique(); id++ {
		root.Add(id)
	}
	// Per-level row counts and accumulated nanoseconds, maintained only
	// while a recorder is installed: the traced branch costs one
	// time.Now pair per row set, the untraced branch a single nil check.
	var lvlRows []int
	var lvlNS []int64
	if span != nil {
		lvlRows = make([]int, levels+1)
		lvlNS = make([]int64, levels+1)
	}
	chk := &ctxCheck{ctx: ctx, every: 64}
	var visit func(set *bitset.Set, level int)
	visit = func(set *bitset.Set, level int) {
		if chk.stop() {
			return
		}
		if span != nil {
			t0 := time.Now()
			accumulate(r.Levels[level], set, m)
			lvlNS[level] += time.Since(t0).Nanoseconds()
			lvlRows[level]++
		} else {
			accumulate(r.Levels[level], set, m)
		}
		if level >= levels || set.Count() < 2 {
			// A row with fewer than two references can never conflict at
			// this or any deeper depth (Algorithm 1's stop criterion).
			return
		}
		// One (left, right) pair per level serves the whole walk: when the
		// DFS returns to this level the previous children are dead, and
		// And overwrites every word, so no clearing is needed either.
		left, right := lefts[level], rights[level]
		if left == nil {
			left, right = sc.newSet(set.Cap()), sc.newSet(set.Cap())
			lefts[level], rights[level] = left, right
		}
		left.And(set, zo[level].Zero)
		right.And(set, zo[level].One)
		visit(left, level+1)
		visit(right, level+1)
	}
	visit(root, 0)
	if chk.err != nil {
		return nil, chk.err
	}
	finalize(r)
	endPostludeSpan(span, "dfs", r, lvlRows, lvlNS)
	return r, nil
}

// endPostludeSpan closes the postlude phase span: one aggregate child
// span per explored level carrying rows processed, occurrences folded
// (refs, the histogram mass) and — when per-level timing was collected —
// the accumulated duration and refs/sec. Level spans are aggregates: the
// DFS interleaves levels, so each child's duration is summed work, not a
// contiguous wall-clock interval.
func endPostludeSpan(span *obs.Span, algorithm string, r *Result, lvlRows []int, lvlNS []int64) {
	if span == nil {
		return
	}
	totalRows, totalRefs := 0, 0
	for i, l := range r.Levels {
		refs := 0
		for _, c := range l.Hist {
			refs += c
		}
		totalRefs += refs
		attrs := []obs.Attr{
			{Key: "depth", Value: l.Depth},
			{Key: "refs", Value: refs},
			{Key: "aggregate", Value: true},
		}
		var dur time.Duration
		if lvlRows != nil {
			totalRows += lvlRows[i]
			attrs = append(attrs, obs.Attr{Key: "rows", Value: lvlRows[i]})
		}
		if lvlNS != nil {
			dur = time.Duration(lvlNS[i])
			if secs := dur.Seconds(); secs > 0 {
				attrs = append(attrs, obs.Attr{Key: "refs_per_sec", Value: float64(refs) / secs})
			}
		}
		span.Child("level", span.Start(), dur, attrs...)
	}
	span.SetAttr("algorithm", algorithm)
	span.SetAttr("levels", len(r.Levels))
	span.SetAttr("refs", totalRefs)
	if lvlRows != nil {
		span.SetAttr("rows", totalRows)
	}
	span.End()
}

// newResult allocates a Result with one LevelResult per depth, every
// histogram pre-sized to the MRCT's maximum conflict-set cardinality:
// |S ∩ C| <= |C|, so no accumulate call can index past it and the
// grow-copy that used to sit in the inner loop is gone. finalize trims the
// unused tail so the emitted Result is bit-identical to the grown form.
func newResult(s *trace.Stripped, m *MRCT, levels int) *Result {
	r := &Result{NUnique: s.NUnique(), N: s.N()}
	r.Levels = make([]*LevelResult, levels+1)
	for i := range r.Levels {
		r.Levels[i] = newLevelResult(i, m)
	}
	return r
}

func newLevelResult(level int, m *MRCT) *LevelResult {
	return &LevelResult{Depth: 1 << uint(level), Hist: make([]int, m.maxCard+1)}
}

// accumulate folds one row set S into a level's histogram: for every
// non-cold occurrence of every reference in S, bump Hist[|S ∩ C|] by the
// occurrence's multiplicity.
func accumulate(lr *LevelResult, set *bitset.Set, m *MRCT) {
	accumulateRange(lr, set, m, 0, set.Cap())
}

// accumulateRange is accumulate restricted to the references in [lo, hi);
// the conflict sets still intersect with the whole row set, so summing
// disjoint ranges reproduces accumulate exactly. The intersection runs
// through the hybrid kernel: packed word-wise AND+popcount for dense
// conflict sets, the sparse element-probe kernel otherwise.
func accumulateRange(lr *LevelResult, set *bitset.Set, m *MRCT, lo, hi int) {
	accumulateRangeHist(lr.Hist, set, m, lo, hi)
}

// accumulateRangeHist is accumulateRange into a bare histogram slice (the
// parallel workers' private histograms live in a flat pooled buffer, not
// in LevelResults).
func accumulateRangeHist(hist []int, set *bitset.Set, m *MRCT, lo, hi int) {
	set.ForEachRange(lo, hi, func(e int) bool {
		for _, o := range m.occ[e] {
			var d int
			if p := m.packed[o.set]; p != nil {
				d = set.IntersectCount(p)
			} else {
				d = set.IntersectCountSparse(m.sets[o.set])
			}
			hist[d] += int(o.count)
		}
		return true
	})
}

// finalize trims the pre-sized histograms back to their last non-zero
// bucket (matching what incremental growth used to produce) and derives
// AZero for every level.
func finalize(r *Result) {
	for _, l := range r.Levels {
		h := l.Hist
		for len(h) > 0 && h[len(h)-1] == 0 {
			h = h[:len(h)-1]
		}
		if len(h) == 0 {
			h = nil
		}
		l.Hist = h
		l.AZero = 1
		for d := len(l.Hist) - 1; d >= 1; d-- {
			if l.Hist[d] != 0 {
				l.AZero = d + 1
				break
			}
		}
	}
}

func levelCount(s *trace.Stripped, opts Options) (int, error) {
	levels := s.AddrBits()
	if opts.MaxDepth != 0 {
		if opts.MaxDepth < 1 || opts.MaxDepth&(opts.MaxDepth-1) != 0 {
			return 0, fmt.Errorf("core: MaxDepth %d is not a power of two >= 1", opts.MaxDepth)
		}
		cap := 0
		for d := opts.MaxDepth; d > 1; d >>= 1 {
			cap++
		}
		if cap < levels {
			levels = cap
		}
	}
	return levels, nil
}
