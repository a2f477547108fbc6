package dse

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/cacti"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/report"
	"github.com/example/cachedse/internal/trace"
)

// Design-space evaluation: walk a declarative core.Space — per-level
// depth/associativity/line/policy/technology axes under a hierarchy
// topology — and emit the Pareto front over (misses, energy, area). Miss
// counts come from one-pass policy sweeps, one per (stream, line, depth,
// policy), each exact for every associativity at once; costs come from
// the cacti model. Every sweep of a (stream, line) reads the line's one
// strip, and at depth D only the references that miss a direct-mapped
// cache of D sets (onepass.MissLists): the rest hit every replica and
// change nothing. The only simulation is the L1 filter replay that
// derives the L2 reference stream, one run per retained L1 pair. On
// levels whose policy set includes LRU, a depth's LRU sweep runs first
// and its α-threshold and A_zero cuts prune the associativity axis before
// any non-LRU sweep of that depth, and core.Front.Stats records how much
// work they skipped. Each level stream is a levelStage on a goroutine of
// its own (pool.go): the L1I and L1D stages side by side, then the
// retained pairs' L2 stages side by side, with the front assembled in the
// order a serial walk would produce it.

// DefaultMissPenaltyPJ is the off-chip access energy charged per
// last-level miss when SpaceOptions leaves the penalty zero. It matches
// the repro harness's energy experiments.
const DefaultMissPenaltyPJ = 2000

// DefaultMaxL1Pairs caps the split-L1 pairs carried into the L2 stage.
const DefaultMaxL1Pairs = 6

// SpaceOptions tunes a design-space evaluation. The zero value is fully
// usable.
type SpaceOptions struct {
	// Params is the cost model calibration; the zero value means
	// cacti.DefaultParams(). Technology axes scale it per level.
	Params cacti.Params
	// MissPenaltyPJ is the off-chip energy per last-level miss; zero
	// means DefaultMissPenaltyPJ.
	MissPenaltyPJ float64
	// MaxL1Pairs caps how many Pareto-optimal split-L1 pairs seed the L2
	// stage of a split+l2 topology (each costs one filter replay of the
	// trace). Zero means DefaultMaxL1Pairs; negative keeps every pair on
	// the L1 pair front.
	MaxL1Pairs int
	// Exhaustive disables the A_zero, LRU-plateau and α-threshold cuts,
	// evaluating every candidate cell of every level grid. Every miss
	// count on a front is exact either way: each evaluated cell is
	// bit-equal to internal/cache simulation. The front is complete —
	// every Pareto-optimal cell of the space present — only when
	// Exhaustive is set: the α-threshold cut skips non-LRU cells within
	// core.DefaultAlphaEps of the LRU floor even when one of them would
	// be optimal. The
	// cuts apply only to levels whose policy set includes LRU; without an
	// LRU candidate nothing stands for the skipped cells. Exhaustive does
	// not lift the MaxL1Pairs cap: a split+l2 front is complete only when
	// MaxL1Pairs < 0 is set as well.
	Exhaustive bool
}

func (o SpaceOptions) normalized() SpaceOptions {
	if o.Params.AddressBits == 0 {
		o.Params = cacti.DefaultParams()
	}
	if o.MissPenaltyPJ == 0 {
		o.MissPenaltyPJ = DefaultMissPenaltyPJ
	}
	if o.MaxL1Pairs == 0 {
		o.MaxL1Pairs = DefaultMaxL1Pairs
	}
	return o
}

// levelCand is one miss-evaluated cell of a level's axis grid: a concrete
// (depth, assoc, line, policy) with its cold and non-cold miss counts on
// the level's reference stream.
type levelCand struct {
	depth, assoc, line int
	policy             core.Policy
	cold, nonCold      int
}

func (c levelCand) misses() int    { return c.cold + c.nonCold }
func (c levelCand) sizeWords() int { return c.depth * c.assoc * c.line }

// config renders the candidate as a simulator configuration.
func (c levelCand) config() cache.Config {
	return cache.Config{Depth: c.depth, Assoc: c.assoc, LineWords: c.line, Repl: ReplOf(c.policy)}
}

// ReplOf maps the space vocabulary onto the simulator's: the one
// core.Policy → cache.Replacement mapping, shared by the space evaluator
// and every simulate front end.
func ReplOf(p core.Policy) cache.Replacement {
	switch p {
	case core.PolicyFIFO:
		return cache.FIFO
	case core.PolicyRandom:
		return cache.Random
	case core.PolicyPLRU:
		return cache.PLRU
	default:
		return cache.LRU
	}
}

// onepassOf maps the space vocabulary onto the one-pass estimator's.
func onepassOf(p core.Policy) onepass.ReplPolicy {
	switch p {
	case core.PolicyFIFO:
		return onepass.ReplFIFO
	case core.PolicyRandom:
		return onepass.ReplRandom
	case core.PolicyPLRU:
		return onepass.ReplPLRU
	default:
		return onepass.ReplLRU
	}
}

// depthLevels returns the last level a strip is swept at: depths 1, 2,
// …, 2^levels, capped at maxDepth and at the strip's address width, past
// which no set splits further — the depths core.Explore profiles.
func depthLevels(strip *trace.Stripped, maxDepth int) int {
	return min(strip.AddrBits(), bits.Len(uint(maxDepth))-1)
}

// lruCaps reads the two associativity caps off an LRU sweep's misses by
// associativity: A_zero, the first associativity with no non-cold miss
// (the end of the swept axis if none), and the α-threshold at
// core.DefaultAlphaEps over the associativities up to it.
func lruCaps(missByAssoc []int) (capZero, capAlpha int) {
	capZero = slices.Index(missByAssoc[1:], 0) + 1
	if capZero == 0 {
		capZero = len(missByAssoc) - 1
	}
	return capZero, core.AlphaThresholdMisses(missByAssoc[:capZero+1], core.DefaultAlphaEps)
}

// stripLines strips stream at line words per line into dst, inside the
// same "strip" span core.Explore records for a trace it strips.
func stripLines(ctx context.Context, stream *trace.Trace, line int, dst *trace.Stripped) (*trace.Stripped, error) {
	_, span := obs.StartSpan(ctx, "strip")
	defer span.End()
	s, err := trace.StripLines(stream, line, dst)
	if err == nil && span != nil {
		span.SetAttr("n", s.N())
		span.SetAttr("n_unique", s.NUnique())
	}
	return s, err
}

// levelStage evaluates one level's axis grid on its reference stream.
// Every cell comes from a one-pass sweep: for each line size and policy,
// one sweep per depth (depthLevels) over the associativities
// 1..MaxAssoc. When LRU is in the level's policy set, its sweep at a
// depth bounds the associativity axis of every policy at that depth
// (A_zero: the LRU candidate already reaches zero non-cold misses at no
// greater cost, so anything past it is dominated for any policy;
// α-threshold: past it the level is within core.DefaultAlphaEps of its
// compulsory floor, so the non-LRU axis is cut there), and the non-LRU
// sweeps of the depth wait for it. Without an LRU candidate neither cut
// holds — FIFO is not a stack algorithm, and its misses keep falling past
// LRU's A_zero — so every policy sweeps to MaxAssoc. LRU itself
// contributes only its miss-count corners — plateau associativities add
// size for identical misses and are dominated. minLine drops line sizes
// below a floor (an L2 line must cover its L1 lines). stats tallies the
// cells skipped by each cut; o.Exhaustive disables all three cuts and
// evaluates the full grid.
//
// An L2 stage first makes its stream: the filter replay of the trace
// through its L1 pair. The stage takes its line sizes in turn, and each
// strips the stream once into the stage's slot; every sweep of that line
// reads the one strip. cands holds the stage's candidates, line by line
// in the order a serial walk produces them, once run has returned.
type levelStage struct {
	ls     core.LevelSpace
	o      SpaceOptions
	stats  core.PruneStats
	lines  []int // the line sizes at or above minLine
	hasLRU bool
	cut    bool
	src    *trace.Trace // L2: the trace filtered through pair
	pair   l1Pair
	stream *trace.Trace // the level's reference stream
	refs   int          // L2: the filtered stream's length
	cands  []levelCand
}

// policyRun is one policy's sweeps of a stage's line, one per depth, and
// the "sweep" span they record under, from the first sweep's start to the
// last one's end: the policy, line, number of depths, of (depth, assoc)
// cells swept and of references read. Its counts belong to the run's
// mutex.
type policyRun struct {
	policy            core.Policy
	out               []*onepass.AssocSweep // per depth level
	left, cells, refs int
	span              *obs.Span
}

// newLevelStage returns the stage evaluating ls on stream, its line sizes
// from minLine up.
func newLevelStage(stream *trace.Trace, ls core.LevelSpace, o SpaceOptions, minLine int) *levelStage {
	st := &levelStage{ls: ls, o: o, stream: stream}
	for _, line := range ls.LineWords {
		if line >= minLine {
			st.lines = append(st.lines, line)
		}
	}
	st.hasLRU = slices.Contains(ls.Policies, core.PolicyLRU)
	st.cut = st.hasLRU && !o.Exhaustive
	return st
}

// newL2Stage returns the stage evaluating the L2 space on t's stream
// through the L1 pair pr.
func newL2Stage(t *trace.Trace, pr l1Pair, ls core.LevelSpace, o SpaceOptions) *levelStage {
	st := newLevelStage(nil, ls, o, max(pr.i.line, pr.d.line))
	st.src, st.pair = t, pr
	return st
}

// run evaluates the stage in slot: an L2 stage's filter replay, then each
// line's strip and sweeps. It stops at the run's first failure. Under a
// recorder the replay records an "l2_filter" span with the references in
// and out.
func (st *levelStage) run(r *spaceRun, slot *stageSlot) {
	if st.src != nil {
		r.mu.Lock()
		live := r.live()
		r.mu.Unlock()
		if !live {
			return
		}
		_, span := obs.StartSpan(r.ctx, "l2_filter")
		f := &slot.filtered
		// Every L1 miss sends one refill to L2, so the stream holds at
		// least the pair's misses; only its writebacks can grow it.
		f.Refs = slices.Grow(f.Refs[:0], st.pair.i.misses()+st.pair.d.misses())
		err := filterSplitL1(st.src, st.pair.i.config(), st.pair.d.config(), f)
		if span != nil {
			span.SetAttr("refs_in", st.src.Len())
			span.SetAttr("refs_out", f.Len())
			span.End()
		}
		if err != nil {
			r.fail(err, nil)
			return
		}
		st.stream, st.refs = f, f.Len()
		defer func() { st.stream = nil }()
	}
	for _, line := range st.lines {
		if r.failed() {
			return
		}
		strip, err := stripLines(r.ctx, st.stream, line, &slot.strip)
		if err != nil {
			r.fail(err, nil)
			return
		}
		st.sweepLine(r, strip, &slot.lists)
	}
}

// sweepLine sweeps strip by every policy at every depth, one goroutine
// per depth, and collects the line's candidates. It first builds the
// strip's direct-mapped miss lists into lists, and every sweep at a
// depth reads that depth's list instead of the strip: a list that nests
// in the shallower ones, stored only when it halves the list it would
// otherwise read, so the lists hold fewer than N ids. Under the cuts a
// depth's goroutine runs its LRU sweep first and starts the depth's
// non-LRU sweeps, up to the α-threshold, once it has the caps;
// otherwise it starts every policy's sweep at once over the full axis.
// It collects nothing once the run has failed.
func (st *levelStage) sweepLine(r *spaceRun, strip *trace.Stripped, lists *onepass.MissLists) {
	n := depthLevels(strip, st.ls.MaxDepth) + 1
	lists.Build(strip, n-1)
	var runs []*policyRun // LRU's first, if present
	if st.hasLRU {
		runs = append(runs, &policyRun{policy: core.PolicyLRU})
	}
	for _, pol := range st.ls.Policies {
		if pol != core.PolicyLRU {
			runs = append(runs, &policyRun{policy: pol})
		}
	}
	for _, q := range runs {
		q.out, q.left = make([]*onepass.AssocSweep, n), n
	}
	capZero, capAlpha := make([]int, n), make([]int, n)
	var wg sync.WaitGroup
	for lvl := range n {
		capZero[lvl], capAlpha[lvl] = st.ls.MaxAssoc, st.ls.MaxAssoc
		r.spawn(&wg, func() {
			rest := runs
			if st.cut {
				lru := r.sweep(runs[0], strip, lists.At(lvl), lvl, st.ls.MaxAssoc)
				if lru == nil {
					return
				}
				capZero[lvl], capAlpha[lvl] = lruCaps(lru.MissByAssoc)
				rest = runs[1:]
			}
			for _, q := range rest {
				r.spawn(&wg, func() { r.sweep(q, strip, lists.At(lvl), lvl, capAlpha[lvl]) })
			}
		})
	}
	wg.Wait()
	if !r.failed() {
		st.collect(strip, runs, capZero, capAlpha)
	}
}

// collect appends the line's candidates and tallies its cells: LRU's
// corners depth by depth, then each other policy's cells depth by depth.
// capZero holds, per depth, every policy's associativity cap and
// capAlpha the non-LRU policies'.
func (st *levelStage) collect(strip *trace.Stripped, runs []*policyRun, capZero, capAlpha []int) {
	line, cold := strip.LineWords, strip.NUnique()
	if st.hasLRU {
		for lvl, sw := range runs[0].out {
			prev := -1
			for a, m := range sw.MissByAssoc[1 : capZero[lvl]+1] {
				if m == prev && !st.o.Exhaustive {
					st.stats.PrunedDominated++
					continue
				}
				prev = m
				st.stats.Evaluated++
				st.cands = append(st.cands, levelCand{
					depth: sw.Depth, assoc: a + 1, line: line,
					policy: core.PolicyLRU, cold: cold, nonCold: m,
				})
			}
		}
		runs = runs[1:]
	}
	for _, r := range runs {
		for _, sw := range r.out {
			for a, m := range sw.MissByAssoc[1:] {
				st.cands = append(st.cands, levelCand{
					depth: sw.Depth, assoc: a + 1, line: line,
					policy: r.policy, cold: cold, nonCold: m,
				})
			}
		}
	}
	for lvl := range capZero {
		for _, p := range st.ls.Policies {
			st.stats.Candidates += st.ls.MaxAssoc
			st.stats.PrunedDominated += st.ls.MaxAssoc - capZero[lvl]
			if p != core.PolicyLRU {
				st.stats.PrunedThreshold += capZero[lvl] - capAlpha[lvl]
				st.stats.Evaluated += capAlpha[lvl]
			}
		}
	}
}

// levelCost prices one level: the cacti estimate under the candidate's
// technology and its dynamic energy for the given traffic. The energy
// charges reads and refills only: every access, a store included, pays
// ReadPJ, every miss pays the refill, and no dirty writeback is charged.
// nvm-hybrid, whose writes cost more than its reads, is therefore
// under-priced (DESIGN.md §14).
func levelCost(c levelCand, tech core.Technology, accesses int, base cacti.Params) (area, energy float64, err error) {
	p, err := base.ForTechnology(tech.String())
	if err != nil {
		return 0, 0, err
	}
	est, err := cacti.Model(c.config(), p)
	if err != nil {
		return 0, 0, err
	}
	return est.AreaUM2, cacti.AccessEnergy(est, accesses, c.misses(), 0, 0), nil
}

// levelConfig renders the candidate as a wire/CLI LevelConfig.
func levelConfig(slot string, c levelCand, tech core.Technology) core.LevelConfig {
	return core.LevelConfig{
		Level: slot, Depth: c.depth, Assoc: c.assoc, LineWords: c.line,
		Policy: c.policy, Technology: tech,
	}
}

// pricedLevel is one level of the points addPoints prices: its slot
// name, candidate and technology axis, and the accesses it sees.
type pricedLevel struct {
	slot     string
	c        levelCand
	techs    []core.Technology
	accesses int
}

// addPoints adds to front one point per technology choice of the levels,
// the first level's axis outermost, each with the given misses to memory.
// A point's energy and area sum its levels' in level order, then the
// energy adds the miss penalty.
func addPoints(front *core.Front, o SpaceOptions, misses int, levels ...pricedLevel) error {
	var configs [3]core.LevelConfig
	return addPointsAfter(front, o, misses, levels, configs[:0], 0, 0)
}

// addPointsAfter is addPoints past the technology choices already in
// configs, whose energies and areas sum to energy and area.
func addPointsAfter(front *core.Front, o SpaceOptions, misses int, levels []pricedLevel, configs []core.LevelConfig, energy, area float64) error {
	k := len(configs)
	if k == len(levels) {
		front.Add(core.Point{
			Levels:   slices.Clone(configs),
			Misses:   misses,
			EnergyPJ: energy + float64(misses)*o.MissPenaltyPJ,
			AreaUM2:  area,
		})
		return nil
	}
	l := levels[k]
	for _, tech := range l.techs {
		a, e, err := levelCost(l.c, tech, l.accesses, o.Params)
		if err != nil {
			return err
		}
		if err := addPointsAfter(front, o, misses, levels, append(configs, levelConfig(l.slot, l.c, tech)), energy+e, area+a); err != nil {
			return err
		}
	}
	return nil
}

// ExploreSpace evaluates a design space over the trace and returns its
// Pareto front over (misses to memory, energy, area). The front is
// deterministic — bit-stable across runs and GOMAXPROCS — and
// Front.Stats carries the pruning tally of every level stage. Every
// stage runs on a goroutine of its own under the call's memory limits
// (spaceRun).
func ExploreSpace(ctx context.Context, t *trace.Trace, space core.Space, o SpaceOptions) (*core.Front, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	space = space.Normalized()
	o = o.normalized()
	front := &core.Front{}
	r := newSpaceRun(ctx)
	switch space.Topology {
	case core.TopoUnified:
		st := newLevelStage(t, space.L1, o, 1)
		if err := r.run(&front.Stats, st); err != nil {
			return nil, err
		}
		for _, c := range st.cands {
			if err := addPoints(front, o, c.misses(), pricedLevel{"L1", c, space.L1.Technologies, t.Len()}); err != nil {
				return nil, err
			}
		}
	case core.TopoSplit, core.TopoSplitL2:
		if err := exploreSplit(r, t, space, o, front); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("dse: unknown topology %d", space.Topology)
	}
	front.Points()
	return front, nil
}

// l1Pair is one split-L1 combination retained for the L2 stage.
type l1Pair struct {
	i, d levelCand
}

// exploreSplit handles the two split topologies: candidate L1I and L1D
// grids are evaluated side by side on the split streams, paired, and —
// under split+l2 — the Pareto-optimal pairs seed a second-level
// exploration of the filtered stream each pair produces, all pairs side
// by side.
func exploreSplit(r *spaceRun, t *trace.Trace, space core.Space, o SpaceOptions, front *core.Front) error {
	instr, data := t.Split()
	stI := newLevelStage(instr, space.L1, o, 1)
	stD := newLevelStage(data, space.L1, o, 1)
	if err := r.run(&front.Stats, stI, stD); err != nil {
		return err
	}
	candsI, candsD := stI.cands, stD.cands
	levels := []pricedLevel{
		{slot: "L1I", techs: space.L1.Technologies, accesses: instr.Len()},
		{slot: "L1D", techs: space.L1.Technologies, accesses: data.Len()},
		{slot: "L2", techs: space.L2.Technologies},
	}

	if space.Topology == core.TopoSplit {
		for _, ci := range candsI {
			for _, cd := range candsD {
				levels[0].c, levels[1].c = ci, cd
				if err := addPoints(front, o, ci.misses()+cd.misses(), levels[:2]...); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// split+l2: the L2 input stream depends on the L1 pair, and each pair
	// costs a filter replay of the trace — so only the (misses, size)
	// Pareto front of pairs goes forward, subsampled to MaxL1Pairs evenly
	// along the miss axis so both the small-and-missy and the
	// big-and-clean ends stay represented. Under a recorder the choice
	// records an "l1_pairs" span with the pairs on the front and the pairs
	// kept.
	_, span := obs.StartSpan(r.ctx, "l1_pairs")
	pairs := paretoPairs(candsI, candsD)
	onFront := len(pairs)
	if o.MaxL1Pairs > 0 && len(pairs) > o.MaxL1Pairs {
		pairs = subsamplePairs(pairs, o.MaxL1Pairs)
	}
	if span != nil {
		span.SetAttr("pairs", onFront)
		span.SetAttr("kept", len(pairs))
		span.End()
	}
	stages := make([]*levelStage, len(pairs))
	for k, pr := range pairs {
		stages[k] = newL2Stage(t, pr, space.L2, o)
	}
	// The pairs come in rising L1 misses, so the stages start from the
	// longest L2 stream down: a slot's filtered stream then grows at its
	// first stage and is reused by the shorter ones after it.
	longestFirst := slices.Clone(stages)
	slices.Reverse(longestFirst)
	if err := r.run(&front.Stats, longestFirst...); err != nil {
		return err
	}
	for k, pr := range pairs {
		levels[0].c, levels[1].c, levels[2].accesses = pr.i, pr.d, stages[k].refs
		for _, c2 := range stages[k].cands {
			levels[2].c = c2
			if err := addPoints(front, o, c2.misses(), levels...); err != nil {
				return err
			}
		}
	}
	return nil
}

// paretoPairs crosses the two candidate lists and keeps the pairs on the
// (combined misses, combined size) Pareto front, sorted by misses then
// size then key, a pair's key being its two config strings joined by
// "/". Ties on both objectives keep the lexically smallest key. Each
// candidate's config string is rendered and ranked once, and the pairs
// compare the (L1I, L1D) ranks in turn: that orders them as their joined
// keys do, because no config string is a proper prefix of another (each
// ends in its write policy).
func paretoPairs(candsI, candsD []levelCand) []l1Pair {
	rankI, rankD := keyRanks(candsI), keyRanks(candsD)
	type ranked struct {
		i, d         int // indices into candsI, candsD
		misses, size int
	}
	all := make([]ranked, 0, len(candsI)*len(candsD))
	for i, ci := range candsI {
		for d, cd := range candsD {
			all = append(all, ranked{i, d, ci.misses() + cd.misses(), ci.sizeWords() + cd.sizeWords()})
		}
	}
	slices.SortFunc(all, func(a, b ranked) int {
		switch {
		case a.misses != b.misses:
			return cmp.Compare(a.misses, b.misses)
		case a.size != b.size:
			return cmp.Compare(a.size, b.size)
		case rankI[a.i] != rankI[b.i]:
			return cmp.Compare(rankI[a.i], rankI[b.i])
		}
		return cmp.Compare(rankD[a.d], rankD[b.d])
	})
	var out []l1Pair
	bestSize := -1
	for _, p := range all {
		if bestSize >= 0 && p.size >= bestSize {
			continue
		}
		out = append(out, l1Pair{i: candsI[p.i], d: candsD[p.d]})
		bestSize = p.size
	}
	return out
}

// keyRanks renders each candidate's simulator configuration once and
// ranks it among the list's: ranks order as the strings do, and equal
// strings (candidates differing only in line size) share a rank.
func keyRanks(cands []levelCand) []int {
	keys := make([]string, len(cands))
	order := make([]int, len(cands))
	for i, c := range cands {
		keys[i] = c.config().String()
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })
	rank := make([]int, len(cands))
	for k, i := range order {
		if k > 0 {
			rank[i] = rank[order[k-1]]
			if keys[i] != keys[order[k-1]] {
				rank[i]++
			}
		}
	}
	return rank
}

// subsamplePairs keeps n pairs evenly spaced along the sorted front,
// always including both endpoints.
func subsamplePairs(pairs []l1Pair, n int) []l1Pair {
	if n < 2 {
		return pairs[:1]
	}
	out := make([]l1Pair, 0, n)
	last := len(pairs) - 1
	for k := 0; k < n; k++ {
		idx := k * last / (n - 1)
		if len(out) > 0 && out[len(out)-1] == pairs[idx] {
			continue
		}
		out = append(out, pairs[idx])
	}
	return out
}

// FrontTable renders a Pareto front as the canonical table shared by the
// CLI and the HTTP service: one row per point, sorted by the front's
// deterministic order, with the pruning tally in the title.
func FrontTable(f *core.Front) *report.Table {
	tab := &report.Table{
		Title: fmt.Sprintf("Pareto front: %d points (%d/%d candidates evaluated, %d pruned)",
			f.Len(), f.Stats.Evaluated, f.Stats.Candidates, f.Stats.Pruned()),
		Headers: []string{"Config", "Misses", "Energy (pJ)", "Area (um^2)"},
	}
	for _, p := range f.Points() {
		tab.AddRow(p.Key(), p.Misses, fmt.Sprintf("%.1f", p.EnergyPJ), fmt.Sprintf("%.0f", p.AreaUM2))
	}
	return tab
}
