package dse

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/cacti"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/faultinject"
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
// the cacti model. The only simulation is the L1 filter replay that
// derives the L2 reference stream, one run per retained L1 pair. On
// levels whose policy set includes LRU, the LRU sweep runs first and its
// α-threshold and A_zero cuts prune the associativity axis before any
// non-LRU sweep, and core.Front.Stats records how much work they skipped.

// DefaultMissPenaltyPJ is the off-chip access energy charged per
// last-level miss when SpaceOptions leaves the penalty zero. It matches
// the repro harness's energy experiments.
const DefaultMissPenaltyPJ = 2000

// DefaultMaxL1Pairs caps the split-L1 pairs carried into the L2 stage.
const DefaultMaxL1Pairs = 6

// SpaceOptions tunes a design-space evaluation. The zero value is fully
// usable.
type SpaceOptions struct {
	// Eps is the α-threshold slack (core.AlphaThreshold); zero means
	// core.DefaultAlphaEps.
	Eps float64
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
	// eps of the LRU floor even when one of them would be optimal. The
	// cuts apply only to levels whose policy set includes LRU; without an
	// LRU candidate nothing stands for the skipped cells. Exhaustive does
	// not lift the MaxL1Pairs cap: a split+l2 front is complete only when
	// MaxL1Pairs < 0 is set as well.
	Exhaustive bool
}

func (o SpaceOptions) normalized() SpaceOptions {
	if o.Eps == 0 {
		o.Eps = core.DefaultAlphaEps
	}
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

// MaxSweepWays bounds, in int32 words, the tables a space exploration's
// policy sweeps hold. The server rejects a level whose largest sweep,
// max_depth·A(A+1)/2 replica ways for max_assoc A, would pass it, and a
// sweep runs on more than one worker only while the ways and residency
// tables of all the exploration's sweepers together stay within it.
const MaxSweepWays = 1 << 24

// spaceScratch is the working memory one ExploreSpace call reuses across
// its level streams and line sizes: the strip of the current (stream,
// line) and one policy sweeper per sweep worker. ways and residency are
// the largest ways and residency tables, in int32 words, any sweep of the
// call has asked a sweeper for, so no sweeper holds more than their sum.
type spaceScratch struct {
	strip           trace.Stripped
	sweepers        []*onepass.PolicySweeper
	ways, residency int
}

// stripLines strips stream at line words per line into sc.strip, inside
// the same "strip" span core.Explore records for a trace it strips.
func (sc *spaceScratch) stripLines(ctx context.Context, stream *trace.Trace, line int) (*trace.Stripped, error) {
	_, span := obs.StartSpan(ctx, "strip")
	defer span.End()
	s, err := trace.StripLines(stream, line, &sc.strip)
	if err == nil && span != nil {
		span.SetAttr("n", s.N())
		span.SetAttr("n_unique", s.NUnique())
	}
	return s, err
}

// workers returns the sweepers for the sweeps of strip at the depths 2^lvl
// over associativities 1..axis[lvl]: min(GOMAXPROCS, depths) of them, but
// only as many as MaxSweepWays holds at the largest tables the call has
// needed (a residency table of (N′+1)·a words, a ways table of
// depth·a(a+1)/2), and at least one. Sweepers past that count are
// dropped, so whenever there are two or more they hold at most
// MaxSweepWays words of those tables together; a lone sweeper holds what
// the serial sweep would.
func (sc *spaceScratch) workers(strip *trace.Stripped, axis []int) []*onepass.PolicySweeper {
	sc.residency = max(sc.residency, (strip.NUnique()+1)*slices.Max(axis))
	for lvl, a := range axis {
		sc.ways = max(sc.ways, (1<<lvl)*a*(a+1)/2)
	}
	fit := max(1, MaxSweepWays/(sc.ways+sc.residency))
	if len(sc.sweepers) > fit {
		clear(sc.sweepers[fit:])
		sc.sweepers = sc.sweepers[:fit]
	}
	n := min(runtime.GOMAXPROCS(0), len(axis), fit)
	for len(sc.sweepers) < n {
		sc.sweepers = append(sc.sweepers, new(onepass.PolicySweeper))
	}
	return sc.sweepers[:n]
}

// sweep runs policy p's one-pass sweeps of strip at the depths 1, 2, 4,
// …, the sweep of depth 2^lvl over associativities 1..axis[lvl]. The
// sweeps read the strip and nothing else, so they run on the workers
// sc.workers grants, each with its own sweeper, and each writes its
// result to its depth's slot: the answer does not depend on the worker
// count. The calling goroutine feeds the depths in order over an
// unbuffered channel and checks ctx once before each, so a cancellation
// stops the feed at the next check; workers never read ctx. A sweep that
// panics (or the dse.sweep failpoint) is re-raised on the calling
// goroutine once every worker is done, as if the sweep had run there.
// Under a recorder it records one "sweep" span with the number of depths
// and of (depth, assoc) cells swept.
func (sc *spaceScratch) sweep(ctx context.Context, strip *trace.Stripped, p core.Policy, axis []int) ([]*onepass.AssocSweep, error) {
	_, span := obs.StartSpan(ctx, "sweep")
	defer span.End()
	out := make([]*onepass.AssocSweep, len(axis))
	errs := make([]error, len(axis))
	panics := make([]any, len(axis))
	run := func(sw *onepass.PolicySweeper, lvl int) {
		defer func() { panics[lvl] = recover() }()
		if errs[lvl] = faultinject.Hit("dse.sweep"); errs[lvl] == nil {
			out[lvl], errs[lvl] = sw.SweepLines(strip, 1<<lvl, axis[lvl], onepassOf(p))
		}
	}
	levels := make(chan int)
	var wg sync.WaitGroup
	for _, sw := range sc.workers(strip, axis) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lvl := range levels {
				run(sw, lvl)
			}
		}()
	}
	var err error
	for lvl := range axis {
		if err = ctx.Err(); err != nil {
			break
		}
		levels <- lvl
	}
	close(levels)
	wg.Wait()
	for _, pv := range panics {
		if pv != nil {
			panic(pv)
		}
	}
	if err != nil {
		return nil, err
	}
	cells := 0
	for lvl, a := range axis {
		if errs[lvl] != nil {
			return nil, errs[lvl]
		}
		cells += a
	}
	if span != nil {
		span.SetAttr("policy", p.String())
		span.SetAttr("line", strip.LineWords)
		span.SetAttr("depths", len(axis))
		span.SetAttr("cells", cells)
	}
	return out, nil
}

// depthLevels returns the last level a strip is swept at: depths 1, 2,
// …, 2^levels, capped at maxDepth and at the strip's address width, past
// which no set splits further — the depths core.Explore profiles.
func depthLevels(strip *trace.Stripped, maxDepth int) int {
	return min(strip.AddrBits(), bits.Len(uint(maxDepth))-1)
}

// lruCaps reads the two associativity caps off an LRU sweep's misses by
// associativity: A_zero, the first associativity with no non-cold miss
// (the end of the swept axis if none), and the α-threshold over the
// associativities up to it.
func lruCaps(missByAssoc []int, eps float64) (capZero, capAlpha int) {
	capZero = slices.Index(missByAssoc[1:], 0) + 1
	if capZero == 0 {
		capZero = len(missByAssoc) - 1
	}
	return capZero, core.AlphaThresholdMisses(missByAssoc[:capZero+1], eps)
}

// levelCandidates evaluates one level's axis grid on its reference
// stream. Every cell comes from a one-pass sweep: for each line size and
// policy, one sweep per depth (depthLevels) over the associativities
// 1..MaxAssoc. When LRU is in the level's policy set, its sweep runs
// first and bounds the associativity axis of every policy at that depth
// (A_zero: the LRU candidate already reaches zero non-cold misses at no
// greater cost, so anything past it is dominated for any policy;
// α-threshold: past it the level is within eps of its compulsory floor,
// so the non-LRU axis is cut there). Without an LRU candidate neither
// cut holds — FIFO is not a stack algorithm, and its misses keep falling
// past LRU's A_zero — so every policy sweeps to MaxAssoc. LRU itself
// contributes only its miss-count corners — plateau associativities add
// size for identical misses and are dominated. minLine drops line sizes
// below a floor (an L2 line must cover its L1 lines). stats tallies the
// cells skipped by each cut; o.Exhaustive disables all three cuts and
// evaluates the full grid. Each line size strips the stream once, into
// sc.strip, and every sweep of that line reads the one strip.
func levelCandidates(ctx context.Context, stream *trace.Trace, ls core.LevelSpace, o SpaceOptions, minLine int, stats *core.PruneStats, sc *spaceScratch) ([]levelCand, error) {
	hasLRU := slices.Contains(ls.Policies, core.PolicyLRU)
	cut := !o.Exhaustive && hasLRU
	var out []levelCand
	for _, line := range ls.LineWords {
		if line < minLine {
			continue
		}
		strip, err := sc.stripLines(ctx, stream, line)
		if err != nil {
			return nil, err
		}
		cold := strip.NUnique()
		// axis[lvl] is depth 2^lvl's full associativity axis. capZero[lvl]
		// and capAlpha[lvl] bound it, every policy's at A_zero and the
		// non-LRU policies' at the α-threshold; without the cuts they are
		// the full axis.
		axis := make([]int, depthLevels(strip, ls.MaxDepth)+1)
		for lvl := range axis {
			axis[lvl] = ls.MaxAssoc
		}
		capZero, capAlpha := axis, axis
		if hasLRU {
			lru, err := sc.sweep(ctx, strip, core.PolicyLRU, axis)
			if err != nil {
				return nil, err
			}
			if cut {
				capZero, capAlpha = make([]int, len(axis)), make([]int, len(axis))
				for lvl, sw := range lru {
					capZero[lvl], capAlpha[lvl] = lruCaps(sw.MissByAssoc, o.Eps)
				}
			}
			for lvl, sw := range lru {
				prev := -1
				for a, m := range sw.MissByAssoc[1 : capZero[lvl]+1] {
					if m == prev && !o.Exhaustive {
						stats.PrunedDominated++
						continue
					}
					prev = m
					stats.Evaluated++
					out = append(out, levelCand{
						depth: sw.Depth, assoc: a + 1, line: line,
						policy: core.PolicyLRU, cold: cold, nonCold: m,
					})
				}
			}
		}
		for _, p := range ls.Policies {
			if p == core.PolicyLRU {
				continue
			}
			sweeps, err := sc.sweep(ctx, strip, p, capAlpha)
			if err != nil {
				return nil, err
			}
			for _, sw := range sweeps {
				for a, m := range sw.MissByAssoc[1:] {
					out = append(out, levelCand{
						depth: sw.Depth, assoc: a + 1, line: line,
						policy: p, cold: cold, nonCold: m,
					})
				}
			}
		}
		for lvl := range axis {
			for _, p := range ls.Policies {
				stats.Candidates += ls.MaxAssoc
				stats.PrunedDominated += ls.MaxAssoc - capZero[lvl]
				if p != core.PolicyLRU {
					stats.PrunedThreshold += capZero[lvl] - capAlpha[lvl]
					stats.Evaluated += capAlpha[lvl]
				}
			}
		}
	}
	return out, nil
}

// levelCost prices one level: the cacti estimate under the candidate's
// technology and its dynamic energy for the given traffic (reads pay
// ReadPJ, every miss pays the refill; writeback traffic is not modelled,
// matching EnergyAware).
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

// ExploreSpace evaluates a design space over the trace and returns its
// Pareto front over (misses to memory, energy, area). The front is
// deterministic — bit-stable across runs and GOMAXPROCS — and
// Front.Stats carries the pruning tally of every level stage.
func ExploreSpace(ctx context.Context, t *trace.Trace, space core.Space, o SpaceOptions) (*core.Front, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	space = space.Normalized()
	o = o.normalized()
	front := &core.Front{}
	sc := &spaceScratch{}
	switch space.Topology {
	case core.TopoUnified:
		cands, err := levelCandidates(ctx, t, space.L1, o, 1, &front.Stats, sc)
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			for _, tech := range space.L1.Technologies {
				area, energy, err := levelCost(c, tech, t.Len(), o.Params)
				if err != nil {
					return nil, err
				}
				front.Add(core.Point{
					Levels:   []core.LevelConfig{levelConfig("L1", c, tech)},
					Misses:   c.misses(),
					EnergyPJ: energy + float64(c.misses())*o.MissPenaltyPJ,
					AreaUM2:  area,
				})
			}
		}
	case core.TopoSplit, core.TopoSplitL2:
		if err := exploreSplit(ctx, t, space, o, front, sc); err != nil {
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
// grids are evaluated independently on the split streams, paired, and —
// under split+l2 — the Pareto-optimal pairs seed a second-level
// exploration of the filtered stream each pair produces.
func exploreSplit(ctx context.Context, t *trace.Trace, space core.Space, o SpaceOptions, front *core.Front, sc *spaceScratch) error {
	instr, data := t.Split()
	candsI, err := levelCandidates(ctx, instr, space.L1, o, 1, &front.Stats, sc)
	if err != nil {
		return err
	}
	candsD, err := levelCandidates(ctx, data, space.L1, o, 1, &front.Stats, sc)
	if err != nil {
		return err
	}

	if space.Topology == core.TopoSplit {
		for _, ci := range candsI {
			for _, cd := range candsD {
				misses := ci.misses() + cd.misses()
				for _, techI := range space.L1.Technologies {
					areaI, energyI, err := levelCost(ci, techI, instr.Len(), o.Params)
					if err != nil {
						return err
					}
					for _, techD := range space.L1.Technologies {
						areaD, energyD, err := levelCost(cd, techD, data.Len(), o.Params)
						if err != nil {
							return err
						}
						front.Add(core.Point{
							Levels: []core.LevelConfig{
								levelConfig("L1I", ci, techI),
								levelConfig("L1D", cd, techD),
							},
							Misses:   misses,
							EnergyPJ: energyI + energyD + float64(misses)*o.MissPenaltyPJ,
							AreaUM2:  areaI + areaD,
						})
					}
				}
			}
		}
		return nil
	}

	// split+l2: the L2 input stream depends on the L1 pair, and each pair
	// costs a filter replay of the trace — so only the (misses, size)
	// Pareto front of pairs goes forward, subsampled to MaxL1Pairs evenly
	// along the miss axis so both the small-and-missy and the
	// big-and-clean ends stay represented.
	pairs := paretoPairs(candsI, candsD)
	if o.MaxL1Pairs > 0 && len(pairs) > o.MaxL1Pairs {
		pairs = subsamplePairs(pairs, o.MaxL1Pairs)
	}
	for _, pr := range pairs {
		if err := ctx.Err(); err != nil {
			return err
		}
		filtered, err := FilterThroughSplitL1(t, pr.i.config(), pr.d.config())
		if err != nil {
			return err
		}
		minLine := pr.i.line
		if pr.d.line > minLine {
			minLine = pr.d.line
		}
		candsL2, err := levelCandidates(ctx, filtered, space.L2, o, minLine, &front.Stats, sc)
		if err != nil {
			return err
		}
		for _, c2 := range candsL2 {
			misses := c2.misses()
			for _, techI := range space.L1.Technologies {
				areaI, energyI, err := levelCost(pr.i, techI, instr.Len(), o.Params)
				if err != nil {
					return err
				}
				for _, techD := range space.L1.Technologies {
					areaD, energyD, err := levelCost(pr.d, techD, data.Len(), o.Params)
					if err != nil {
						return err
					}
					for _, tech2 := range space.L2.Technologies {
						area2, energy2, err := levelCost(c2, tech2, filtered.Len(), o.Params)
						if err != nil {
							return err
						}
						front.Add(core.Point{
							Levels: []core.LevelConfig{
								levelConfig("L1I", pr.i, techI),
								levelConfig("L1D", pr.d, techD),
								levelConfig("L2", c2, tech2),
							},
							Misses:   misses,
							EnergyPJ: energyI + energyD + energy2 + float64(misses)*o.MissPenaltyPJ,
							AreaUM2:  areaI + areaD + area2,
						})
					}
				}
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
