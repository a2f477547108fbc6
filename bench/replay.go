package main

import (
	"context"
	"sort"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/trace"
)

// dse.ExploreSpace records no spans of its own, so a traced space-default
// pass replays the calls it makes into the layers below it — the LRU
// exploration per level stream, one policy sweep per surviving (depth,
// policy), one L1 filter replay per retained L1 pair — each in a span.
// The replay follows ExploreSpace's cuts and pair selection for the
// split+l2 topology of core.DefaultSpace; it must reproduce the front's
// prune tally exactly, which the caller checks, so a replay that drifts
// from the evaluator fails the run instead of mis-attributing time.

type replayCand struct {
	depth, assoc, line int
	policy             core.Policy
	misses             int // cold + non-cold
}

func (c replayCand) sizeWords() int { return c.depth * c.assoc * c.line }

func (c replayCand) config() cache.Config {
	repl := map[core.Policy]cache.Replacement{
		core.PolicyLRU: cache.LRU, core.PolicyFIFO: cache.FIFO,
		core.PolicyRandom: cache.Random, core.PolicyPLRU: cache.PLRU,
	}[c.policy]
	return cache.Config{Depth: c.depth, Assoc: c.assoc, LineWords: c.line, Repl: repl}
}

var sweepPolicy = map[core.Policy]onepass.ReplPolicy{
	core.PolicyFIFO: onepass.ReplFIFO, core.PolicyRandom: onepass.ReplRandom, core.PolicyPLRU: onepass.ReplPLRU,
}

// replaySpace replays ExploreSpace(t, core.DefaultSpace()) and returns
// the prune tally of the replay.
func replaySpace(ctx context.Context, sp *spans, t *trace.Trace) (core.PruneStats, error) {
	space := core.DefaultSpace().Normalized()
	var st core.PruneStats
	var instr, data *trace.Trace
	sp.layer("trace.split", func() error { instr, data = t.Split(); return nil })
	candsI, err := replayLevel(ctx, sp, instr, space.L1, 1, &st)
	if err != nil {
		return st, err
	}
	candsD, err := replayLevel(ctx, sp, data, space.L1, 1, &st)
	if err != nil {
		return st, err
	}
	var pairs [][2]replayCand
	sp.layer("dse.l1_pairs", func() error {
		pairs = replayPairs(candsI, candsD)
		if len(pairs) > dse.DefaultMaxL1Pairs {
			pairs = subsample(pairs, dse.DefaultMaxL1Pairs)
		}
		return nil
	})
	for _, pr := range pairs {
		var filtered *trace.Trace
		if _, err := sp.layer("dse.l2_filter", func() (err error) {
			filtered, err = dse.FilterThroughSplitL1(t, pr[0].config(), pr[1].config())
			return err
		}); err != nil {
			return st, err
		}
		if _, err := replayLevel(ctx, sp, filtered, space.L2, max(pr[0].line, pr[1].line), &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// replayLevel evaluates one level's grid the way ExploreSpace does: the
// LRU profile per line size, the A_zero and α-threshold caps per depth,
// and a sweep per non-LRU policy up to the α cap.
func replayLevel(ctx context.Context, sp *spans, stream *trace.Trace, ls core.LevelSpace, minLine int, st *core.PruneStats) ([]replayCand, error) {
	var out []replayCand
	for _, line := range ls.LineWords {
		if line < minLine {
			continue
		}
		var lrs []core.LineResult
		if _, err := sp.layer("dse.lru_explore", func() (err error) {
			lrs, err = core.LineSizes(ctx, stream, core.Options{MaxDepth: ls.MaxDepth}, []int{line})
			return err
		}); err != nil {
			return nil, err
		}
		lr := lrs[0]
		for _, l := range lr.Result.Levels {
			capZero := min(ls.MaxAssoc, l.AZero)
			capAlpha := min(core.AlphaThreshold(l, ls.MaxAssoc, core.DefaultAlphaEps), capZero)
			for _, p := range ls.Policies {
				st.Candidates += ls.MaxAssoc
				st.PrunedDominated += ls.MaxAssoc - capZero
				if p == core.PolicyLRU {
					prev := -1
					for a := 1; a <= capZero; a++ {
						m := l.Misses(a)
						if m == prev {
							st.PrunedDominated++
							continue
						}
						prev = m
						st.Evaluated++
						out = append(out, replayCand{l.Depth, a, line, p, lr.Cold + m})
					}
					continue
				}
				st.PrunedThreshold += capZero - capAlpha
				st.Evaluated += capAlpha
				var sw *onepass.AssocSweep
				if _, err := sp.layer("onepass.sweep_"+p.String(), func() (err error) {
					sw, err = onepass.PolicySweep(stream, l.Depth, capAlpha, line, sweepPolicy[p])
					return err
				}); err != nil {
					return nil, err
				}
				for a := 1; a <= capAlpha; a++ {
					out = append(out, replayCand{l.Depth, a, line, p, lr.Cold + sw.MissByAssoc[a]})
				}
			}
		}
	}
	return out, nil
}

// replayPairs keeps the split-L1 pairs on the (misses, size) Pareto
// front, in ExploreSpace's order.
func replayPairs(candsI, candsD []replayCand) [][2]replayCand {
	key := func(p [2]replayCand) string { return p[0].config().String() + "/" + p[1].config().String() }
	misses := func(p [2]replayCand) int { return p[0].misses + p[1].misses }
	size := func(p [2]replayCand) int { return p[0].sizeWords() + p[1].sizeWords() }
	all := make([][2]replayCand, 0, len(candsI)*len(candsD))
	for _, ci := range candsI {
		for _, cd := range candsD {
			all = append(all, [2]replayCand{ci, cd})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if misses(all[i]) != misses(all[j]) {
			return misses(all[i]) < misses(all[j])
		}
		if size(all[i]) != size(all[j]) {
			return size(all[i]) < size(all[j])
		}
		return key(all[i]) < key(all[j])
	})
	var out [][2]replayCand
	best := -1
	for _, p := range all {
		if best >= 0 && size(p) >= best {
			continue
		}
		out = append(out, p)
		best = size(p)
	}
	return out
}

// subsample keeps n pairs evenly spaced along the front, both ends
// included.
func subsample(pairs [][2]replayCand, n int) [][2]replayCand {
	out := make([][2]replayCand, 0, n)
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
