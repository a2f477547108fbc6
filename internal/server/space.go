package server

import (
	"context"
	"fmt"
	"math"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/pkg/client"
)

// This file is the wire layer of the design-space API: the "space" block
// a POST /v1/explore request may carry (client.Space), its translation
// into a core.Space, and the "pareto" result rendering. Space failures map to
// two stable codes — invalid_policy for an unknown replacement policy
// name, invalid_space for every other shape problem (topology,
// technology, geometry) — locked by the golden-file compatibility tests.

// parseLevelSpace translates one level block.
func parseLevelSpace(in *client.SpaceLevel, name string) (ls core.LevelSpace, _ *apiError) {
	if in == nil {
		return ls, nil
	}
	ls.MaxDepth = in.MaxDepth
	ls.MaxAssoc = in.MaxAssoc
	ls.LineWords = in.LineWords
	for _, s := range in.Policies {
		p, err := core.ParsePolicy(s)
		if err != nil {
			return ls, badRequest(client.ErrInvalidPolicy, "space %s: %v", name, err)
		}
		ls.Policies = append(ls.Policies, p)
	}
	for _, s := range in.Technologies {
		t, err := core.ParseTechnology(s)
		if err != nil {
			return ls, badRequest(client.ErrInvalidSpace, "space %s: %v", name, err)
		}
		ls.Technologies = append(ls.Technologies, t)
	}
	return ls, nil
}

// parseSpace translates and validates a request's space block; a failure
// carries client.ErrInvalidPolicy or client.ErrInvalidSpace. An empty
// block is valid and normalizes to the paper's model (one unified LRU
// SRAM level).
func parseSpace(in *client.Space) (sp core.Space, perr *apiError) {
	topo, err := core.ParseTopology(in.Topology)
	if err != nil {
		return sp, badRequest(client.ErrInvalidSpace, "%v", err)
	}
	sp.Topology = topo
	if sp.L1, perr = parseLevelSpace(in.L1, "l1"); perr != nil {
		return sp, perr
	}
	if sp.L2, perr = parseLevelSpace(in.L2, "l2"); perr != nil {
		return sp, perr
	}
	if err := sp.Validate(); err != nil {
		return sp, badRequest(client.ErrInvalidSpace, "%v", err)
	}
	n := sp.Normalized()
	levels := []core.LevelSpace{n.L1}
	if n.Topology == core.TopoSplitL2 {
		levels = append(levels, n.L2)
	}
	for i, ls := range levels {
		// Past 2^13 ways A(A+1)/2 alone exceeds the bound, so the product
		// is formed only below it, where it cannot overflow.
		a := ls.MaxAssoc
		if a >= 1<<13 || !within(ls.MaxDepth, a*(a+1)/2, dse.MaxSweepWays) {
			return sp, badRequest(client.ErrInvalidSpace, "space l%d: max_depth %d x max_assoc %d needs more than %d sweep ways",
				i+1, ls.MaxDepth, a, dse.MaxSweepWays)
		}
	}
	return sp, nil
}

// spaceQuery asks for the Pareto front of a design space. Fronts are
// memoized by trace and canonical space key (two spellings of the same
// space share a front) in the result LRU only: a front is cheap to
// recompute relative to its wire size, and the evaluator is
// deterministic, so durability buys nothing.
type spaceQuery struct {
	exploreRequest
	space core.Space
}

func (q *spaceQuery) memo(digest string) (string, bool) {
	return fmt.Sprintf("explore|%s|space=%s", digest, q.space.Key()), false
}

func (q *spaceQuery) compute(ctx context.Context, entry *TraceEntry) (any, error) {
	obs.CurrentSpan(ctx).SetAttr("space", q.space.Key())
	spaceCtx, span := obs.StartSpan(ctx, "space")
	front, err := dse.ExploreSpace(spaceCtx, entry.Trace, q.space, dse.SpaceOptions{})
	if front != nil {
		span.SetAttr("points", front.Len())
		span.SetAttr("evaluated", front.Stats.Evaluated)
		span.SetAttr("pruned", front.Stats.Pruned())
	}
	span.End()
	if err != nil {
		return nil, err
	}
	return front, nil
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }

// render projects a Pareto front into the explore response. Instances
// stays present (and empty) so v1 clients keyed on the field keep
// decoding; the design-space answer lives in pareto/prune/space. Energy
// and area are rounded to a tenth, the cost model's resolution, so the
// wire shape does not lock float summation noise.
func (q *spaceQuery) render(entry *TraceEntry, v any, cached, degraded bool) any {
	front := v.(*core.Front)
	resp := q.response(entry, cached, degraded)
	resp.Instances = []client.Instance{}
	resp.Table = dse.FrontTable(front).Render()
	resp.Space = q.space.Key()
	resp.Pareto = make([]client.ParetoPoint, 0, front.Len())
	resp.Prune = &client.PruneInfo{
		Candidates:      front.Stats.Candidates,
		Evaluated:       front.Stats.Evaluated,
		PrunedDominated: front.Stats.PrunedDominated,
		PrunedThreshold: front.Stats.PrunedThreshold,
		Rate:            round1(front.Stats.Rate()*100) / 100,
	}
	for _, p := range front.Points() {
		pt := client.ParetoPoint{
			Levels:   make([]client.ParetoLevel, len(p.Levels)),
			Misses:   p.Misses,
			EnergyPJ: round1(p.EnergyPJ),
			AreaUM2:  round1(p.AreaUM2),
		}
		for i, l := range p.Levels {
			pt.Levels[i] = client.ParetoLevel{
				Level:      l.Level,
				Depth:      l.Depth,
				Assoc:      l.Assoc,
				LineWords:  l.LineWords,
				SizeWords:  l.SizeWords(),
				Policy:     l.Policy.String(),
				Technology: l.Technology.String(),
			}
		}
		resp.Pareto = append(resp.Pareto, pt)
	}
	return resp
}
