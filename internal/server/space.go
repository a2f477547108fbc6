package server

import (
	"context"
	"fmt"
	"math"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/obs"
)

// This file is the wire layer of the design-space API: the "space" block
// a POST /v1/explore request may carry, its translation into a
// core.Space, and the "pareto" result rendering. Space failures map to
// two stable codes — invalid_policy for an unknown replacement policy
// name, invalid_space for every other shape problem (topology,
// technology, geometry) — locked by the golden-file compatibility tests.

// levelSpaceJSON is the wire form of one level's exploration axes.
// Every field is optional; zeros take the engine defaults.
type levelSpaceJSON struct {
	MaxDepth     int      `json:"max_depth,omitempty"`
	MaxAssoc     int      `json:"max_assoc,omitempty"`
	LineWords    []int    `json:"line_words,omitempty"`
	Policies     []string `json:"policies,omitempty"`
	Technologies []string `json:"technologies,omitempty"`
}

// spaceJSON is the wire form of a declarative design space. An empty
// block is valid and normalizes to the paper's model (one unified LRU
// SRAM level); "l2" is meaningful only under the "split+l2" topology.
type spaceJSON struct {
	Topology string          `json:"topology,omitempty"`
	L1       *levelSpaceJSON `json:"l1,omitempty"`
	L2       *levelSpaceJSON `json:"l2,omitempty"`
}

// parseLevelSpace translates one level block, returning the stable error
// code a failure maps to.
func parseLevelSpace(in *levelSpaceJSON, name string) (core.LevelSpace, string, error) {
	var ls core.LevelSpace
	if in == nil {
		return ls, "", nil
	}
	ls.MaxDepth = in.MaxDepth
	ls.MaxAssoc = in.MaxAssoc
	ls.LineWords = in.LineWords
	for _, s := range in.Policies {
		p, err := core.ParsePolicy(s)
		if err != nil {
			return ls, codeInvalidPolicy, fmt.Errorf("space %s: %v", name, err)
		}
		ls.Policies = append(ls.Policies, p)
	}
	for _, s := range in.Technologies {
		t, err := core.ParseTechnology(s)
		if err != nil {
			return ls, codeInvalidSpace, fmt.Errorf("space %s: %v", name, err)
		}
		ls.Technologies = append(ls.Technologies, t)
	}
	return ls, "", nil
}

// parseSpace translates and validates a request's space block. On error
// the returned code is codeInvalidPolicy or codeInvalidSpace.
func parseSpace(in *spaceJSON) (core.Space, string, error) {
	var sp core.Space
	topo, err := core.ParseTopology(in.Topology)
	if err != nil {
		return sp, codeInvalidSpace, err
	}
	sp.Topology = topo
	l1, code, err := parseLevelSpace(in.L1, "l1")
	if err != nil {
		return sp, code, err
	}
	sp.L1 = l1
	l2, code, err := parseLevelSpace(in.L2, "l2")
	if err != nil {
		return sp, code, err
	}
	sp.L2 = l2
	if err := sp.Validate(); err != nil {
		return sp, codeInvalidSpace, err
	}
	return sp, "", nil
}

// paretoLevelJSON is one concrete cache level of a Pareto point.
type paretoLevelJSON struct {
	Level      string `json:"level"`
	Depth      int    `json:"depth"`
	Assoc      int    `json:"assoc"`
	LineWords  int    `json:"line_words"`
	SizeWords  int    `json:"size_words"`
	Policy     string `json:"policy"`
	Technology string `json:"technology"`
}

// paretoPointJSON is one point of the emitted Pareto front: the full
// hierarchy configuration and its three objectives. Energy and area are
// rounded to a tenth — the cost model's resolution — so the wire shape
// does not lock float summation noise.
type paretoPointJSON struct {
	Levels   []paretoLevelJSON `json:"levels"`
	Misses   int               `json:"misses"`
	EnergyPJ float64           `json:"energy_pj"`
	AreaUM2  float64           `json:"area_um2"`
}

// pruneJSON reports how much of the candidate grid the analytical cuts
// (A_zero domination, α-threshold) skipped.
type pruneJSON struct {
	Candidates      int     `json:"candidates"`
	Evaluated       int     `json:"evaluated"`
	PrunedDominated int     `json:"pruned_dominated"`
	PrunedThreshold int     `json:"pruned_threshold"`
	Rate            float64 `json:"rate"`
}

// spaceExploreKey is the memoization key of one design-space front. The
// canonical space key folds in every axis, so two spellings of the same
// space share a front.
func spaceExploreKey(digest string, sp core.Space) string {
	return fmt.Sprintf("explore|%s|space=%s", digest, sp.Key())
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }

// renderExploreSpace projects a Pareto front into the explore response.
// Instances stays present (and empty) so v1 clients keyed on the field
// keep decoding; the design-space answer lives in pareto/prune/space.
func renderExploreSpace(entry *TraceEntry, budget int, sp core.Space, front *core.Front, cached bool) *exploreResponse {
	resp := &exploreResponse{
		Trace:     entry.Digest,
		K:         budget,
		MaxMisses: entry.Stats.MaxMisses,
		Instances: []instanceJSON{},
		Table:     dse.FrontTable(front).Render(),
		Cached:    cached,
		Space:     sp.Key(),
		Pareto:    make([]paretoPointJSON, 0, front.Len()),
		Prune: &pruneJSON{
			Candidates:      front.Stats.Candidates,
			Evaluated:       front.Stats.Evaluated,
			PrunedDominated: front.Stats.PrunedDominated,
			PrunedThreshold: front.Stats.PrunedThreshold,
			Rate:            round1(front.Stats.Rate()*100) / 100,
		},
	}
	for _, p := range front.Points() {
		pt := paretoPointJSON{
			Levels:   make([]paretoLevelJSON, len(p.Levels)),
			Misses:   p.Misses,
			EnergyPJ: round1(p.EnergyPJ),
			AreaUM2:  round1(p.AreaUM2),
		}
		for i, l := range p.Levels {
			pt.Levels[i] = paretoLevelJSON{
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

// runExploreSpace answers one design-space exploration, memoizing the
// front by trace and canonical space key. Fronts are kept in the result
// LRU only: a front is cheap to recompute relative to its wire size, and
// the evaluator is deterministic, so durability buys nothing.
func (s *Server) runExploreSpace(ctx context.Context, entry *TraceEntry, budget int, sp core.Space) (*exploreResponse, error) {
	if root := obs.CurrentSpan(ctx); root != nil {
		root.SetAttr("space", sp.Key())
	}
	key := spaceExploreKey(entry.Digest, sp)
	var front *core.Front
	cached := false
	if v, ok := s.results.Get(key); ok {
		front = v.(*core.Front)
		cached = true
	}
	if !cached {
		spaceCtx, span := obs.StartSpan(ctx, "space")
		var err error
		front, err = dse.ExploreSpace(spaceCtx, entry.Trace, sp, dse.SpaceOptions{})
		if span != nil {
			if front != nil {
				span.SetAttr("points", front.Len())
				span.SetAttr("evaluated", front.Stats.Evaluated)
				span.SetAttr("pruned", front.Stats.Pruned())
			}
			span.End()
		}
		if err != nil {
			return nil, err
		}
		s.results.Put(key, front)
	}
	return renderExploreSpace(entry, budget, sp, front, cached), nil
}
