package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
)

// The checked-in references every answer is compared against. Miss
// counts come from the Mattson stack-distance oracle (internal/onepass),
// an algorithm independent of the MRCT engine under test; Pareto fronts
// are golden outputs of the design-space evaluator. Regenerate them with
// -regen after a change that is meant to alter an answer.
//
//go:embed testdata/*.json
var testdata embed.FS

// refTrace is the exact LRU profile of one trace.
type refTrace struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	NUnique   int    `json:"n_unique"`
	MaxMisses int    `json:"max_misses"`
	// Levels[i][a-1] is the non-cold miss count of a depth-2^i cache with
	// associativity a; each level's trailing zeros are trimmed.
	Levels [][]int `json:"levels"`
}

// misses returns the reference miss count at level i, associativity a.
func (r *refTrace) misses(i, a int) int {
	if i >= len(r.Levels) || a > len(r.Levels[i]) {
		return 0
	}
	return r.Levels[i][a-1]
}

// minAssoc is the paper's min_i at level i: the smallest associativity
// whose miss count meets budget k.
func (r *refTrace) minAssoc(i, k int) int {
	a := 1
	for r.misses(i, a) > k {
		a++
	}
	return a
}

type refProfiles struct {
	Oracle string     `json:"oracle"`
	Traces []refTrace `json:"traces"`
}

// refPoint is one Pareto point, keyed by its canonical configuration.
type refPoint struct {
	Key      string  `json:"key"`
	Misses   int     `json:"misses"`
	EnergyPJ float64 `json:"energy_pj"`
	AreaUM2  float64 `json:"area_um2"`
}

type refPrune struct {
	Candidates      int `json:"candidates"`
	Evaluated       int `json:"evaluated"`
	PrunedDominated int `json:"pruned_dominated"`
	PrunedThreshold int `json:"pruned_threshold"`
}

type refFront struct {
	Name   string     `json:"name"`
	Prune  refPrune   `json:"prune"`
	Points []refPoint `json:"points"`
}

type refFronts struct {
	Space  string     `json:"space"`
	Fronts []refFront `json:"fronts"`
}

const (
	suiteRefs    = "suite.json"
	compiledRefs = "compiled.json"
	zipfRefs     = "zipf.json"
	spaceRefs    = "space_default.json"
	httpRefs     = "http_space.json"
)

func loadRefs(name string, v any) error {
	data, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return fmt.Errorf("reading reference %s: %w", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding reference %s: %w", name, err)
	}
	return nil
}

// profileRefs loads a profile reference file indexed by trace name.
func profileRefs(name string) (map[string]*refTrace, error) {
	var p refProfiles
	if err := loadRefs(name, &p); err != nil {
		return nil, err
	}
	out := make(map[string]*refTrace, len(p.Traces))
	for i := range p.Traces {
		out[p.Traces[i].Name] = &p.Traces[i]
	}
	return out, nil
}

// frontRefs loads a front reference file indexed by trace name.
func frontRefs(name string) (map[string]*refFront, error) {
	var f refFronts
	if err := loadRefs(name, &f); err != nil {
		return nil, err
	}
	out := make(map[string]*refFront, len(f.Fronts))
	for i := range f.Fronts {
		out[f.Fronts[i].Name] = &f.Fronts[i]
	}
	return out, nil
}

// missVector is level l's non-cold miss count at every associativity
// from 1 up, trailing zeros trimmed — the reference's level encoding.
func missVector(l *core.LevelResult) []int {
	return tails(l.Hist)
}

// tails turns a stack-distance histogram into miss counts by
// associativity: out[a-1] is the mass at distances >= a.
func tails(hist []int) []int {
	var out []int
	if len(hist) > 1 {
		out = make([]int, len(hist)-1)
		tail := 0
		for d := len(hist) - 1; d >= 1; d-- {
			tail += hist[d]
			out[d-1] = tail
		}
	}
	for len(out) > 0 && out[len(out)-1] == 0 {
		out = out[:len(out)-1]
	}
	return out
}

func at(v []int, i int) int {
	if i < len(v) {
		return v[i]
	}
	return 0
}

// wrongCells counts the answers in res that differ from the reference:
// every (depth, assoc) miss count, N, N' and the number of levels.
func (r *refTrace) wrongCells(res *core.Result) int {
	wrong := 0
	if res.N != r.N {
		wrong++
	}
	if res.NUnique != r.NUnique {
		wrong++
	}
	if len(res.Levels) != len(r.Levels) {
		wrong++
	}
	for i := 0; i < max(len(r.Levels), len(res.Levels)); i++ {
		var got, want []int
		if i < len(res.Levels) {
			got = missVector(res.Levels[i])
		}
		if i < len(r.Levels) {
			want = r.Levels[i]
		}
		for a := 0; a < max(len(got), len(want)); a++ {
			if at(got, a) != at(want, a) {
				wrong++
			}
		}
	}
	return wrong
}

// mae is the miss-ratio mean absolute error of an estimated profile: the
// mean over every (depth, assoc) cell either profile populates of
// |estimate − exact| / N.
func (r *refTrace) mae(res *core.Result) float64 {
	cells, sum := 0, 0.0
	for i := 0; i < max(len(r.Levels), len(res.Levels)); i++ {
		var got, want []int
		if i < len(res.Levels) {
			got = missVector(res.Levels[i])
		}
		if i < len(r.Levels) {
			want = r.Levels[i]
		}
		for a := 0; a < max(len(got), len(want)); a++ {
			sum += math.Abs(float64(at(got, a) - at(want, a)))
			cells++
		}
	}
	if cells == 0 {
		return 0
	}
	return sum / float64(cells) / float64(r.N)
}

// wrongSampled counts what a sampled answer got wrong: N, the number of
// levels, the sample's bookkeeping (stream mode at the requested rate,
// kept plus dropped references adding up to N), an estimated N' off by
// more than uniqueSlack, and a miss-ratio MAE above maeLimit.
func (r *refTrace) wrongSampled(res *core.Result, mae float64) int {
	est := res.Sample
	wrong := 0
	for _, bad := range []bool{
		res.N != r.N,
		len(res.Levels) != len(r.Levels),
		est == nil || est.Mode != sampling.ModeStream || est.EffectiveRate != zipfRate,
		est == nil || est.KeptRefs+est.DroppedRefs != int64(r.N),
		math.Abs(float64(res.NUnique-r.NUnique)) > uniqueSlack*float64(r.NUnique),
		mae > maeLimit,
	} {
		if bad {
			wrong++
		}
	}
	return wrong
}

// frontPoints renders a front the way the references store it.
func frontPoints(f *core.Front) []refPoint {
	pts := f.Points()
	out := make([]refPoint, len(pts))
	for i, p := range pts {
		out[i] = refPoint{Key: p.Key(), Misses: p.Misses, EnergyPJ: p.EnergyPJ, AreaUM2: p.AreaUM2}
	}
	return out
}

func pruneOf(s core.PruneStats) refPrune {
	return refPrune{
		Candidates: s.Candidates, Evaluated: s.Evaluated,
		PrunedDominated: s.PrunedDominated, PrunedThreshold: s.PrunedThreshold,
	}
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// wrongPoints counts the points of got that differ from the reference
// front, every prune counter that differs, and every missing or extra
// point.
func (r *refFront) wrongPoints(got []refPoint, prune refPrune) int {
	wrong := 0
	if prune != r.Prune {
		wrong++
	}
	for i := 0; i < max(len(got), len(r.Points)); i++ {
		if i >= len(got) || i >= len(r.Points) {
			wrong++
			continue
		}
		g, w := got[i], r.Points[i]
		if g.Key != w.Key || g.Misses != w.Misses || !near(g.EnergyPJ, w.EnergyPJ) || !near(g.AreaUM2, w.AreaUM2) {
			wrong++
		}
	}
	return wrong
}

// regen recomputes every reference file into dir.
func regen(dir string) error {
	ctx := context.Background()
	profile := func(file string, traces []named, maxDepth int) error {
		out := refProfiles{Oracle: "onepass.Sweep (Mattson LRU stack distances)"}
		for _, t := range traces {
			depth := maxDepth
			if depth == 0 {
				depth = 1 << t.tr.AddrBits()
			}
			profs, err := onepass.Sweep(t.tr, depth)
			if err != nil {
				return fmt.Errorf("%s: %w", t.name, err)
			}
			st := trace.ComputeStats(t.tr)
			rt := refTrace{Name: t.name, N: st.N, NUnique: st.NUnique, MaxMisses: st.MaxMisses}
			for _, p := range profs {
				rt.Levels = append(rt.Levels, append([]int{}, tails(p.Hist)...))
			}
			out.Traces = append(out.Traces, rt)
			fmt.Fprintf(os.Stderr, "regen: %s %s (%d levels)\n", file, t.name, len(rt.Levels))
		}
		return writeJSON(filepath.Join(dir, file), out)
	}
	fronts := func(file string, traces []named, space core.Space, round func(float64) float64) error {
		out := refFronts{Space: space.Key()}
		for _, t := range traces {
			f, err := dse.ExploreSpace(ctx, t.tr, space, dse.SpaceOptions{})
			if err != nil {
				return fmt.Errorf("%s: %w", t.name, err)
			}
			pts := frontPoints(f)
			for i := range pts {
				pts[i].EnergyPJ, pts[i].AreaUM2 = round(pts[i].EnergyPJ), round(pts[i].AreaUM2)
			}
			out.Fronts = append(out.Fronts, refFront{Name: t.name, Prune: pruneOf(f.Stats), Points: pts})
			fmt.Fprintf(os.Stderr, "regen: %s %s (%d points)\n", file, t.name, len(pts))
		}
		return writeJSON(filepath.Join(dir, file), out)
	}

	suite, err := powerstoneStreams()
	if err != nil {
		return err
	}
	if err := profile(suiteRefs, suite, 0); err != nil {
		return err
	}
	compiled, err := compiledStreams()
	if err != nil {
		return err
	}
	if err := profile(compiledRefs, compiled, 0); err != nil {
		return err
	}
	if err := profile(zipfRefs, []named{{"zipf", zipfTrace()}}, zipfMaxDepth); err != nil {
		return err
	}
	space, err := spaceTraces(suite)
	if err != nil {
		return err
	}
	identity := func(v float64) float64 { return v }
	if err := fronts(spaceRefs, space, core.DefaultSpace(), identity); err != nil {
		return err
	}
	return fronts(httpRefs, suite, httpSpace(), round1)
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }

func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
