package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/obs/profiler"
	"github.com/example/cachedse/internal/paperex"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
)

// obsTestTrace builds a conflict-heavy random trace for span assertions.
func obsTestTrace(n int, space uint32) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	tr := trace.New(n)
	for i := 0; i < n; i++ {
		tr.Append(trace.Ref{Addr: rng.Uint32() % space, Kind: trace.DataRead})
	}
	return tr
}

// spansByName indexes an exported trace for lookup assertions.
func spansByName(tr obs.Trace) map[string][]obs.SpanRecord {
	m := make(map[string][]obs.SpanRecord)
	for _, s := range tr.Spans {
		m[s.Name] = append(m[s.Name], s)
	}
	return m
}

// TestExploreContextRecordsPhaseSpans locks the engine's phase hook
// contract: one strip, one mrct and one postlude span per run, the mrct
// span carrying the dedup and build-work telemetry and the postlude span
// one aggregate "level" child per cache level whose refs equal the
// non-cold occurrence count (every occurrence lands in exactly one row set
// per level).
func TestExploreContextRecordsPhaseSpans(t *testing.T) {
	tr := obsTestTrace(4_000, 1<<7)
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	r, err := Explore(ctx, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := spansByName(rec.Export())
	for _, want := range []string{"strip", "mrct", "postlude"} {
		if len(byName[want]) != 1 {
			t.Fatalf("%d %q spans, want 1 (have %v)", len(byName[want]), want, byName)
		}
	}
	s := trace.Strip(tr)
	m := BuildMRCT(s)

	mrctAttrs := byName["mrct"][0].Attrs
	if got := mrctAttrs["n"]; got != s.N() {
		t.Errorf("mrct span n = %v, want %d", got, s.N())
	}
	if got := mrctAttrs["n_unique"]; got != s.NUnique() {
		t.Errorf("mrct span n_unique = %v, want %d", got, s.NUnique())
	}
	if got := mrctAttrs["dedup_hit_rate"]; got != m.DedupHitRate() {
		t.Errorf("mrct span dedup_hit_rate = %v, want %v", got, m.DedupHitRate())
	}
	if got := mrctAttrs["occurrences"]; got != m.Occurrences() {
		t.Errorf("mrct span occurrences = %v, want %d", got, m.Occurrences())
	}
	if got, want := mrctAttrs["compactions"], wantCompactions(s); got != want {
		t.Errorf("mrct span compactions = %v, want %d", got, want)
	}
	if got, want := mrctAttrs["verify_ids"], wantVerifyIDs(m); got != want {
		t.Errorf("mrct span verify_ids = %v, want %d", got, want)
	}
	if got, want := mrctAttrs["memo_hits"], wantMemoHits(s); got != want {
		t.Errorf("mrct span memo_hits = %v, want %d", got, want)
	}
	if got, want := mrctAttrs["overflow_runs"], wantOverflowRuns(m); got != want {
		t.Errorf("mrct span overflow_runs = %v, want %d", got, want)
	}

	post := byName["postlude"][0]
	if got := post.Attrs["algorithm"]; got != "dfs" {
		t.Errorf("postlude algorithm = %v, want dfs", got)
	}
	levels := byName["level"]
	if len(levels) != len(r.Levels) {
		t.Fatalf("%d level spans, want %d", len(levels), len(r.Levels))
	}
	occ := m.Occurrences()
	for _, lv := range levels {
		if lv.Parent != post.ID {
			t.Errorf("level span parented to %d, want postlude %d", lv.Parent, post.ID)
		}
		if got := lv.Attrs["refs"]; got != occ {
			t.Errorf("level %v refs = %v, want %d", lv.Attrs["depth"], got, occ)
		}
		if agg, _ := lv.Attrs["aggregate"].(bool); !agg {
			t.Errorf("level span not marked aggregate: %v", lv.Attrs)
		}
	}
}

// wantCompactions replays the build's time schedule: each reference takes
// the next of the times 1..W, and when they run out the live ids are
// renumbered 1..L.
func wantCompactions(s *trace.Stripped) int {
	w := fenwickSpan(s.NUnique())
	seen := make([]bool, s.NUnique())
	live, now, n := 0, 1, 0
	for _, id := range s.IDs {
		if now > w {
			now = live + 1
			n++
		}
		if !seen[id] {
			seen[id] = true
			live++
		}
		now++
	}
	return n
}

// wantVerifyIDs is Σ|C| over the dedup hits: every occurrence of a set
// but its first sighting reads the whole set once (the traces here have
// no 64-bit hash collisions, so no other candidate is read).
func wantVerifyIDs(m *MRCT) int {
	n := 0
	for _, os := range m.occ {
		for _, o := range os {
			n += int(o.count) * len(m.sets[o.set])
		}
	}
	for _, set := range m.sets {
		n -= len(set)
	}
	return n
}

// wantMemoHits counts the recurrences whose window equals the same id's
// previous window, read off the literal double loop of Algorithm 2.
func wantMemoHits(s *trace.Stripped) int {
	n := 0
	for _, sets := range BuildMRCTNaive(s) {
		for k := 1; k < len(sets); k++ {
			if slices.Equal(sets[k], sets[k-1]) {
				n++
			}
		}
	}
	return n
}

// wantOverflowRuns is the number of occurrence runs beyond one per set:
// every set has exactly one run of the id that first listed it, and the
// rest are the other ids' runs.
func wantOverflowRuns(m *MRCT) int {
	n := -len(m.sets)
	for _, os := range m.occ {
		n += len(os)
	}
	return n
}

// TestExploreParallelContextRecordsSplitSpan checks the parallel path's
// phase taxonomy: a split span (the BCAT walk) ahead of the postlude, and
// level children carrying row counts but no per-level timing.
func TestExploreParallelContextRecordsSplitSpan(t *testing.T) {
	raiseGOMAXPROCS(t, 4)
	tr := obsTestTrace(4_000, 1<<7)
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	if _, err := Explore(ctx, tr, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	byName := spansByName(rec.Export())
	for _, want := range []string{"strip", "mrct", "split", "postlude"} {
		if len(byName[want]) != 1 {
			t.Fatalf("%d %q spans, want 1", len(byName[want]), want)
		}
	}
	if got := byName["postlude"][0].Attrs["algorithm"]; got != "parallel" {
		t.Errorf("postlude algorithm = %v, want parallel", got)
	}
	for _, lv := range byName["level"] {
		if _, ok := lv.Attrs["rows"]; !ok {
			t.Errorf("parallel level span missing rows attr: %v", lv.Attrs)
		}
		if _, ok := lv.Attrs["refs_per_sec"]; ok {
			t.Errorf("parallel level span carries refs_per_sec, but per-level timing is undefined across workers")
		}
	}
}

// TestStreamSampledEstimateSpan locks the stream estimator's span: one
// "estimate" span beside "sample", "mrct" and "postlude", whose tallies
// account for every level with a non-empty sampled histogram — each one
// either deconvolved or, past the dense cost gate, left to occupancy
// weighting — and whose dense entry count is the gate's own product.
func TestStreamSampledEstimateSpan(t *testing.T) {
	tr := zipfTrace(t)
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	r, err := Explore(ctx, trace.RefReader(trace.NewReader(tr)),
		Options{MaxDepth: 256, SampleRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	byName := spansByName(rec.Export())
	for _, want := range []string{"sample", "mrct", "postlude", "estimate"} {
		if len(byName[want]) != 1 {
			t.Fatalf("%d %q spans, want 1", len(byName[want]), want)
		}
	}
	if est, mrct := byName["estimate"][0], byName["mrct"][0]; est.Parent != mrct.Parent {
		t.Errorf("estimate span parent %d, want the explore's (%d)", est.Parent, mrct.Parent)
	}

	q := 1 / r.Sample.Stretch
	levels, fallback, dense := 0, 0, 0
	for _, hs := range r.Sample.RawHist {
		bins := 0
		for _, c := range hs {
			if c > 0 {
				bins++
			}
		}
		if bins == 0 {
			continue
		}
		levels++
		// 1<<22 is the sampling package's gate on the dense kernel size.
		if n := (sampling.DeconvSupport(hs, q) + 1) * bins; n > 1<<22 {
			fallback++
		} else {
			dense += n
		}
	}
	attrs := byName["estimate"][0].Attrs
	want := map[string]int{
		"levels_deconvolved":   levels - fallback,
		"levels_fallback":      fallback,
		"kernel_dense_entries": dense,
	}
	for k, v := range want {
		if attrs[k] != v {
			t.Errorf("estimate span %s = %v, want %d", k, attrs[k], v)
		}
	}
	if levels-fallback == 0 || fallback == 0 {
		t.Errorf("want both deconvolved (%d) and fallback (%d) levels on this trace", levels-fallback, fallback)
	}
	if n, ok := attrs["kernel_entries"].(int); !ok || n <= 0 || n >= dense {
		t.Errorf("estimate span kernel_entries = %v, want a banded count in (0, %d)", attrs["kernel_entries"], dense)
	}
}

// TestExploreSameResultWithRecorder guards against instrumentation ever
// perturbing the answer: the histograms must be bit-identical with and
// without a recorder installed, sequential and parallel.
func TestExploreSameResultWithRecorder(t *testing.T) {
	tr := paperex.Trace()
	plain, err := Explore(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(0))
	traced, err := Explore(ctx, tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(plain, traced) {
		t.Fatal("recorded sequential exploration differs from plain run")
	}
	tracedPar, err := Explore(ctx, tr, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(plain, tracedPar) {
		t.Fatal("recorded parallel exploration differs from plain run")
	}
}

// BenchmarkExploreObs measures the phase-hook overhead on the full
// exploration: "off" runs with no recorder on the context (the production
// default — every StartSpan is one context lookup returning nil), "on"
// records the full span tree. The acceptance bar is "off" within 2% of
// the pre-instrumentation baseline; bench/run.sh reports the recorder's
// cost as obs.recorder_overhead_pct.
func BenchmarkExploreObs(b *testing.B) {
	tr := obsTestTrace(20_000, 1<<9)
	s := trace.Strip(tr)
	m := BuildMRCT(s)
	b.Run("off", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Explore(ctx, Prelude{Stripped: s, MRCT: m}, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(0))
			if _, err := Explore(ctx, Prelude{Stripped: s, MRCT: m}, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// "on+profiler" adds the continuous profiler on top of full span
	// recording — the worst-case production configuration. The interval
	// is compressed so captures actually overlap the measurement window,
	// but the duty cycle (CPU sampling ~8% of the time) matches the
	// production default of 5s every 60s; per-capture fixed costs are
	// therefore overstated here relative to a real 60s interval. The
	// acceptance bar is within 2% of "off".
	b.Run("on+profiler", func(b *testing.B) {
		p, err := profiler.New(profiler.Config{
			Dir:         b.TempDir(),
			Interval:    1 * time.Second,
			CPUDuration: 80 * time.Millisecond,
			MaxPerKind:  4,
		})
		if err != nil {
			b.Fatal(err)
		}
		p.Start()
		defer p.Stop()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := obs.WithRecorder(context.Background(), obs.NewRecorder(0))
			if _, err := Explore(ctx, Prelude{Stripped: s, MRCT: m}, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
