package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
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
	for name, want := range map[string]int{
		"packed_sets": m.PackedSets(),
		"run_sets":    m.DistinctSets() - m.PackedSets(),
		"table_bytes": m.Bytes(),
	} {
		if got := mrctAttrs[name]; got != want {
			t.Errorf("mrct span %s = %v, want %d", name, got, want)
		}
	}
	// The trace is random, so only same-word runs fold, and the build
	// runs on it with the references equal to their predecessor dropped.
	kept := withoutRepeats(s)
	folded, repeats := sameWordWork(s)
	for name, want := range map[string]int{
		"compactions": wantCompactions(s),
		"verify_ids":  wantVerifyIDs(m, kept),
		"memo_hits":   wantMemoHits(kept),
		"folded":      folded,
		"repeats":     repeats,
	} {
		if got := mrctAttrs[name]; got != want {
			t.Errorf("mrct span %s = %v, want %d", name, got, want)
		}
	}
	if repeats == 0 {
		t.Error("the trace has no same-word repeat to skip")
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

// wantCompactions counts the compactions of compactionRefs.
func wantCompactions(s *trace.Stripped) int { return len(compactionRefs(s)) }

// compactionRefs replays the build's time schedule on a trace whose only
// loop periods are same-word runs and lists the references each
// compaction runs at. Each reference takes the next of the times 1..W,
// except one equal to its predecessor once an earlier one has listed the
// empty window (a repeat, or a run's third and later references, which
// fold), and when the times run out the live ids are renumbered 1..L.
func compactionRefs(s *trace.Stripped) []int {
	w := fenwickSpan(s.NUnique())
	seen := make([]bool, s.NUnique())
	var at []int
	live, now, empty := 0, 1, false
	for i, id := range s.IDs {
		if i > 0 && id == s.IDs[i-1] {
			if empty {
				continue
			}
			empty = true
		}
		if now > w {
			now = live + 1
			at = append(at, i)
		}
		if !seen[id] {
			seen[id] = true
			live++
		}
		now++
	}
	return at
}

// sameWordWork is what the build folds and counts as same-word repeats in
// a trace whose only loop periods are same-word runs. In a run of L equal
// references the second has the empty window and the third onwards fold
// with period 1; the second of the first run with L ≥ 2 lists the empty
// set, and every later run's second is a repeat.
func sameWordWork(s *trace.Stripped) (folded, repeats int) {
	for i := 1; i < s.N(); i++ {
		switch {
		case s.IDs[i] != s.IDs[i-1]:
		case i > 1 && s.IDs[i-2] == s.IDs[i]:
			folded++
		default:
			repeats++
		}
	}
	return folded, max(0, repeats-1)
}

// withoutRepeats is the trace the build runs on when only same-word runs
// fold: s with every reference equal to its predecessor dropped, but the
// first, which lists the empty window. Each kept reference has the window
// it has in s.
func withoutRepeats(s *trace.Stripped) *trace.Stripped {
	ids, first := []int{}, true
	for i, id := range s.IDs {
		if i > 0 && id == s.IDs[i-1] {
			if !first {
				continue
			}
			first = false
		}
		ids = append(ids, int(id))
	}
	return trace.Strip(idTrace(ids...))
}

// wantVerifyIDs is Σ|C| over the dedup-table hits: every occurrence of a
// set but its first sighting reads the whole set once, except a memo hit
// (a window equal to the same id's previous one, as wantMemoHits counts
// them), which is certified without reading it. The traces here have no
// 64-bit hash collisions, so no other candidate is read.
func wantVerifyIDs(m *MRCT, s *trace.Stripped) int {
	n := 0
	for _, os := range m.occ {
		for _, o := range os {
			n += int(o.count) * int(m.card[o.set])
		}
	}
	for _, card := range m.card {
		n -= int(card)
	}
	for _, card := range memoHitCards(s) {
		n -= card
	}
	return n
}

// wantMemoHits counts the recurrences whose window equals the same id's
// previous window.
func wantMemoHits(s *trace.Stripped) int { return len(memoHitCards(s)) }

// memoHitCards lists |C| of every recurrence whose window equals the same
// id's previous window, read off the literal double loop of Algorithm 2.
func memoHitCards(s *trace.Stripped) []int {
	var cards []int
	for _, sets := range BuildMRCTNaive(s) {
		for k := 1; k < len(sets); k++ {
			if slices.Equal(sets[k], sets[k-1]) {
				cards = append(cards, len(sets[k]))
			}
		}
	}
	return cards
}

// wantOverflowRuns is the number of occurrence runs beyond one per set:
// every set has exactly one run of the id that first listed it, and the
// rest are the other ids' runs.
func wantOverflowRuns(m *MRCT) int {
	n := -len(m.card)
	for _, os := range m.occ {
		n += len(os)
	}
	return n
}

// The strip span of a ctz1 image's parallel decode records its block
// count and the goroutines that parsed it, and the figures of the strip
// itself equal an in-memory strip's. A strip of an in-memory trace
// records neither.
func TestCTZ1StripSpan(t *testing.T) {
	// Two cores split the image's 100 000 references in two parts; more
	// would split it in three.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tr := obsTestTrace(100_000, 1<<9)
	var img bytes.Buffer
	if err := trace.WriteCTZ1(&img, tr); err != nil {
		t.Fatal(err)
	}
	strip := func(src Source) map[string]any {
		rec := obs.NewRecorder(0)
		if _, err := Explore(obs.WithRecorder(context.Background(), rec), src, Options{MaxDepth: 4}); err != nil {
			t.Fatal(err)
		}
		spans := spansByName(rec.Export())["strip"]
		if len(spans) != 1 {
			t.Fatalf("%d strip spans, want 1", len(spans))
		}
		return spans[0].Attrs
	}
	dec, err := trace.NewCTZ1BytesDecoder(img.Bytes(), trace.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := strip(dec), strip(tr)
	blocks := (tr.Len() + trace.CTZ1DefaultBlock - 1) / trace.CTZ1DefaultBlock
	if got["blocks"] != blocks || got["workers"] != 2 {
		t.Errorf("ctz1 strip span blocks = %v, workers = %v; want %d, 2", got["blocks"], got["workers"], blocks)
	}
	if got["n"] != want["n"] || got["n_unique"] != want["n_unique"] {
		t.Errorf("ctz1 strip span n = %v, n_unique = %v; in-memory strip %v, %v",
			got["n"], got["n_unique"], want["n"], want["n_unique"])
	}
	if _, ok := want["blocks"]; ok {
		t.Errorf("in-memory strip span records blocks = %v", want["blocks"])
	}
	if _, ok := want["workers"]; ok {
		t.Errorf("in-memory strip span records workers = %v", want["workers"])
	}
}

// A chunked build records one mrct span. Its table figures equal the
// serial build's, its work counters are the sums of what each chunk's
// loop counted, and chunks says how many there were.
func TestChunkedMRCTSpan(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	s := trace.Strip(obsTestTrace(3*minChunkRefs, 1<<7))
	k := chunkCount(s.N())
	if k < 2 {
		t.Fatalf("%d references are built in %d chunk, want at least 2", s.N(), k)
	}
	attrs := func(build func(ctx context.Context) error) map[string]any {
		rec := obs.NewRecorder(0)
		if err := build(obs.WithRecorder(context.Background(), rec)); err != nil {
			t.Fatal(err)
		}
		spans := spansByName(rec.Export())["mrct"]
		if len(spans) != 1 {
			t.Fatalf("%d mrct spans, want 1", len(spans))
		}
		return spans[0].Attrs
	}
	got := attrs(func(ctx context.Context) error {
		_, err := BuildMRCTContext(ctx, s)
		return err
	})
	serial := attrs(func(ctx context.Context) error {
		return buildMRCTChunks(ctx, s, &Scratch{}, &MRCT{}, 1)
	})
	for _, name := range []string{"n", "n_unique", "distinct_sets", "occurrences",
		"dedup_hit_rate", "max_card", "packed_sets", "run_sets", "table_bytes", "overflow_runs"} {
		if got[name] != serial[name] {
			t.Errorf("%s = %v, serial build %v", name, got[name], serial[name])
		}
	}
	if got["chunks"] != k || serial["chunks"] != 1 {
		t.Errorf("chunks = %v and %v, want %d and 1", got["chunks"], serial["chunks"], k)
	}
	var want mrctWork
	idHash := make([]uint64, s.NUnique())
	for v := range idHash {
		idHash[v] = hashID(uint64(v))
	}
	for j := 0; j < k; j++ {
		w, err := (&Scratch{}).buildChunk(context.Background(), s, j*s.N()/k, (j+1)*s.N()/k, idHash, &MRCT{})
		if err != nil {
			t.Fatal(err)
		}
		want.add(w)
	}
	for name, w := range map[string]int{"compactions": want.compactions,
		"verify_ids": want.verifyIDs, "memo_hits": want.memoHits,
		"folded": want.folded, "repeats": want.repeats} {
		if got[name] != w {
			t.Errorf("%s = %v, want the chunks' sum %d", name, got[name], w)
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
// without a recorder installed.
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
		t.Fatal("recorded exploration differs from plain run")
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
