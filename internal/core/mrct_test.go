package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/example/cachedse/internal/minicbench"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// Every conflict set is stored once, in the form that takes fewer bytes:
// runs at 8 B each, or a bit vector of ⌈N′/64⌉ words when it has more runs
// than that. Runs are ascending, disjoint, maximal and inside [0, N′); a
// bit vector has no bit at or past N′; card is the expanded length, and
// MaxConflictCard bounds every cardinality (the postlude pre-sizes
// histograms from it). Bytes stays within one bit vector and header per
// set plus the occurrence runs.
func TestMRCTFormInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	workloads := map[string]*trace.Trace{
		"loop":    tracegen.Loop(0, 96, 40),
		"uniform": tracegen.Uniform(rng, 0, 300, 6000),
		"zipf":    tracegen.Zipf(rng, 0, 2000, 20000, 1.1),
	}
	runTotal, packedTotal := 0, 0
	for name, tr := range workloads {
		t.Run(name, func(t *testing.T) {
			s := trace.Strip(tr)
			m := BuildMRCT(s)
			nu := s.NUnique()
			words := (nu + 63) / 64
			if len(m.runs) != len(m.card) || len(m.packed) != len(m.card) {
				t.Fatalf("%d run slices, %d bit vectors, %d cards", len(m.runs), len(m.packed), len(m.card))
			}
			maxCard, runSets := 0, 0
			for c := range m.card {
				r, p := m.runs[c], m.packed[c]
				if p != nil && r != nil {
					t.Fatalf("set %d is stored in both forms", c)
				}
				if r != nil {
					runSets++
				}
				n := 0
				if p != nil {
					if p.Cap() != nu {
						t.Fatalf("set %d: bit vector of capacity %d, want %d", c, p.Cap(), nu)
					}
					n = p.Count()
					ids := m.appendIDs(nil, int32(c))
					if len(ids) > 0 && ids[len(ids)-1] >= int32(nu) {
						t.Fatalf("set %d: bit vector holds id %d past N' = %d", c, ids[len(ids)-1], nu)
					}
					if runs := runsOf(ids); runs <= words {
						t.Fatalf("set %d: packed with %d runs, %d words", c, runs, words)
					}
				} else {
					if len(r)%2 != 0 {
						t.Fatalf("set %d: odd run slice %v", c, r)
					}
					if len(r)/2 > words {
						t.Fatalf("set %d: %d runs kept over %d words", c, len(r)/2, words)
					}
					for i := 0; i < len(r); i += 2 {
						lo, hi := r[i], r[i+1]
						if lo < 0 || hi > int32(nu) || lo >= hi {
							t.Fatalf("set %d: run [%d, %d) empty or outside [0, %d)", c, lo, hi, nu)
						}
						if i > 0 && lo <= r[i-1] {
							t.Fatalf("set %d: run [%d, %d) not past the previous end %d", c, lo, hi, r[i-1])
						}
						n += int(hi - lo)
					}
				}
				if n != int(m.card[c]) {
					t.Fatalf("set %d: %d ids, card %d", c, n, m.card[c])
				}
				maxCard = max(maxCard, n)
			}
			if m.MaxConflictCard() != maxCard {
				t.Fatalf("MaxConflictCard = %d, want %d", m.MaxConflictCard(), maxCard)
			}
			if m.Occurrences() != s.N()-s.NUnique() {
				t.Fatalf("Occurrences = %d, want N-N' = %d", m.Occurrences(), s.N()-s.NUnique())
			}
			occRuns := 0
			for _, os := range m.occ {
				occRuns += len(os)
			}
			bound := len(m.card)*(8*words+setHeaderBytes) + nu*24 + 8*occRuns
			if b := m.Bytes(); b <= 0 || b > bound {
				t.Fatalf("Bytes = %d, want in (0, %d]", b, bound)
			}
			runTotal += runSets
			packedTotal += len(m.card) - runSets
		})
	}
	if runTotal == 0 || packedTotal == 0 {
		t.Fatalf("%d run sets and %d bit vectors: both forms should occur", runTotal, packedTotal)
	}
}

// storeSet keeps a set as its maximal runs unless it has more runs than
// the universe has words (four here): runs inside a word, across a word
// boundary, ending on the top bit of a word, the final one ending at the
// top bit of the highest word the set touches, and at the universe's last
// id; a tie with the word count stays runs.
func TestMRCTStoreSet(t *testing.T) {
	const nu = 200
	span := func(lo, hi int32) []int32 {
		var ids []int32
		for v := lo; v < hi; v++ {
			ids = append(ids, v)
		}
		return ids
	}
	cases := []struct {
		name string
		ids  []int32
		runs []int32 // nil: a bit vector
	}{
		{"one id", []int32{5}, []int32{5, 6}},
		{"whole word", span(0, 64), []int32{0, 64}},
		{"across a word boundary", span(60, 71), []int32{60, 71}},
		{"top bit of a lower word", append(span(10, 64), 100), []int32{10, 64, 100, 101}},
		{"top bit of the highest word", append([]int32{3}, span(120, 128)...), []int32{3, 4, 120, 128}},
		{"last id", span(192, nu), []int32{192, nu}},
		{"four runs, four words", []int32{0, 2, 4, 6}, []int32{0, 1, 2, 3, 4, 5, 6, 7}},
		{"five runs", []int32{0, 2, 4, 6, 8}, nil},
		{"every other id", func() []int32 {
			var ids []int32
			for v := int32(1); v < nu; v += 2 {
				ids = append(ids, v)
			}
			return ids
		}(), nil},
	}
	sc, m := &Scratch{}, &MRCT{nunique: nu}
	sc.resetWindow(nu)
	for _, c := range cases {
		for _, v := range c.ids {
			sc.win[v/64] |= 1 << (v % 64)
		}
		idx := sc.storeSet(m, int(c.ids[0]/64), int(c.ids[len(c.ids)-1]/64), len(c.ids))
		if got := m.packed[idx] != nil; got != (c.runs == nil) {
			t.Errorf("%s: packed %v, want %v", c.name, got, c.runs == nil)
		}
		if !slices.Equal(m.runs[idx], c.runs) {
			t.Errorf("%s: runs %v, want %v", c.name, m.runs[idx], c.runs)
		}
		if got := m.appendIDs(nil, idx); !slices.Equal(got, c.ids) || int(m.card[idx]) != len(c.ids) {
			t.Errorf("%s: ids %v (card %d), want %v", c.name, got, m.card[idx], c.ids)
		}
		if slices.ContainsFunc(sc.win, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("%s: window vector not cleared", c.name)
		}
	}
}

// accessedAfter accepts a candidate only when every one of its ids was
// last accessed after t0, in both forms: a run set (two runs, one reaching
// the universe's last id) and a bit vector (every other id). Each id in
// turn, and only an id of the set, makes it fail.
func TestMRCTAccessedAfter(t *testing.T) {
	const nu, t0 = 200, 5
	sc, m := &Scratch{}, &MRCT{nunique: nu}
	sc.resetWindow(nu)
	store := func(ids []int32) int32 {
		for _, v := range ids {
			sc.win[v/64] |= 1 << (v % 64)
		}
		return sc.storeSet(m, int(ids[0]/64), int(ids[len(ids)-1]/64), len(ids))
	}
	var runIDs, bitIDs []int32
	for v := int32(3); v < 10; v++ {
		runIDs = append(runIDs, v)
	}
	for v := int32(190); v < nu; v++ {
		runIDs = append(runIDs, v)
	}
	for v := int32(0); v < nu; v += 2 {
		bitIDs = append(bitIDs, v)
	}
	runSet, bitSet := store(runIDs), store(bitIDs)
	if m.packed[runSet] != nil || m.packed[bitSet] == nil {
		t.Fatalf("forms: run set packed %v, bit set packed %v", m.packed[runSet] != nil, m.packed[bitSet] != nil)
	}
	last := make([]int32, nu)
	for c, ids := range map[int32][]int32{runSet: runIDs, bitSet: bitIDs} {
		for i := range last {
			last[i] = t0 + 1
		}
		if !m.accessedAfter(c, last, t0) {
			t.Fatalf("set %d rejected with every id after t0", c)
		}
		in := map[int32]bool{}
		for _, v := range ids {
			in[v] = true
		}
		for v := range int32(nu) {
			last[v] = t0
			if got := m.accessedAfter(c, last, t0); got == in[v] {
				t.Fatalf("set %d with id %d at t0: accessedAfter = %v", c, v, got)
			}
			last[v] = t0 + 1
		}
	}
}

// setHeaderBytes bounds what Bytes counts per set besides its runs or
// words: the run slice, bit-vector pointer and cardinality, and a bit
// vector's own header.
const setHeaderBytes = 24 + 8 + 4 + 32

// runsOf counts the maximal runs of consecutive values in ascending ids.
func runsOf(ids []int32) int {
	n := 0
	for i, v := range ids {
		if i == 0 || v != ids[i-1]+1 {
			n++
		}
	}
	return n
}

// BuildMRCT on uniform 5 000 × 50 000, where nearly every window is a
// distinct set of ~3 000 ids, retains one bit vector per set: under
// 64 MB of heap, as the heap after GC minus the heap before the build.
func TestMRCTRetainedHeap(t *testing.T) {
	s := trace.Strip(tracegen.Uniform(rand.New(rand.NewSource(1)), 0, 5000, 50000))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := BuildMRCT(s)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const limit = 64 << 20
	if retained > limit {
		t.Fatalf("BuildMRCT retains %.1f MB (Bytes %.1f MB), want under %d MB",
			float64(retained)/1e6, float64(m.Bytes())/1e6, limit>>20)
	}
	t.Logf("retained %.1f MB, Bytes %.1f MB, %d sets, %d packed", float64(retained)/1e6,
		float64(m.Bytes())/1e6, m.DistinctSets(), m.PackedSets())
	runtime.KeepAlive(m)
}

// idTrace turns identifiers into a data trace, one address per id.
func idTrace(ids ...int) *trace.Trace {
	tr := trace.New(len(ids))
	for _, id := range ids {
		tr.Append(trace.Ref{Addr: uint32(id), Kind: trace.DataRead})
	}
	return tr
}

// hotColdTrace is 0,1,0,2,…,0,cold: one hot id between cold ones.
func hotColdTrace(cold int) *trace.Trace {
	var ids []int
	for c := 1; c <= cold; c++ {
		ids = append(ids, 0, c)
	}
	return idTrace(ids...)
}

// cyclicIDs is n references cycling over ids 0..nu-1.
func cyclicIDs(nu, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i % nu
	}
	return ids
}

// cyclicTrace is the trace of cyclicIDs.
func cyclicTrace(nu, n int) *trace.Trace { return idTrace(cyclicIDs(nu, n)...) }

// mrctDiff compares two tables field for field — set order, each set's
// form and contents, its cardinality, the cardinality bound and every
// id's occurrence runs — and describes the first difference, or returns
// "".
func mrctDiff(got, want *MRCT) string {
	if got.nunique != want.nunique {
		return fmt.Sprintf("nunique %d, want %d", got.nunique, want.nunique)
	}
	if got.maxCard != want.maxCard {
		return fmt.Sprintf("maxCard %d, want %d", got.maxCard, want.maxCard)
	}
	if len(got.card) != len(want.card) || len(got.runs) != len(want.runs) || len(got.packed) != len(want.packed) {
		return fmt.Sprintf("%d/%d/%d cards/run slices/bit vectors, want %d/%d/%d",
			len(got.card), len(got.runs), len(got.packed), len(want.card), len(want.runs), len(want.packed))
	}
	for i := range want.card {
		if got.card[i] != want.card[i] {
			return fmt.Sprintf("set %d: card %d, want %d", i, got.card[i], want.card[i])
		}
		if !slices.Equal(got.runs[i], want.runs[i]) || (got.runs[i] == nil) != (want.runs[i] == nil) {
			return fmt.Sprintf("set %d: runs %v, want %v", i, got.runs[i], want.runs[i])
		}
		g, w := got.packed[i], want.packed[i]
		if (g == nil) != (w == nil) || g != nil && !g.Equal(w) {
			return fmt.Sprintf("set %d: bit vector %v, want %v", i, g, w)
		}
	}
	if len(got.occ) != len(want.occ) {
		return fmt.Sprintf("occ covers %d ids, want %d", len(got.occ), len(want.occ))
	}
	for id := range want.occ {
		if !slices.Equal(got.occ[id], want.occ[id]) {
			return fmt.Sprintf("occ[%d] = %v, want %v", id, got.occ[id], want.occ[id])
		}
	}
	return ""
}

// oracleInputs are the traces the Fenwick build is held to the stack-walk
// oracle on: the 24 PowerStone streams, both streams of one compiled
// kernel, generated loop nests, uniform, Zipf and hot/cold traces, and the
// degenerate universes.
func oracleInputs(t testing.TB) map[string]*trace.Trace {
	in := map[string]*trace.Trace{}
	for _, name := range powerstone.Names() {
		res, err := powerstone.Get(name).Run()
		if err != nil {
			t.Fatal(err)
		}
		in[name+".instr"], in[name+".data"] = res.Instr, res.Data
	}
	res, err := minicbench.Get("blit").Run()
	if err != nil {
		t.Fatal(err)
	}
	in["minic-blit.instr"], in["minic-blit.data"] = res.Instr, res.Data
	rng := rand.New(rand.NewSource(29))
	in["loop"] = tracegen.Loop(0, 96, 40)
	in["loop-nest"] = tracegen.Mixed(tracegen.Loop(0, 40, 30), tracegen.Loop(1000, 7, 150), tracegen.Strided(5000, 3, 90, 600))
	in["uniform"] = tracegen.Uniform(rng, 0, 300, 6000)
	in["zipf"] = tracegen.Zipf(rng, 0, 2000, 20000, 1.1)
	in["hot-cold"] = hotColdTrace(200)
	in["empty"] = idTrace()
	in["one-id"] = idTrace(7, 7, 7, 7)
	in["all-cold"] = cyclicTrace(300, 300)
	return in
}

// TestMRCTMatchesStackOracle holds the Fenwick build to the stack-walk
// build it replaced: the tables must be identical field for field.
func TestMRCTMatchesStackOracle(t *testing.T) {
	for name, tr := range oracleInputs(t) {
		t.Run(name, func(t *testing.T) {
			s := trace.Strip(tr)
			if d := mrctDiff(BuildMRCT(s), buildMRCTStack(s)); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// chunkedBuild builds s's table in k chunks through a fresh scratch.
func chunkedBuild(t testing.TB, s *trace.Stripped, k int) *MRCT {
	t.Helper()
	m := &MRCT{}
	if err := buildMRCTChunks(context.Background(), s, &Scratch{}, m, k); err != nil {
		t.Fatal(err)
	}
	return m
}

// chunkBoundary is a trace built in k chunks so that a chunk start lands
// where the seeding is easiest to get wrong.
type chunkBoundary struct {
	name string
	tr   *trace.Trace
	k    int
}

// chunkBoundaryInputs: a cyclic trace of 2n references over nu ids, split
// in two, starts its second chunk at reference n, one before, on and
// after the serial build's first compaction at n = W. hot-cold-odd
// (0,1,0,2,…) split in two starts its second chunk at the first
// occurrence of a cold id, and one-id split in four starts every chunk
// at a recurrence of the only id.
func chunkBoundaryInputs() []chunkBoundary {
	in := []chunkBoundary{
		{"hot-cold-odd", hotColdTrace(201), 2},
		{"one-id", idTrace(7, 7, 7, 7), 4},
	}
	for _, nu := range []int{2, 5, 64} {
		w := fenwickSpan(nu)
		for _, n := range []int{w - 1, w, w + 1} {
			in = append(in, chunkBoundary{fmt.Sprintf("cyclic-nu%d-start%d", nu, n), cyclicTrace(nu, 2*n), 2})
		}
	}
	return in
}

// TestMRCTChunkedMatchesSerial holds the chunked build to the serial
// table at every chunk count: the oracle inputs at k = 1..5, chunk starts
// next to a compaction and at an id's first occurrence, and the 24
// compiled streams at k = 2 against the k = 1 build.
func TestMRCTChunkedMatchesSerial(t *testing.T) {
	for name, tr := range oracleInputs(t) {
		t.Run(name, func(t *testing.T) {
			s := trace.Strip(tr)
			want := buildMRCTStack(s)
			for k := 1; k <= 5; k++ {
				if d := mrctDiff(chunkedBuild(t, s, k), want); d != "" {
					t.Fatalf("k=%d: %s", k, d)
				}
			}
		})
	}
	for _, in := range chunkBoundaryInputs() {
		t.Run(in.name, func(t *testing.T) {
			s := trace.Strip(in.tr)
			if d := mrctDiff(chunkedBuild(t, s, in.k), buildMRCTStack(s)); d != "" {
				t.Fatalf("k=%d: %s", in.k, d)
			}
		})
	}
	t.Run("compiled", func(t *testing.T) {
		// The chunk goroutines run under -race on the inputs above; the
		// 11 M compiled references would take minutes there.
		if testing.Short() || raceEnabled {
			t.Skip("the compiled streams are 11 M references")
		}
		for _, name := range powerstone.Names() {
			res, err := minicbench.Get(name).Run()
			if err != nil {
				t.Fatal(err)
			}
			for stream, tr := range map[string]*trace.Trace{"instr": res.Instr, "data": res.Data} {
				s := trace.Strip(tr)
				if d := mrctDiff(chunkedBuild(t, s, 2), chunkedBuild(t, s, 1)); d != "" {
					t.Fatalf("%s.%s: %s", name, stream, d)
				}
			}
		}
	})
}

// failAfter is a context whose Err fails from its n-th call on: it
// reports Canceled, or panics with panicValue when that is set. A build
// meets the failure mid-flight, at a known point.
type failAfter struct {
	context.Context
	calls      atomic.Int64
	n          int64
	panicValue any
}

func (c *failAfter) Err() error {
	if c.calls.Add(1) < c.n {
		return nil
	}
	if c.panicValue != nil {
		panic(c.panicValue)
	}
	return context.Canceled
}

// A chunked build cancelled mid-flight returns ctx's error, and no chunk
// runs to its end: each of the four chunks needs 25 checks to finish, and
// the context cancels at the 20th check of the build.
func TestMRCTChunkedCancelMidRun(t *testing.T) {
	s := trace.Strip(bigTrace(4*25*4096, 1<<8))
	ctx := &failAfter{Context: context.Background(), n: 20}
	sc := &Scratch{}
	if err := buildMRCTChunks(ctx, s, sc, &MRCT{}, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	for j, c := range sc.chunks {
		if c.err == nil {
			t.Errorf("chunk %d ran to its end after the cancellation", j)
		}
	}
}

// A chunk's panic is raised again on the goroutine that called the build,
// once every chunk has stopped.
func TestMRCTChunkedPanicReraised(t *testing.T) {
	s := trace.Strip(bigTrace(4*25*4096, 1<<8))
	want := errors.New("chunk panic")
	ctx := &failAfter{Context: context.Background(), n: 20, panicValue: want}
	var raised any
	func() {
		defer func() { raised = recover() }()
		_ = buildMRCTChunks(ctx, s, &Scratch{}, &MRCT{}, 4)
	}()
	if raised != want {
		t.Fatalf("caller recovered %v, want the chunk's panic %v", raised, want)
	}
}

// mrctSpan builds s's table under a span recorder and returns the mrct
// span's attributes.
func mrctSpan(t *testing.T, s *trace.Stripped) (*MRCT, map[string]any) {
	t.Helper()
	rec := obs.NewRecorder(0)
	m, err := BuildMRCTContext(obs.WithRecorder(context.Background(), rec), s)
	if err != nil {
		t.Fatal(err)
	}
	spans := spansByName(rec.Export())["mrct"]
	if len(spans) != 1 {
		t.Fatalf("%d mrct spans, want 1", len(spans))
	}
	return m, spans[0].Attrs
}

// thueMorse is bit i of the Thue–Morse word, which has no overlap: no
// factor of length 2P+1 with period P.
func thueMorse(i int) int { return bits.OnesCount(uint(i)) & 1 }

// aperiodicIDs is n references over ids 0..nu-1 that no fold can take: the
// Thue–Morse word itself at nu = 2, and at nu ≥ 3 the walk that steps
// 1 + thueMorse(i) ids ahead (mod nu) at reference i. A fold needs three
// loop periods in a row, and the walk's steps would then hold an overlap.
// At nu ≥ 3 no reference repeats its predecessor either.
func aperiodicIDs(nu, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		switch {
		case nu == 2:
			ids[i] = thueMorse(i)
		case i > 0:
			ids[i] = (ids[i-1] + 1 + thueMorse(i)) % nu
		}
	}
	return ids
}

// Trace lengths one before, exactly on and one after the first and the
// second compaction, and past several: the renumbering must not disturb
// the table. The lengths are where a trace whose every reference takes a
// time, over all nu ids from the start, compacts; the traces are
// aperiodic (aperiodicIDs), so no loop period folds away the times the
// compactions are due to, and compactionRefs replays the schedule
// exactly. At nu = 1 every reference after the second is a same-word run
// that folds, so no compaction is ever due; at nu = 2 the same-word
// repeats of the Thue–Morse word take no time and shift the compactions.
func TestMRCTCompactionBoundaries(t *testing.T) {
	for _, nu := range []int{1, 2, 5, 64} {
		w, gap := fenwickSpan(nu), fenwickSpan(nu)-nu
		for _, n := range []int{w, w + 1, w + 2, w + gap, w + gap + 1, w + gap + 2, w + 3*gap + 1} {
			t.Run(fmt.Sprintf("nu%d/n%d", nu, n), func(t *testing.T) {
				s := trace.Strip(idTrace(aperiodicIDs(nu, n)...))
				m, attrs := mrctSpan(t, s)
				folded, repeats := sameWordWork(s)
				for name, want := range map[string]int{"compactions": wantCompactions(s),
					"folded": folded, "repeats": repeats} {
					if got := attrs[name]; got != want {
						t.Errorf("%s = %v, want %d", name, got, want)
					}
				}
				if nu > 1 && n == w+3*gap+1 && wantCompactions(s) < 2 {
					t.Errorf("%d compactions, want the trace to reach several", wantCompactions(s))
				}
				if d := mrctDiff(m, buildMRCTStack(s)); d != "" {
					t.Fatal(d)
				}
			})
		}
	}
}

// One pooled Scratch reused big → small → big, serially and in chunks:
// stale last-access times, slots, tree nodes or chunk tables from an
// earlier build would show up here.
func TestMRCTPooledScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	big := trace.Strip(tracegen.Uniform(rng, 0, 700, 20000))
	small := trace.Strip(hotColdTrace(40))
	for _, chunks := range [][]int{{1, 1, 1, 1}, {3, 2, 2, 3}} {
		sc := &Scratch{}
		for i, s := range []*trace.Stripped{big, small, big, small} {
			if err := buildMRCTChunks(context.Background(), s, sc, &sc.mrct, chunks[i]); err != nil {
				t.Fatal(err)
			}
			if d := mrctDiff(&sc.mrct, buildMRCTStack(s)); d != "" {
				t.Fatalf("build %d in %d chunks: %s", i, chunks[i], d)
			}
		}
	}
}

// A chunked table is carved from its own scratch alone: rebuilding every
// other chunk's scratch on another trace, which rewrites their arenas,
// leaves it intact. Packed sets are covered, as the universe of 64 ids
// packs every set of eight or more.
func TestMRCTChunkedOwnsItsStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s := trace.Strip(tracegen.Uniform(rng, 0, 64, 20000))
	other := trace.Strip(tracegen.Uniform(rng, 0, 64, 20000))
	sc, m := &Scratch{}, &MRCT{}
	if err := buildMRCTChunks(context.Background(), s, sc, m, 4); err != nil {
		t.Fatal(err)
	}
	if m.PackedSets() == 0 {
		t.Fatal("no packed sets to cover")
	}
	for _, c := range sc.chunks[1:] {
		if err := buildMRCTChunks(context.Background(), other, c.sc, &c.sc.mrct, 1); err != nil {
			t.Fatal(err)
		}
	}
	if d := mrctDiff(m, buildMRCTStack(s)); d != "" {
		t.Fatal(d)
	}
}

// TestBuildMRCTContextOwnsItsTable: BuildMRCTContext builds through a
// pooled scratch but carves the table from storage of its own, so
// explorations that draw the same scratch from the pool afterwards leave
// the table it returned intact. On one P the pool hands the scratch
// straight back.
func TestBuildMRCTContextOwnsItsTable(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	rng := rand.New(rand.NewSource(43))
	s := trace.Strip(tracegen.Uniform(rng, 0, 64, 20000))
	m, err := BuildMRCTContext(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if m.PackedSets() == 0 {
		t.Fatal("no packed sets to cover")
	}
	for range 3 {
		if _, err := Explore(context.Background(), tracegen.Uniform(rng, 0, 64, 20000), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if d := mrctDiff(m, buildMRCTStack(s)); d != "" {
		t.Fatal(d)
	}
}

// pooledSeed is the trace pooledBuild runs first: its universe and set
// table are far larger than the small traces built after it, so the dedup
// table has grown and the per-set and per-id buffers hold stale entries.
var pooledSeed = trace.Strip(tracegen.Uniform(rand.New(rand.NewSource(41)), 0, 500, 8000))

// pooledBuild builds s through a Scratch that has already built
// pooledSeed.
func pooledBuild(t testing.TB, s *trace.Stripped) *MRCT {
	t.Helper()
	sc := &Scratch{}
	for _, in := range []*trace.Stripped{pooledSeed, s} {
		if err := buildMRCT(context.Background(), in, sc, &sc.mrct); err != nil {
			t.Fatal(err)
		}
	}
	return &sc.mrct
}

// Each way a recurrence can find its set, and each way its occurrence can
// be counted, on a trace small enough for the literal double loop: the
// span counts show the path was taken, and the table must equal the
// stack-walk oracle's, fresh and through a reused Scratch.
func TestMRCTBookkeepingPaths(t *testing.T) {
	cases := []struct {
		name         string
		ids          []int
		memoHits     int
		folded       int
		repeats      int
		overflowRuns int
	}{
		// u x u w x w y w: w's first window {x} is u's set, so w counts it
		// as an overflow run, listed before w's own later set {y}.
		{"shared-window", []int{0, 1, 0, 2, 1, 2, 3, 2}, 0, 0, 0, 1},
		// a's windows alternate {x}, {y}: its previous window never
		// matches, so the dedup table finds the set; x and y repeat theirs.
		{"alternating-windows", []int{0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2}, 2, 0, 0, 0},
		// a b c a b c a c b a b c a b c a: the swapped c b of the third
		// round breaks every loop period, so nothing folds, while a's
		// window stays {b, c}: a's previous window resolves four of its
		// recurrences, b's and c's one each. The swap gives b the window
		// {a}, which c listed first: one overflow run.
		{"repeated-window", []int{0, 1, 2, 0, 1, 2, 0, 2, 1, 0, 1, 2, 0, 1, 2, 0}, 6, 0, 0, 1},
		// a b c four times: the third and fourth periods repeat the second
		// and are counted against its sets, unread and untimed.
		{"folded-loop", []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}, 0, 6, 0, 0},
		// d u x u w x w three times: w's window {x} is u's set, and the
		// folded third period counts w's occurrence of it as overflow too.
		{"folded-shared-window", []int{3, 0, 1, 0, 2, 1, 2, 3, 0, 1, 0, 2, 1, 2, 3, 0, 1, 0, 2, 1, 2}, 0, 7, 0, 1},
		// a a b b: a's repeat lists the empty set; b's is a same-word
		// repeat, counted against a's set as overflow.
		{"same-word-repeat", []int{0, 0, 1, 1}, 0, 0, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := trace.Strip(idTrace(c.ids...))
			m, attrs := mrctSpan(t, s)
			for name, want := range map[string]int{"memo_hits": c.memoHits, "folded": c.folded,
				"repeats": c.repeats, "overflow_runs": c.overflowRuns} {
				if got := attrs[name]; got != want {
					t.Errorf("%s = %v, want %d", name, got, want)
				}
			}
			want := buildMRCTStack(s)
			if d := mrctDiff(m, want); d != "" {
				t.Fatal(d)
			}
			if d := mrctDiff(pooledBuild(t, s), want); d != "" {
				t.Fatalf("pooled: %s", d)
			}
			checkNaive(t, m, s)
		})
	}
}

// The certificate that resolves a recurrence by its id's previous window
// S, recorded at b, without reading S: |S| = p and no reference in
// (b, c) had a conflict set larger than p, a cold one counting as larger
// than any. Each trace is built in k chunks and held to the stack-walk
// oracle and the literal double loop, and memo_hits counts exactly the
// recurrences the certificate resolves, folded and repeats the references
// that never reach it. Ids are written a=0, b=1, c=2, d=3, e=4.
func TestMRCTMemoCertificate(t *testing.T) {
	cases := []struct {
		name     string
		ids      []int
		k        int
		memoHits int
		folded   int
		repeats  int
	}{
		// a b c a c b a: the last a has S = W = {b, c}, p = 2; between its
		// occurrences c reaches 1 and b exactly 2.
		{"reaches-p", []int{0, 1, 2, 0, 2, 1, 0}, 1, 1, 0, 0},
		// a b c a b c a d c a: the third a is a hit. d, cold, right after
		// it swaps into the windows of the next c ({a, d}, S = {a, b})
		// and the last a ({d, c}, S = {b, c}): equal sizes, no hit.
		{"cold-right-after", []int{0, 1, 2, 0, 1, 2, 0, 3, 2, 0}, 1, 1, 0, 0},
		// a b c a b c a c d a: the cold d lands one reference later, so
		// the last a's window {c, d} is no longer its b+1's.
		{"cold-later", []int{0, 1, 2, 0, 1, 2, 0, 2, 3, 0}, 1, 1, 0, 0},
		// e a b c a b c a e c a: e recurs from outside S at depth 4 (a
		// conflict set of 3 > p = 2) and swaps into the next windows of c
		// and a as d did above.
		{"outside", []int{4, 0, 1, 2, 0, 1, 2, 0, 4, 2, 0}, 1, 1, 0, 0},
		// a a a and a b b b a b: back-to-back recurrences have an empty
		// window, and the first lists the empty set. The rest never reach
		// the certificate: a run of them folds with period 1, and a lone
		// one after the listing is a same-word repeat (a a b b). The last
		// b's window {a} is not its empty previous one.
		{"back-to-back", []int{0, 0, 0}, 1, 0, 1, 0},
		{"back-to-back-then-not", []int{0, 1, 1, 1, 0, 1}, 1, 0, 1, 0},
		{"back-to-back-lone", []int{0, 0, 1, 1, 0, 1}, 1, 0, 0, 1},
		// a b c a c b | a b c a c b: a's window is {b, c} every time, and
		// the serial build hits it at a's second and third recurrences.
		// Chunk 1 starts with every id's previous window in chunk 0, so
		// its first a has no memo and only its second hits. Nothing
		// repeats for three periods, so nothing folds.
		{"straddle-k1", []int{0, 1, 2, 0, 2, 1, 0, 1, 2, 0, 2, 1}, 1, 2, 0, 0},
		{"straddle-k2", []int{0, 1, 2, 0, 2, 1, 0, 1, 2, 0, 2, 1}, 2, 1, 0, 0},
		// a b c four times: the serial build folds the last two periods,
		// so it never needs a memo; in two chunks neither chunk holds
		// three periods, and chunk 1's second period is three hits.
		{"straddle-loop-k1", []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}, 1, 0, 6, 0},
		{"straddle-loop-k2", []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}, 2, 3, 0, 0},
		// e a b c a b c a | b c a e c a b c: in chunk 1, e is seeded, not
		// cold, and recurs with a conflict set of 3 > 2, which bars the
		// previous windows of c, a and c after it. The serial build folds
		// the third a b c period and hits a's window after it: a's memo
		// was recorded before the fold, and the folded references leave
		// no peak behind.
		{"straddle-seeded-k1", []int{4, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 4, 2, 0, 1, 2}, 1, 1, 3, 0},
		{"straddle-seeded-k2", []int{4, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 4, 2, 0, 1, 2}, 2, 1, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := trace.Strip(idTrace(c.ids...))
			rec := obs.NewRecorder(0)
			m := &MRCT{}
			if err := buildMRCTChunks(obs.WithRecorder(context.Background(), rec), s, &Scratch{}, m, c.k); err != nil {
				t.Fatal(err)
			}
			attrs := spansByName(rec.Export())["mrct"][0].Attrs
			for name, want := range map[string]int{"memo_hits": c.memoHits, "folded": c.folded, "repeats": c.repeats} {
				if got := attrs[name]; got != want {
					t.Errorf("%s = %v, want %d", name, got, want)
				}
			}
			if d := mrctDiff(m, buildMRCTStack(s)); d != "" {
				t.Fatal(d)
			}
			checkNaive(t, m, s)
		})
	}
}

// loopIDs is body repeated reps times, ids for idTrace.
func loopIDs(body []int, reps int) []int {
	var ids []int
	for range reps {
		ids = append(ids, body...)
	}
	return ids
}

// loopFolded is what the serial build folds of a loop of n references
// over a period of p that no id occurs in twice: the run of matches
// starts at reference p, covers a whole period at 2p-1, and each look-ahead
// from there folds one more period while one fits.
func loopFolded(p, n int) int {
	if n < 2*p {
		return 0
	}
	return (n - 2*p) / p * p
}

// foldRingBody is a loop period of p references: id 3 once, then the
// aperiodic walk over ids 0..2 (aperiodicIDs), so the period is found
// through id 3 alone and nothing inside it folds.
func foldRingBody(p int) []int {
	return append([]int{3}, aperiodicIDs(3, p-1)...)
}

// TestMRCTFold holds the folding build to the stack-walk oracle and the
// literal double loop at 1..4 chunks, on traces made of repeated loop
// periods and same-word runs. folded is what the serial build folds,
// -1 where it is only required to fold something.
func TestMRCTFold(t *testing.T) {
	// a b a b a b c: a's window alternates between {b} and {b, c}. Each of
	// the first two outer periods folds one inner period of a b; from the
	// third, the run of c's period 7 spans the inner loops, and every
	// outer period that fits after it folds: 27 of them in 30.
	nested := loopIDs([]int{0, 1, 0, 1, 0, 1, 2}, 30)
	// Ten ids in a loop, broken by a stray id 10 after every fourth
	// period.
	broken := loopIDs(append(loopIDs(cyclicIDs(10, 10), 4), 10), 8)
	// Runs of 1 to 12 of the same id over an aperiodic walk of 5 ids.
	var runs []int
	for i, id := range aperiodicIDs(5, 300) {
		for range 1 + 3*thueMorse(i) + 8*thueMorse(i/3) {
			runs = append(runs, id)
		}
	}
	cases := []struct {
		name   string
		ids    []int
		folded int
	}{
		{"pure-loop", cyclicIDs(40, 1200), loopFolded(40, 1200)},
		{"nested-loops", nested, 2 + 2 + 27*7},
		{"broken-loop", broken, -1},
		// 7 does not divide the chunk lengths, so chunk starts fall
		// inside periods.
		{"straddle", cyclicIDs(7, 7*20+3), loopFolded(7, 7*20+3)},
		{"same-word-runs", runs, -1},
		{"ring-bound", loopIDs(foldRingBody(foldRingMax), 4), loopFolded(foldRingMax, 4*foldRingMax)},
		{"past-ring-bound", loopIDs(foldRingBody(foldRingMax+1), 4), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := trace.Strip(idTrace(c.ids...))
			want := buildMRCTStack(s)
			for k := 1; k <= 4; k++ {
				rec := obs.NewRecorder(0)
				m := &MRCT{}
				if err := buildMRCTChunks(obs.WithRecorder(context.Background(), rec), s, &Scratch{}, m, k); err != nil {
					t.Fatal(err)
				}
				if d := mrctDiff(m, want); d != "" {
					t.Fatalf("k=%d: %s", k, d)
				}
				if k > 1 {
					continue // equal to the k = 1 table, checked below
				}
				folded := spansByName(rec.Export())["mrct"][0].Attrs["folded"].(int)
				if c.folded >= 0 && folded != c.folded || c.folded < 0 && folded == 0 {
					t.Errorf("folded = %d, want %d", folded, c.folded)
				}
				checkNaive(t, m, s)
			}
		})
	}
}

// A build cancelled while it folds a long loop stops at the next check:
// the folded references are checked every 4096 as the others are. A
// loop of 1 M references over 1 000 ids is nearly all folded; the context
// cancels at its 20th check, about 80 000 references in.
func TestMRCTFoldCancel(t *testing.T) {
	s := trace.Strip(cyclicTrace(1000, 1<<20))
	// Uncancelled, the build checks once on entry and once per 4096
	// references.
	count := &failAfter{Context: context.Background(), n: math.MaxInt64}
	if err := buildMRCTChunks(count, s, &Scratch{}, &MRCT{}, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := count.calls.Load(), int64(1+s.N()/4096); got != want {
		t.Errorf("%d context checks, want %d", got, want)
	}
	ctx := &failAfter{Context: context.Background(), n: 20}
	if err := buildMRCTChunks(ctx, s, &Scratch{}, &MRCT{}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if got := ctx.calls.Load(); got != 20 {
		t.Errorf("%d context checks, want the build to stop at the 20th", got)
	}
}

// checkNaive holds m's expanded conflict sets to the literal double loop
// of Algorithm 2. ConflictSets groups an id's occurrences by set, so the
// two expansions are compared as multisets.
func checkNaive(t *testing.T, m *MRCT, s *trace.Stripped) {
	t.Helper()
	for id, want := range BuildMRCTNaive(s) {
		got := m.ConflictSets(id)
		slices.SortFunc(got, slices.Compare[[]int32])
		slices.SortFunc(want, slices.Compare[[]int32])
		if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
			t.Fatalf("id %d: conflict sets %v, want %v", id, got, want)
		}
	}
}

// fuzzScratch is the Scratch FuzzBuildMRCT builds its inputs through: it
// builds pooledSeed once per process and then every input in turn, under
// its mutex, so each input meets the seed's grown tables and the stale
// entries of the builds before it, without paying for the seed's build.
var fuzzScratch struct {
	sync.Mutex
	sc *Scratch
}

// fuzzPooledDiff builds s through fuzzScratch and diffs the table against
// want.
func fuzzPooledDiff(t *testing.T, s *trace.Stripped, want *MRCT) string {
	t.Helper()
	fuzzScratch.Lock()
	defer fuzzScratch.Unlock()
	if fuzzScratch.sc == nil {
		fuzzScratch.sc = &Scratch{}
		if err := buildMRCT(context.Background(), pooledSeed, fuzzScratch.sc, &fuzzScratch.sc.mrct); err != nil {
			fuzzScratch.sc = nil
			t.Fatal(err)
		}
	}
	sc := fuzzScratch.sc
	if err := buildMRCT(context.Background(), s, sc, &sc.mrct); err != nil {
		t.Fatal(err)
	}
	return mrctDiff(&sc.mrct, want)
}

// fuzzUniverse is the fixed address table fuzz bytes index into.
const fuzzUniverse = 24

// FuzzBuildMRCT drives the build with byte traces over a fixed universe:
// the input itself and its periodic expansion (periodicBytes). Each table
// must equal the stack-walk oracle's, fresh, through a Scratch reused
// after a larger build (fuzzScratch), and built in 1 + b[0]%4 chunks, and
// its expanded conflict sets the literal double loop of Algorithm 2.
func FuzzBuildMRCT(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Add([]byte{3, 3, 3, 3})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, the quick brown fox"))
	// Periodic seeds: a loop body repeated, bare and broken by a stray
	// reference every period or every few.
	f.Add([]byte{1, 8, 0xff, 0, 1, 2, 3, 4})
	f.Add([]byte{2, 15, 0x25, 0, 1, 0, 1, 2})
	f.Add([]byte{3, 6, 0x47, 5, 5, 6, 7, 7, 7})
	f.Add([]byte{0, 12, 0x0b, 1, 2, 3, 1, 2, 4, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1024 {
			b = b[:1024] // keep the O(N·N') naive build cheap
		}
		k := 1
		if len(b) > 0 {
			k = 1 + int(b[0])%4
		}
		for _, in := range [][]byte{b, periodicBytes(b)} {
			s := trace.Strip(traceFromBytes(in, fuzzUniverse))
			m, want := BuildMRCT(s), buildMRCTStack(s)
			if d := mrctDiff(m, want); d != "" {
				t.Fatal(d)
			}
			if d := fuzzPooledDiff(t, s, want); d != "" {
				t.Fatalf("pooled: %s", d)
			}
			if d := mrctDiff(chunkedBuild(t, s, k), want); d != "" {
				t.Fatalf("%d chunks: %s", k, d)
			}
			checkNaive(t, m, s)
		}
	})
}

// periodicBytes expands a fuzz input into a loop: b[3:] is the body,
// repeated 2 + b[1]%16 times, and b[2] the break: a stray reference to
// b[2] after every (1 + b[2]>>5)-th period, none when that is 8. The
// expansion stops at 1024 references; inputs under four bytes expand to
// nothing.
func periodicBytes(b []byte) []byte {
	if len(b) < 4 {
		return nil
	}
	body, reps, every := b[3:], 2+int(b[1])%16, 1+int(b[2]>>5)
	var out []byte
	for r := 1; r <= reps && len(out)+len(body) <= 1024; r++ {
		out = append(out, body...)
		if every < 8 && r%every == 0 {
			out = append(out, b[2])
		}
	}
	return out
}

// BenchmarkBuildMRCT times the conflict-table build alone, each build
// through its own reused scratch: a loop-heavy trace (deep windows, nearly
// all dedup hits) and a Zipf trace with a large universe (many distinct
// windows), each with the stack-walk oracle beside the serial Fenwick
// build; and the two streams of the compiled compress kernel, where the
// compiled-stream benchmark workload spends its time — compress.instr
// (N = 2.72 M, N' = 488) resolves nearly every recurrence through the
// id's previous window, compress.data (N = 1.18 M, 37 743 distinct sets)
// mostly through the dedup table. The oracle's stack walk is too slow to
// run on those; instead the chunked build, in chunkCount(N) chunks, runs
// beside the serial one, and /context times BuildMRCTContext, the
// server's prelude build: a pooled build whose table gets storage of its
// own, which the caller keeps.
func BenchmarkBuildMRCT(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	compress, err := minicbench.Get("compress").Run()
	if err != nil {
		b.Fatal(err)
	}
	inputs := []struct {
		name   string
		tr     *trace.Trace
		oracle bool
	}{
		{"loop", tracegen.Mixed(tracegen.Loop(0, 600, 150), tracegen.Loop(10000, 40, 500)), true},
		{"zipf", tracegen.Zipf(rng, 0, 20000, 60000, 1.2), true},
		{"compiled-compress.instr", compress.Instr, false},
		{"compiled-compress.data", compress.Data, false},
	}
	for _, in := range inputs {
		s := trace.Strip(in.tr)
		if in.oracle {
			b.Run(in.name+"/oracle", func(b *testing.B) {
				sc := &oracleScratch{}
				m := &MRCT{}
				for i := 0; i < b.N; i++ {
					if err := buildMRCTOracle(context.Background(), s, sc, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(in.name+"/fenwick", func(b *testing.B) {
			sc := &Scratch{}
			for i := 0; i < b.N; i++ {
				if err := buildMRCTChunks(context.Background(), s, sc, &sc.mrct, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		if in.oracle {
			continue
		}
		b.Run(in.name+"/chunked", func(b *testing.B) {
			sc := &Scratch{}
			for i := 0; i < b.N; i++ {
				if err := buildMRCT(context.Background(), s, sc, &sc.mrct); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/context", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildMRCTContext(context.Background(), s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
