package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// scratchTestTrace builds a mid-sized mixed trace whose exploration
// exercises every pooled structure: dedup chains, sparse and packed
// conflict sets, multi-level DFS pairs.
func scratchTestTrace(seed int64, n, unique int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(n)
	for i := 0; i < n; i++ {
		tr.Append(trace.Ref{Addr: uint32(rng.Intn(unique)) * 4, Kind: trace.Kind(i % 3)})
	}
	return tr
}

// The steady-state allocation gate: once the shared pool is warm, Explore
// must allocate only the Result envelope it hands to the caller — a few
// dozen objects — not per-reference or per-set garbage. The bound is
// deliberately loose (the measured value is ~25) so it trips on a pooling
// regression, not on envelope-shape tweaks.
func TestAllocsSteadyStateExplore(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := scratchTestTrace(7, 20000, 300)
	run := func() {
		if _, err := Explore(context.Background(), tr, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	// A GC between runs may drop pooled scratch (sync.Pool semantics) and
	// charge a full rebuild to one unlucky run; pause collection so the
	// gate measures the steady state it claims to.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10, run)
	const maxAllocs = 200
	if allocs > maxAllocs {
		t.Fatalf("steady-state Explore allocates %.0f objects/op, want <= %d", allocs, maxAllocs)
	}
}

// The chunked build keeps its chunks' scratch pooled too: 300 K
// references in 60 working-set phases are built in at least two chunks,
// and a warm Explore of them stays under the same gate as the
// 20 K-reference one (measured: ~30). The phases give each chunk
// thousands of distinct sets, so a chunk scratch made afresh per build
// would cost ~270 objects and trip it.
func TestAllocsSteadyStateExploreChunked(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	tr := tracegen.WorkingSetPhases(rand.New(rand.NewSource(19)), 60, 5000, 16)
	if k := chunkCount(tr.Len()); k < 2 {
		t.Fatalf("a %d-reference trace is built in %d chunk, want at least 2", tr.Len(), k)
	}
	run := func() {
		if _, err := Explore(context.Background(), tr, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// testing.AllocsPerRun pins GOMAXPROCS to 1, which would build in one
	// chunk, so the gate counts the mallocs of ten runs itself.
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	const maxAllocs = 200
	if allocs > maxAllocs {
		t.Fatalf("steady-state chunked Explore allocates %.0f objects/op, want <= %d", allocs, maxAllocs)
	}
}

// Streaming explores carry no length hint; they must still converge onto
// warm scratch rather than re-growing a fresh Scratch every call.
func TestAllocsSteadyStateExploreStream(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// The stream path additionally allocates its reader per run.
	const maxAllocs = 250
	tr := scratchTestTrace(11, 20000, 300)
	run := func() {
		if _, err := Explore(context.Background(), trace.RefReader(trace.NewReader(tr)), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10, run)
	if allocs > maxAllocs {
		t.Fatalf("steady-state streaming Explore allocates %.0f objects/op, want <= %d", allocs, maxAllocs)
	}

	// A ctz1 image is stripped in parallel: its framing, the parts'
	// range-local indexes and remaps live in the pooled strip. The image
	// is long enough for two parts, and testing.AllocsPerRun would pin
	// GOMAXPROCS to 1, so the mallocs of ten runs are counted here, at
	// two cores, which split the image in two parts whatever the host's
	// core count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var img bytes.Buffer
	if err := trace.WriteCTZ1(&img, scratchTestTrace(11, 100_000, 300)); err != nil {
		t.Fatal(err)
	}
	explore := func(ctx context.Context) {
		dec, err := trace.NewCTZ1BytesDecoder(img.Bytes(), trace.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Explore(ctx, dec, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	rec := obs.NewRecorder(0)
	explore(obs.WithRecorder(context.Background(), rec))
	if w := spansByName(rec.Export())["strip"][0].Attrs["workers"]; w != 2 {
		t.Fatalf("the ctz1 image was stripped by %v workers, want 2", w)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		explore(context.Background())
	}
	runtime.ReadMemStats(&after)
	if allocs := float64(after.Mallocs-before.Mallocs) / runs; allocs > maxAllocs {
		t.Fatalf("steady-state Explore of a ctz1 image allocates %.0f objects/op, want <= %d", allocs, maxAllocs)
	}
}

// Warm pooled runs must be bit-identical to the cold first run and to the
// materialised-BCAT engine: reused arenas and freelists may never leak
// state between explorations.
func TestPooledRunsBitIdentical(t *testing.T) {
	tr := scratchTestTrace(13, 8000, 200)
	cold, err := Explore(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		warm, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(cold, warm) {
			t.Fatalf("warm pooled run %d differs from cold run", run)
		}
	}
	s := trace.Strip(tr)
	bcat, err := exploreBCAT(context.Background(), s, BuildMRCT(s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(cold, bcat) {
		t.Fatal("pooled DFS differs from the materialised BCAT")
	}
	// Interleave a differently-shaped trace through the same pool, then
	// re-run the original: a stale-arena read would surface here.
	if _, err := Explore(context.Background(), scratchTestTrace(17, 500, 40), Options{}); err != nil {
		t.Fatal(err)
	}
	again, err := Explore(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsIdentical(cold, again) {
		t.Fatal("pooled run differs after interleaved exploration")
	}
}

// ScratchPool churn under concurrency: many goroutines explore distinct
// traces through the shared pool simultaneously. Primarily a -race
// target — any sharing of live scratch between two explorations is a
// detected race — but the result checks also catch value corruption in
// non-race runs.
func TestScratchPoolConcurrentChurn(t *testing.T) {
	const goroutines = 8
	const iters = 6
	type job struct {
		tr   *trace.Trace
		want *Result
	}
	jobs := make([]job, goroutines)
	for g := range jobs {
		tr := scratchTestTrace(int64(100+g), 2000+g*311, 60+g*13)
		want, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs[g] = job{tr: tr, want: want}
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(j job, g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := Explore(context.Background(), j.tr, Options{})
				if err != nil {
					errs <- err
					return
				}
				if !resultsIdentical(j.want, got) {
					errs <- fmt.Errorf("goroutine %d iter %d: result corrupted under churn", g, i)
					return
				}
			}
		}(jobs[g], g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// putThenGet returns sc to the pool and asks it for a scratch of the given
// hint. Under the race detector sync.Pool drops a quarter of its Puts on
// purpose, so a race build repeats the round trip until a Put is kept; a
// normal build answers from the first one.
func putThenGet(p *ScratchPool, sc *Scratch, hint int) *Scratch {
	for i := 0; ; i++ {
		p.Put(sc)
		got := p.Get(hint)
		if got == sc || !raceEnabled || i == 64 {
			return got
		}
	}
}

// The pool serves hint-less requests (streaming sources) from whatever
// warm scratch exists and files returns under the largest dimension the
// scratch has served, so alternating sized and streaming explorations
// share one scratch instead of ping-ponging two.
func TestScratchPoolHintRouting(t *testing.T) {
	var p ScratchPool
	sc := p.Get(100_000)
	sc.note(100_000)
	if got := putThenGet(&p, sc, 0); got != sc {
		t.Fatal("hint-0 Get did not find the warm scratch")
	}
	if got := putThenGet(&p, sc, 50_000); got != sc {
		t.Fatal("smaller-hint Get did not find the larger warm scratch")
	}
	p.Put(sc)
	// A scratch that only ever served small jobs is not handed to a
	// much larger request's class... but larger requests scan upward from
	// their own class, so a small scratch is simply not found.
	small := p.Get(1 << 30)
	if small == sc {
		t.Fatal("warm scratch from a lower class served a much larger hint")
	}
}
