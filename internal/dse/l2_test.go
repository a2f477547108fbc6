package dse

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/trace"
)

func mixedTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New(0)
	for i := 0; i < n; i++ {
		k := trace.DataRead
		if rng.Intn(4) == 0 {
			k = trace.DataWrite
		}
		tr.Append(trace.Ref{Addr: uint32(rng.Intn(200)), Kind: k})
	}
	return tr
}

func TestFilterThroughL1Basic(t *testing.T) {
	// All hits after warmup: the filtered stream is just the cold fills.
	tr := trace.FromAddrs(trace.DataRead, []uint32{1, 2, 1, 2, 1, 2})
	filtered, err := FilterThroughL1(tr, cache.Config{Depth: 4, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Len() != 2 {
		t.Fatalf("filtered length %d, want 2 cold fills", filtered.Len())
	}
}

func TestFilterThroughL1Writebacks(t *testing.T) {
	tr := trace.New(0)
	tr.Append(trace.Ref{Addr: 0, Kind: trace.DataWrite})
	tr.Append(trace.Ref{Addr: 8, Kind: trace.DataRead}) // evicts dirty 0
	filtered, err := FilterThroughL1(tr, cache.Config{Depth: 1, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Stream: read 0 (miss), write 0 (victim writeback), read 8 (miss).
	if filtered.Len() != 3 {
		t.Fatalf("filtered = %+v, want 3 refs", filtered.Refs)
	}
	if filtered.Refs[1] != (trace.Ref{Addr: 0, Kind: trace.DataWrite}) {
		t.Fatalf("writeback ref = %+v", filtered.Refs[1])
	}
}

func TestFilterThroughL1BadConfig(t *testing.T) {
	if _, err := FilterThroughL1(trace.New(0), cache.Config{Depth: 3, Assoc: 1}); err == nil {
		t.Fatal("bad L1 accepted")
	}
}

// The load-bearing equivalence: simulating any L2 on the filtered stream
// reproduces the L2 of a real two-level hierarchy exactly.
func TestFilteredStreamMatchesHierarchy(t *testing.T) {
	tr := mixedTrace(5, 4000)
	l1 := cache.Config{Depth: 8, Assoc: 1}
	filtered, err := FilterThroughL1(tr, l1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l2 := range []cache.Config{
		{Depth: 32, Assoc: 1},
		{Depth: 64, Assoc: 2},
		{Depth: 256, Assoc: 4},
	} {
		h, err := cache.NewHierarchy(l1, l2)
		if err != nil {
			t.Fatal(err)
		}
		h.Run(tr)
		standalone, err := cache.Simulate(l2, filtered)
		if err != nil {
			t.Fatal(err)
		}
		if h.L2.Results() != standalone {
			t.Fatalf("L2 %v: hierarchy %+v != filtered standalone %+v",
				l2, h.L2.Results(), standalone)
		}
	}
}

// And therefore the analytical exploration of the filtered stream counts
// real hierarchy L2 misses exactly.
func TestExploreL2MatchesHierarchy(t *testing.T) {
	tr := mixedTrace(7, 3000)
	l1 := cache.Config{Depth: 16, Assoc: 1}
	filtered, err := FilterThroughL1(tr, l1)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Len() == 0 {
		t.Fatal("empty filtered stream")
	}
	r, err := core.Explore(context.Background(), filtered, core.Options{MaxDepth: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 8, 32, 128} {
		for _, assoc := range []int{1, 2, 4} {
			h, err := cache.NewHierarchy(l1, cache.Config{Depth: depth, Assoc: assoc})
			if err != nil {
				t.Fatal(err)
			}
			h.Run(tr)
			if got, want := r.Level(depth).Misses(assoc), h.L2.Results().Misses; got != want {
				t.Errorf("L2 D=%d A=%d: analytical %d != hierarchy %d", depth, assoc, got, want)
			}
		}
	}
}

// TestSplitFilterMatchesPerCacheFilters ties the split first level behind
// explore -levels 2 to FilterThroughL1, which the two tests above hold to
// cache.Hierarchy. Each L1 sees only its own kind, in order, and L1I
// lines are never dirty, so the instruction-kind subsequence of the split
// filter's output is FilterThroughL1 over the instruction stream and the
// data-kind subsequence is FilterThroughL1 over the data stream.
func TestSplitFilterMatchesPerCacheFilters(t *testing.T) {
	writebacks := 0
	for _, name := range []string{"crc", "des", "engine", "ucbqsort"} {
		res := kernelStreams(t, name)
		tr := mergeStreams(res.Instr, res.Data)
		instr, data := tr.Split()
		for _, pol := range []core.Policy{core.PolicyLRU, core.PolicyFIFO, core.PolicyRandom, core.PolicyPLRU} {
			for _, geom := range []struct{ l1i, l1d cache.Config }{
				{cache.Config{Depth: 8, Assoc: 1}, cache.Config{Depth: 8, Assoc: 1}},
				{cache.Config{Depth: 16, Assoc: 2, LineWords: 4}, cache.Config{Depth: 4, Assoc: 4, LineWords: 2}},
			} {
				l1i, l1d := geom.l1i, geom.l1d
				l1i.Repl, l1d.Repl = ReplOf(pol), ReplOf(pol)
				split, err := FilterThroughSplitL1(tr, l1i, l1d)
				if err != nil {
					t.Fatal(err)
				}
				wantI, err := FilterThroughL1(instr, l1i)
				if err != nil {
					t.Fatal(err)
				}
				wantD, err := FilterThroughL1(data, l1d)
				if err != nil {
					t.Fatal(err)
				}
				gotI, gotD := split.Split()
				if !slices.Equal(gotI.Refs, wantI.Refs) {
					t.Errorf("%s %v L1I %v: split filter's instruction refs (%d) != FilterThroughL1 (%d)",
						name, pol, l1i, gotI.Len(), wantI.Len())
				}
				if !slices.Equal(gotD.Refs, wantD.Refs) {
					t.Errorf("%s %v L1D %v: split filter's data refs (%d) != FilterThroughL1 (%d)",
						name, pol, l1d, gotD.Len(), wantD.Len())
				}
				for _, r := range gotD.Refs {
					if r.Kind == trace.DataWrite {
						writebacks++
					}
				}
			}
		}
	}
	if writebacks == 0 {
		t.Fatal("no L1D writeback reached L2; the data-side ordering went untested")
	}
}

func TestExploreL2InstructionKindPreserved(t *testing.T) {
	tr := trace.FromAddrs(trace.Instr, []uint32{0, 64, 0, 64})
	filtered, err := FilterThroughL1(tr, cache.Config{Depth: 1, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range filtered.Refs {
		if r.Kind != trace.Instr {
			t.Fatalf("instruction miss became %v", r.Kind)
		}
	}
}

// Property: filtered stream length equals L1 total misses plus L1
// writebacks.
func TestQuickFilterAccounting(t *testing.T) {
	f := func(bs []uint8, depthPow uint8) bool {
		tr := trace.New(0)
		for i, b := range bs {
			k := trace.DataRead
			if i%3 == 0 {
				k = trace.DataWrite
			}
			tr.Append(trace.Ref{Addr: uint32(b % 64), Kind: k})
		}
		cfg := cache.Config{Depth: 1 << (depthPow % 5), Assoc: 1}
		filtered, err := FilterThroughL1(tr, cfg)
		if err != nil {
			return false
		}
		res, err := cache.Simulate(cfg, tr)
		if err != nil {
			return false
		}
		return filtered.Len() == res.TotalMisses()+res.Writebacks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
