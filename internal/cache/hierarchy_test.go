package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/example/cachedse/internal/trace"
)

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(Config{Depth: 3, Assoc: 1}, Config{Depth: 4, Assoc: 1}); err == nil {
		t.Error("bad L1 accepted")
	}
	if _, err := NewHierarchy(Config{Depth: 4, Assoc: 1}, Config{Depth: 3, Assoc: 1}); err == nil {
		t.Error("bad L2 accepted")
	}
	if _, err := NewHierarchy(
		Config{Depth: 4, Assoc: 1, LineWords: 4},
		Config{Depth: 16, Assoc: 1, LineWords: 2}); err == nil {
		t.Error("L1 line > L2 line accepted")
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(Config{Depth: 1, Assoc: 1}, Config{Depth: 4, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 0: memory (cold everywhere). 0 again: L1 hit.
	if lvl := h.Access(trace.Ref{Addr: 0, Kind: trace.DataRead}); lvl != 0 {
		t.Fatalf("first access hit level %d, want 0 (memory)", lvl)
	}
	if lvl := h.Access(trace.Ref{Addr: 0, Kind: trace.DataRead}); lvl != 1 {
		t.Fatalf("repeat hit level %d, want 1", lvl)
	}
	// 1 evicts 0 from the 1-deep L1 but both stay in L2.
	h.Access(trace.Ref{Addr: 1, Kind: trace.DataRead})
	if lvl := h.Access(trace.Ref{Addr: 0, Kind: trace.DataRead}); lvl != 2 {
		t.Fatalf("L1-conflicting access hit level %d, want 2", lvl)
	}
}

func TestHierarchyL1MatchesStandalone(t *testing.T) {
	// L1 behaviour must be unaffected by being in a hierarchy.
	rng := rand.New(rand.NewSource(13))
	tr := trace.New(0)
	for i := 0; i < 5000; i++ {
		k := trace.DataRead
		if i%5 == 0 {
			k = trace.DataWrite
		}
		tr.Append(trace.Ref{Addr: uint32(rng.Intn(256)), Kind: k})
	}
	l1cfg := Config{Depth: 16, Assoc: 2}
	h, err := NewHierarchy(l1cfg, Config{Depth: 64, Assoc: 4})
	if err != nil {
		t.Fatal(err)
	}
	h.Run(tr)
	standalone, err := Simulate(l1cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if h.L1.Results() != standalone {
		t.Fatalf("L1 in hierarchy %+v != standalone %+v", h.L1.Results(), standalone)
	}
}

func TestHierarchyDirtyEvictionsReachL2(t *testing.T) {
	// Write a line, conflict it out of the 1-deep L1: the dirty eviction
	// must appear as an L2 write access.
	h, err := NewHierarchy(Config{Depth: 1, Assoc: 1}, Config{Depth: 16, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.Access(trace.Ref{Addr: 7, Kind: trace.DataWrite})
	l2Before := h.L2.Results().Accesses
	h.Access(trace.Ref{Addr: 9, Kind: trace.DataRead}) // evicts dirty 7
	l2After := h.L2.Results().Accesses
	// The miss itself (1 L2 access) plus the writeback (1 L2 access).
	if l2After-l2Before != 2 {
		t.Fatalf("L2 saw %d accesses, want 2 (miss + writeback)", l2After-l2Before)
	}
}

func TestHierarchyMemoryCounters(t *testing.T) {
	h, err := NewHierarchy(Config{Depth: 1, Assoc: 1}, Config{Depth: 1, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Alternate two addresses: everything misses everywhere.
	counts := h.Run(trace.FromAddrs(trace.DataRead, []uint32{0, 1, 0, 1}))
	if counts[0] != 4 {
		t.Fatalf("memory-level count = %d, want 4", counts[0])
	}
	if h.MemReads != 4 {
		t.Fatalf("MemReads = %d, want 4", h.MemReads)
	}
	if h.MemWrites != 0 {
		t.Fatalf("MemWrites = %d, want 0 for clean traffic", h.MemWrites)
	}
}

func TestHierarchyMemWritesOnDirtyL2Eviction(t *testing.T) {
	h, err := NewHierarchy(Config{Depth: 1, Assoc: 1}, Config{Depth: 1, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.Access(trace.Ref{Addr: 0, Kind: trace.DataWrite}) // dirty in both? L1 dirty; L2 clean (miss read... write ref)
	h.Access(trace.Ref{Addr: 1, Kind: trace.DataWrite}) // evicts 0: L1 dirty eviction -> L2 write -> L2 evicts...
	h.Access(trace.Ref{Addr: 2, Kind: trace.DataWrite})
	if h.MemWrites == 0 {
		t.Fatal("dirty L2 evictions never reached memory")
	}
}

// Property: a hierarchy never hits less than its L1 alone, and the level
// counters balance.
func TestQuickHierarchyAccounting(t *testing.T) {
	f := func(bs []uint8, d1Pow, d2Pow uint8) bool {
		tr := trace.New(0)
		for _, b := range bs {
			tr.Append(trace.Ref{Addr: uint32(b % 64), Kind: trace.DataRead})
		}
		h, err := NewHierarchy(
			Config{Depth: 1 << (d1Pow % 3), Assoc: 1},
			Config{Depth: 1 << (d2Pow % 5), Assoc: 2},
		)
		if err != nil {
			return false
		}
		counts := h.Run(tr)
		if counts[0]+counts[1]+counts[2] != tr.Len() {
			return false
		}
		r1 := h.L1.Results()
		return counts[1] == r1.Hits && counts[0] == h.MemReads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
