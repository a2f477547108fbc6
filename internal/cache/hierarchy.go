package cache

import (
	"fmt"

	"github.com/example/cachedse/internal/trace"
)

// Hierarchy is a two-level cache: L1 misses are serviced by L2; L1 dirty
// evictions are written through to L2; L2 misses and dirty evictions reach
// main memory. It is the reference model for two-level exploration: dse's
// tests hold dse.FilterThroughL1 to the L2 traffic a Hierarchy produces,
// and the split filter behind `explore -levels 2` to FilterThroughL1.
type Hierarchy struct {
	L1, L2 *Cache
	// MemReads and MemWrites count main-memory transactions: L2 misses
	// and L2 writeback traffic respectively.
	MemReads, MemWrites int
}

// NewHierarchy builds a two-level hierarchy. L2's line size must be at
// least L1's so that an L1 line always fits within one L2 line.
func NewHierarchy(l1, l2 Config) (*Hierarchy, error) {
	a, err := NewCache(l1)
	if err != nil {
		return nil, fmt.Errorf("cache: L1: %v", err)
	}
	b, err := NewCache(l2)
	if err != nil {
		return nil, fmt.Errorf("cache: L2: %v", err)
	}
	if a.cfg.LineWords > b.cfg.LineWords {
		return nil, fmt.Errorf("cache: L1 line (%d words) exceeds L2 line (%d words)",
			a.cfg.LineWords, b.cfg.LineWords)
	}
	h := &Hierarchy{L1: a, L2: b}
	// L1 dirty evictions become L2 writes (write-back between levels).
	a.OnEvict = func(lineAddr uint32, dirty bool) {
		if !dirty {
			return
		}
		// Reconstruct a word address within the evicted L1 line.
		wordAddr := lineAddr << a.lineShift
		h.accessL2(trace.Ref{Addr: wordAddr, Kind: trace.DataWrite})
	}
	// L2 evictions of dirty lines go to memory.
	b.OnEvict = func(_ uint32, dirty bool) {
		if dirty {
			h.MemWrites++
		}
	}
	return h, nil
}

func (h *Hierarchy) accessL2(r trace.Ref) {
	if !h.L2.Access(r) {
		h.MemReads++
	}
}

// Access simulates one reference through the hierarchy and reports which
// level hit (1, 2, or 0 for memory).
func (h *Hierarchy) Access(r trace.Ref) int {
	if h.L1.Access(r) {
		return 1
	}
	before := h.MemReads
	h.accessL2(r)
	if h.MemReads == before {
		return 2
	}
	return 0
}

// Run simulates a whole trace and returns per-level hit counts indexed
// [memory, L2, L1].
func (h *Hierarchy) Run(t *trace.Trace) [3]int {
	var counts [3]int
	for _, r := range t.Refs {
		counts[h.Access(r)]++
	}
	return counts
}
