package dse

import (
	"fmt"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/trace"
)

// Two-level exploration: the "well-tuned cache hierarchy" the paper's
// introduction motivates, done with one simulation and one analytical
// pass. For a FIXED L1, the reference stream reaching L2 is deterministic:
// L1 misses (as reads) interleaved with L1 dirty-eviction writebacks (as
// writes). Capturing that filtered trace once and handing it to the
// analytical explorer sizes every candidate L2 exactly — the design loop
// over L2 configurations needs no further simulation.

// FilterThroughL1 simulates the trace on an L1 configuration and returns
// the stream of references that reach the next level, in arrival order.
func FilterThroughL1(t *trace.Trace, l1 cache.Config) (*trace.Trace, error) {
	c, err := cache.NewCache(l1)
	if err != nil {
		return nil, err
	}
	out := trace.New(0)
	lineShift := 0
	for lw := l1.LineWords; lw > 1; lw >>= 1 {
		lineShift++
	}
	c.OnEvict = func(lineAddr uint32, dirty bool) {
		if dirty {
			out.Append(trace.Ref{Addr: lineAddr << uint(lineShift), Kind: trace.DataWrite})
		}
	}
	for _, r := range t.Refs {
		if !c.Access(r) {
			// OnEvict fires inside Access, so a miss's victim writeback
			// precedes its refill read in the stream — the order a
			// hierarchy whose write buffer drains ahead of the fill
			// produces, and exactly the order cache.Hierarchy replays.
			out.Append(trace.Ref{Addr: r.Addr, Kind: readKind(r.Kind)})
		}
	}
	return out, nil
}

// FilterThroughSplitL1 simulates the trace on a split first level —
// instruction fetches through l1i, data references through l1d — and
// returns the merged stream reaching the shared second level, in arrival
// order. Each cache's dirty-eviction writeback precedes its refill read,
// exactly as in FilterThroughL1; the two caches' outputs interleave in
// trace order because each reference is fully retired before the next.
func FilterThroughSplitL1(t *trace.Trace, l1i, l1d cache.Config) (*trace.Trace, error) {
	out := trace.New(0)
	if err := filterSplitL1(t, l1i, l1d, out); err != nil {
		return nil, err
	}
	return out, nil
}

// filterSplitL1 is FilterThroughSplitL1 writing the stream into out,
// whose references it replaces and whose capacity it reuses.
func filterSplitL1(t *trace.Trace, l1i, l1d cache.Config, out *trace.Trace) error {
	ci, err := cache.NewCache(l1i)
	if err != nil {
		return fmt.Errorf("dse: L1I: %w", err)
	}
	cd, err := cache.NewCache(l1d)
	if err != nil {
		return fmt.Errorf("dse: L1D: %w", err)
	}
	out.Refs = out.Refs[:0]
	evict := func(lineShift uint) func(uint32, bool) {
		return func(lineAddr uint32, dirty bool) {
			if dirty {
				out.Append(trace.Ref{Addr: lineAddr << lineShift, Kind: trace.DataWrite})
			}
		}
	}
	ci.OnEvict = evict(lineShiftOf(l1i))
	cd.OnEvict = evict(lineShiftOf(l1d))
	for _, r := range t.Refs {
		c := cd
		if r.Kind == trace.Instr {
			c = ci
		}
		if !c.Access(r) {
			out.Append(trace.Ref{Addr: r.Addr, Kind: readKind(r.Kind)})
		}
	}
	return nil
}

func lineShiftOf(cfg cache.Config) uint {
	var s uint
	for lw := cfg.LineWords; lw > 1; lw >>= 1 {
		s++
	}
	return s
}

// readKind maps the original reference kind to the kind of the refill
// request L2 sees: instruction fetch misses stay instruction fetches, data
// misses become reads (the store data merges in L1 after the fill).
func readKind(k trace.Kind) trace.Kind {
	if k == trace.Instr {
		return trace.Instr
	}
	return trace.DataRead
}
