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
// the stream of references that reach the next level, in arrival order:
// the split filter's replay with one cache serving both kinds.
func FilterThroughL1(t *trace.Trace, l1 cache.Config) (*trace.Trace, error) {
	c, err := cache.NewCache(l1)
	if err != nil {
		return nil, err
	}
	out := trace.New(0)
	c.OnEvict = writebacksTo(out, l1)
	filterL1(t, c, c, out)
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
	ci.OnEvict = writebacksTo(out, l1i)
	cd.OnEvict = writebacksTo(out, l1d)
	filterL1(t, ci, cd, out)
	return nil
}

// filterL1 replays t through the first level — instruction fetches
// through ci, data references through cd, which may be the same cache —
// and writes every miss's refill read into out, replacing its references.
// The caches' OnEvict hooks append their writebacks to out.
func filterL1(t *trace.Trace, ci, cd *cache.Cache, out *trace.Trace) {
	out.Refs = out.Refs[:0]
	for _, r := range t.Refs {
		c := cd
		if r.Kind == trace.Instr {
			c = ci
		}
		if !c.Access(r) {
			// OnEvict fires inside Access, so a miss's victim writeback
			// precedes its refill read in the stream — the order a
			// hierarchy whose write buffer drains ahead of the fill
			// produces, and exactly the order cache.Hierarchy replays.
			out.Append(trace.Ref{Addr: r.Addr, Kind: readKind(r.Kind)})
		}
	}
}

// writebacksTo returns an OnEvict hook for a cache of cfg that appends
// each dirty eviction to out as a write of the line's first word.
func writebacksTo(out *trace.Trace, cfg cache.Config) func(uint32, bool) {
	var lineShift uint
	for lw := cfg.LineWords; lw > 1; lw >>= 1 {
		lineShift++
	}
	return func(lineAddr uint32, dirty bool) {
		if dirty {
			out.Append(trace.Ref{Addr: lineAddr << lineShift, Kind: trace.DataWrite})
		}
	}
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
