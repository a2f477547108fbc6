package trace

// Workload profiling helpers: the working-set view of a trace that
// designers read before picking a budget K, exposed as a first-class
// analysis tool for the CLI. Its companion, the reuse-distance histogram,
// is onepass.Run at depth 1 — exactly the conflict-set-cardinality
// histogram the postlude computes for the whole-cache row.

// WorkingSetPoint is one sample of Denning's working-set function: the
// number of distinct addresses touched in a window of the given length.
type WorkingSetPoint struct {
	Window int
	// AvgSize is the mean distinct-address count over all windows of this
	// length (sliding, step = window for O(N) cost).
	AvgSize float64
	// MaxSize is the largest distinct-address count seen in any window.
	MaxSize int
}

// WorkingSet computes the working-set function at the given window
// lengths. Windows are tiled (non-overlapping), which keeps the cost
// linear per window length and is the standard approximation.
func WorkingSet(t *Trace, windows []int) []WorkingSetPoint {
	out := make([]WorkingSetPoint, 0, len(windows))
	for _, w := range windows {
		if w < 1 || t.Len() == 0 {
			out = append(out, WorkingSetPoint{Window: w})
			continue
		}
		seen := make(map[uint32]bool, 64)
		var sizes []int
		for i, r := range t.Refs {
			seen[r.Addr] = true
			if (i+1)%w == 0 || i == t.Len()-1 {
				sizes = append(sizes, len(seen))
				seen = make(map[uint32]bool, len(seen))
			}
		}
		p := WorkingSetPoint{Window: w}
		total := 0
		for _, s := range sizes {
			total += s
			if s > p.MaxSize {
				p.MaxSize = s
			}
		}
		if len(sizes) > 0 {
			p.AvgSize = float64(total) / float64(len(sizes))
		}
		out = append(out, p)
	}
	return out
}
