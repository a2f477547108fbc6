package onepass

import "github.com/example/cachedse/internal/trace"

// Direct-mapped miss lists. Every kernel skips a reference that hits the
// direct-mapped (1-way) replica of its depth, so a sweep at depth D needs
// to read only the references that miss a direct-mapped cache of D sets:
// its direct-mapped miss list. Cold references always miss, so the list
// holds every first touch, in first-touch order, and the kernels' cold
// test still works on it.
//
// The lists nest. A reference hits a direct-mapped cache of D sets when
// no other line has touched its set since its line last did. The set it
// maps to at depth 2D is half of that set, so no other line has touched
// that one either: a hit at depth D is a hit at 2D, and the list of depth
// 2D is a subsequence of the list of depth D. For the same reason a
// level's list is found by replaying any superset of it, as long as the
// superset's dropped references are hits at that level: a dropped hit
// leaves its set's last line as it found it.
//
// A level stores a list of its own only when it holds at most half the
// references of the list it would otherwise read: the last list stored
// above it, or the strip. Otherwise it shares that list, a superset,
// which the kernels read exactly because they still skip its
// direct-mapped hits. The stored lists thus shrink at least geometrically
// from N/2 down, and hold fewer than N ids together, whatever the stream.

// MissLists holds the direct-mapped miss lists of one strip at the depths
// 1, 2, …, 2^levels. Its memory is reused from one Build to the next.
// Build must not run while a sweep reads a list.
type MissLists struct {
	lists  [][]int32 // per level: a stored list, a shared one or the strip's IDs
	buf    []int32   // the stored lists back to back
	last   []int32   // per set: id+1 of the line last in it, 0 while empty
	stored int
}

// Build computes the lists of l at the depths 1, 2, …, 2^levels. Level
// lvl replays the list level lvl-1 reads, tracking each set's last line,
// and writes out the references that miss; it stops writing, and shares
// that list, once it would keep more than half of it. No level writes
// past the strip's length in buf: with stored lists s₁ ≥ 2s₂ ≥ … ≥ 2^(k-1)sₖ
// and s₁ ≤ N/2, the k stored lists plus a half of sₖ take fewer than N ids.
func (m *MissLists) Build(l *trace.Stripped, levels int) {
	m.buf = resize(m.buf, len(l.IDs))
	m.lists = m.lists[:0]
	src, used := l.IDs, 0
	for lvl := 0; lvl <= levels; lvl++ {
		mask := uint32(1)<<lvl - 1
		last := zeroed(m.last, 1<<lvl)
		m.last = last
		out := m.buf[used : used+len(src)/2]
		k := 0
		for _, id := range src {
			set := l.Unique[id] & mask
			if last[set] == id+1 {
				continue // a direct-mapped hit
			}
			last[set] = id + 1
			if k == len(out) {
				k = -1 // more than half of src misses: share src
				break
			}
			out[k] = id
			k++
		}
		if k >= 0 {
			src = out[:k:k]
			used += k
		}
		m.lists = append(m.lists, src)
	}
	m.stored = used
}

// At returns the list a sweep at depth 2^lvl reads: a subsequence of the
// strip's IDs holding every reference that misses a direct-mapped cache
// of that depth, and perhaps some hits. It aliases m's memory or the
// strip's until the next Build.
func (m *MissLists) At(lvl int) []int32 { return m.lists[lvl] }

// Stored returns the number of ids the lists hold in memory of their own,
// fewer than the strip's N.
func (m *MissLists) Stored() int { return m.stored }
