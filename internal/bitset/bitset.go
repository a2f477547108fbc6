// Package bitset provides dense bit vectors used throughout the analytical
// cache exploration algorithms.
//
// The paper represents reference sets as bit vectors because the inner loop
// of the postlude phase is dominated by set intersections and cardinality
// queries ("The extensive use of sets in our technique is due to the fact
// that sets are efficient to represent, store, and manipulate on a computer
// system using bit vectors", §2.4). Set elements are the numeric identifiers
// assigned to unique references during trace stripping, so a Set of capacity
// N' (number of unique references) covers every set the algorithms need.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity dense bit vector. The zero value is an empty set
// of capacity zero; use New to create a set able to hold n elements.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for elements 0..n-1.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromSlice returns a set of capacity n containing the given elements.
func FromSlice(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Cap returns the capacity (maximum element + 1) of the set.
func (s *Set) Cap() int { return s.n }

// Words returns the set's backing words: element i is bit i%64 of word
// i/64. Writes through the slice change the set; bits at or above Cap()
// must stay clear.
func (s *Set) Words() []uint64 { return s.words }

// Add inserts element i. It panics if i is out of range.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Add(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes element i. It panics if i is out of range.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Remove(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether element i is in the set. Out-of-range values
// report false.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set (population count).
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Reset empties the set and re-sizes it to capacity n, reusing the word
// storage when it is large enough. It is the reuse hook for pooled sets:
// a freelist can hand the same Set to explorations over different
// identifier universes without allocating, and the set always comes back
// empty.
func (s *Set) Reset(n int) {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	w := (n + wordBits - 1) / wordBits
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of o. The sets must have the same
// capacity.
func (s *Set) Copy(o *Set) {
	s.mustMatch(o, "Copy")
	copy(s.words, o.words)
}

func (s *Set) mustMatch(o *Set, op string) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: %s on mismatched capacities %d and %d", op, s.n, o.n))
	}
}

// And stores the intersection of a and b into s (s may alias a or b).
func (s *Set) And(a, b *Set) {
	a.mustMatch(b, "And")
	s.mustMatch(a, "And")
	for i := range s.words {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// Or stores the union of a and b into s (s may alias a or b).
func (s *Set) Or(a, b *Set) {
	a.mustMatch(b, "Or")
	s.mustMatch(a, "Or")
	for i := range s.words {
		s.words[i] = a.words[i] | b.words[i]
	}
}

// AndNot stores the difference a\b into s (s may alias a or b).
func (s *Set) AndNot(a, b *Set) {
	a.mustMatch(b, "AndNot")
	s.mustMatch(a, "AndNot")
	for i := range s.words {
		s.words[i] = a.words[i] &^ b.words[i]
	}
}

// IntersectCount returns |s ∩ o| without allocating. This is the hot
// operation of the postlude phase (Algorithm 3 counts |S ∩ C| per conflict
// set per candidate associativity).
func (s *Set) IntersectCount(o *Set) int {
	s.mustMatch(o, "IntersectCount")
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// IntersectCountAtLeast reports whether |s ∩ o| >= k, short-circuiting as
// soon as the bound is reached. Algorithm 3 only needs the comparison
// against the candidate associativity, never the full cardinality, so the
// early exit matters on long conflict sets.
func (s *Set) IntersectCountAtLeast(o *Set, k int) bool {
	s.mustMatch(o, "IntersectCountAtLeast")
	if k <= 0 {
		return true
	}
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
		if c >= k {
			return true
		}
	}
	return false
}

// Rank is a set together with the running popcount of its words. It
// counts the set's elements inside a run of ids with two lookups, however
// long the run. A Rank is valid until its set changes.
type Rank struct {
	words []uint64
	cum   []int32 // cum[i] is the popcount of words[:i]
}

// Reset ranks s, reusing r's storage.
func (r *Rank) Reset(s *Set) {
	r.words = s.words
	if cap(r.cum) <= len(s.words) {
		r.cum = make([]int32, len(s.words)+1)
	}
	r.cum = r.cum[:len(s.words)+1]
	c := int32(0)
	for i, w := range s.words {
		r.cum[i] = c
		c += int32(bits.OnesCount64(w))
	}
	r.cum[len(s.words)] = c
}

// below returns the number of elements less than x, 0 ≤ x ≤ 64·len(words):
// the running count up to x's word plus a masked popcount of that word.
func (r *Rank) below(x uint32) int {
	i, b := x/wordBits, x%wordBits
	n := int(r.cum[i])
	if b != 0 {
		n += bits.OnesCount64(r.words[i] & (1<<b - 1))
	}
	return n
}

// IntersectCountRuns returns the number of elements of the ranked set
// inside the runs, given as ascending, disjoint [lo, hi) pairs flattened
// into one slice: the postlude's |S ∩ C| for a conflict set stored as
// runs of consecutive ids. A run inside one word costs one masked
// popcount, a longer run two, whatever its length. Runs must lie within
// [0, 64·⌈Cap()/64⌉); one past that panics.
func (r *Rank) IntersectCountRuns(runs []int32) int {
	c := 0
	for i := 0; i+1 < len(runs); i += 2 {
		lo, hi := uint32(runs[i]), uint32(runs[i+1])
		if a := lo / wordBits; a == (hi-1)/wordBits {
			c += bits.OnesCount64(r.words[a] >> (lo % wordBits) & (1<<(hi-lo) - 1))
			continue
		}
		c += r.below(hi) - r.below(lo)
	}
	return c
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	s.mustMatch(o, "Intersects")
	for i, w := range s.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o contain exactly the same elements and have
// the same capacity.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	s.mustMatch(o, "SubsetOf")
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order. Iteration stops if
// fn returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Elems returns the elements in ascending order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Next returns the smallest element >= i, or -1 if none exists.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as {a,b,c} in ascending order, matching the
// notation of the paper's running example.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
