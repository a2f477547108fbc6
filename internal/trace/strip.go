package trace

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/example/cachedse/internal/bitset"
)

// Stripped is the stripped form of a trace (Table 2 of the paper): the N'
// unique references in order of first appearance, each assigned a numeric
// identifier, plus the original trace re-expressed as a sequence of those
// identifiers. It is the one dense-id form of a reference stream: the
// MRCT, the postlude and the non-LRU policy sweeps all read it.
//
// A strip is made at a line size: references are numbered by line address
// (word address / LineWords), so a strip at LineWords L is the strip of
// the trace with its low log2(L) word-offset bits dropped.
//
// Identifiers are zero-based here (the paper numbers from 1); every data
// structure downstream is internally consistent, and rendering helpers add
// one where a table must match the paper's numbering. They are assigned in
// first-touch order, so reference i is a first touch exactly when IDs[i]
// equals the number of distinct identifiers before it.
type Stripped struct {
	// LineWords is the line size in words the strip was made at.
	LineWords int
	// Unique holds the distinct line addresses in first-appearance order;
	// Unique[id] is the address of identifier id. len(Unique) == N'.
	Unique []uint32
	// IDs is the original trace as identifiers: IDs[i] is the identifier of
	// the i-th reference. len(IDs) == N.
	IDs []int32
	// index maps line address -> identifier: open addressing with linear
	// probing over a power-of-two array of identifier + 1 (0 = empty). A
	// slot's key is Unique of its identifier, so only identifiers are
	// stored. It grows at load ½ and keeps its capacity across strips.
	index []int32
	// frames and parts are the pooled scratch of a parallel ctz1 strip
	// (stripCTZ1); blocks and workers record its figures.
	frames          []ctz1Frame
	parts           []stripPart
	blocks, workers int
}

// indexMin is the smallest index a strip starts with.
const indexMin = 1 << 8

// slotOf returns line's home slot in an index of mask+1 slots, read from
// bit 32 up of a 64-bit multiplicative (Fibonacci) hash, where every bit
// of line has carried in.
func slotOf(line, mask uint32) uint32 {
	return uint32(uint64(line)*0x9e3779b97f4a7c15>>32) & mask
}

// Strip reduces a trace of N references to its N' unique references using a
// hash table, the O(N) formulation recommended in §2.4 over sorting.
func Strip(t *Trace) *Stripped {
	return StripInto(t, nil)
}

// StripInto is Strip writing into a reusable Stripped: s is reset and its
// identifier/unique/index storage reused, so a pooled caller strips trace
// after trace without allocating once the buffers have grown to the
// workload's size. A nil s allocates a fresh one (StripInto(t, nil) is
// exactly Strip). It is StripLines at one-word lines, and panics where
// that fails: on a trace of more than math.MaxInt32 references.
func StripInto(t *Trace, s *Stripped) *Stripped {
	s, err := StripLines(t, 1, s)
	if err != nil {
		panic(err)
	}
	return s
}

// StripLines strips t at lineWords words per line (0 means one) into s,
// reusing its storage as StripInto does; a nil s allocates a fresh one.
// It fails on a line size that is not a power of two and on a trace too
// long for int32 identifiers.
func StripLines(t *Trace, lineWords int, s *Stripped) (*Stripped, error) {
	if err := checkIDs(len(t.Refs)); err != nil {
		return nil, err
	}
	s, shift, err := s.reset(lineWords, len(t.Refs))
	if err != nil {
		return nil, err
	}
	for _, r := range t.Refs {
		s.IDs = append(s.IDs, s.id(r.Addr>>shift))
	}
	return s, nil
}

// reset empties s (allocating it when nil) for a strip of about n
// references at lineWords words per line, keeping the capacity of the
// identifier sequence, the unique-address table and the index. It
// returns the strip and the address shift of the line size.
func (s *Stripped) reset(lineWords, n int) (*Stripped, uint, error) {
	if lineWords == 0 {
		lineWords = 1
	}
	if lineWords < 1 || lineWords&(lineWords-1) != 0 {
		return nil, 0, fmt.Errorf("trace: line size %d words is not a power of two >= 1", lineWords)
	}
	if s == nil {
		s = &Stripped{}
	}
	s.LineWords = lineWords
	s.blocks, s.workers = 0, 0
	s.Unique = s.Unique[:0]
	s.IDs = slices.Grow(s.IDs[:0], n)
	if s.index == nil {
		s.index = make([]int32, indexMin)
	} else {
		clear(s.index)
	}
	return s, uint(bits.TrailingZeros(uint(lineWords))), nil
}

// id is the strip step: the identifier of line address line, numbering a
// line never seen before with the next identifier.
func (s *Stripped) id(line uint32) int32 {
	i := s.find(line)
	if h := s.index[i]; h != 0 {
		return h - 1
	}
	id := int32(len(s.Unique))
	s.index[i] = id + 1
	s.Unique = append(s.Unique, line)
	if 2*len(s.Unique) > len(s.index) {
		s.growIndex()
	}
	return id
}

// find returns the index slot holding line's identifier, or the empty
// slot line would take.
func (s *Stripped) find(line uint32) uint32 {
	mask := uint32(len(s.index) - 1)
	i := slotOf(line, mask)
	for h := s.index[i]; h != 0 && s.Unique[h-1] != line; h = s.index[i] {
		i = (i + 1) & mask
	}
	return i
}

// growIndex doubles the index and reinserts every identifier.
func (s *Stripped) growIndex() {
	s.index = make([]int32, 2*len(s.index))
	for id, line := range s.Unique {
		s.index[s.find(line)] = int32(id) + 1
	}
}

// checkIDs rejects a stream of n references, whose identifiers could
// overflow int32.
func checkIDs(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("trace: %d references overflow the int32 identifiers", n)
	}
	return nil
}

// N returns the original trace length.
func (s *Stripped) N() int { return len(s.IDs) }

// NUnique returns N', the number of unique references.
func (s *Stripped) NUnique() int { return len(s.Unique) }

// ID returns the identifier of line address addr and whether it appears
// in the trace.
func (s *Stripped) ID(addr uint32) (int, bool) {
	if len(s.index) == 0 {
		return 0, false
	}
	if h := s.index[s.find(addr)]; h != 0 {
		return int(h - 1), true
	}
	return 0, false
}

// Decoded reports how the strip that filled s decoded a ctz1 image in
// parallel: the image's block count and the goroutines that parsed it.
// Both are zero for every other strip.
func (s *Stripped) Decoded() (blocks, workers int) { return s.blocks, s.workers }

// Addr returns the address of identifier id.
func (s *Stripped) Addr(id int) uint32 { return s.Unique[id] }

// AddrBits returns the number of significant address bits over the unique
// references.
func (s *Stripped) AddrBits() int {
	var max uint32
	for _, a := range s.Unique {
		if a > max {
			max = a
		}
	}
	bits := 0
	for max != 0 {
		bits++
		max >>= 1
	}
	return bits
}

// ZeroOne is the pair of sets computed for one address bit (Table 3): Zero
// holds the identifiers whose address has a 0 at that bit, One those with a
// 1.
type ZeroOne struct {
	Zero *bitset.Set
	One  *bitset.Set
}

// ZeroOneSets computes, for each of the given number of low-order address
// bits B_0..B_{bits-1}, the pair (Z_i, O_i) over the unique references.
// These cross-intersect to form the BCAT nodes (Algorithm 1). If bits is
// zero or negative, AddrBits() is used; bits may exceed AddrBits, in which
// case the extra planes have every identifier in Zero.
func (s *Stripped) ZeroOneSets(bits int) []ZeroOne {
	return s.ZeroOneSetsAlloc(bits, bitset.New)
}

// ZeroOneSetsAlloc is ZeroOneSets with the bit-vector allocator injected:
// newSet(n) must return an empty set of capacity n. Pooled engines pass a
// freelist allocator so the 2·bits sets of every exploration are recycled
// instead of handed to the garbage collector; newSet(n) may therefore
// return storage whose lifetime is managed by the caller.
func (s *Stripped) ZeroOneSetsAlloc(bits int, newSet func(n int) *bitset.Set) []ZeroOne {
	if bits <= 0 {
		bits = s.AddrBits()
	}
	n := s.NUnique()
	out := make([]ZeroOne, bits)
	for b := range out {
		out[b] = ZeroOne{Zero: newSet(n), One: newSet(n)}
	}
	for id, addr := range s.Unique {
		for b := 0; b < bits; b++ {
			if addr>>uint(b)&1 == 1 {
				out[b].One.Add(id)
			} else {
				out[b].Zero.Add(id)
			}
		}
	}
	return out
}
