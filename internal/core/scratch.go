package core

import (
	"math/bits"
	"sync"

	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/trace"
)

// This file holds the engine's pooled scratch: every allocation the
// steady-state explore path used to make per request — the stripped form,
// the MRCT build tables (dedup table and chains, last-access times and
// the Fenwick tree over them, the window vector, conflict-set arenas,
// packed bit-vectors, occurrence storage) and the postlude's zero/one
// planes, row sets and rank — lives in a Scratch that a sync.Pool
// recycles across explorations. A warm pool drives the data plane's
// allocs/op to the Result envelope alone (the TestAllocsSteadyState*
// tests and the alloc-smoke CI gate pin this), which is what keeps GC
// pause time out of the p99 under sustained load.
//
// Ownership contract: everything a Scratch hands out (arena-backed
// conflict sets, freelist bit-vectors, the pooled MRCT) is valid only
// until the Scratch is reused or returned to the pool. Nothing reachable
// from a Result may alias scratch storage — Result histograms are always
// freshly allocated — and the public BuildMRCT/Strip entry points build
// caller-owned structures precisely so a retained Prelude can never be
// corrupted by pool reuse.

// Scratch is the reusable working memory of one exploration. A zero
// Scratch is ready to use; buffers grow on first use and are retained.
// A Scratch must not be shared by two explorations at once.
type Scratch struct {
	// hint tracks the largest trace dimension this scratch has served,
	// sizing the pool class it returns to.
	hint int

	// stripped is the pooled strip output for *trace.Trace and RefReader
	// sources (*trace.Stripped and Prelude sources are caller-owned).
	stripped trace.Stripped

	// mrct is the pooled conflict table, rebuilt in place per exploration.
	mrct MRCT

	// MRCT build state (see buildMRCT).
	dedup     dedupTable   // dedup key -> newest set index
	dedupNext []int32      // per set index, next older set under its key or -1
	setKey    []uint64     // per set index, its dedup key
	setOwner  []int32      // per set index, the id that first listed it
	setCnt    []int32      // per set index, its owner's occurrences of it
	prevSet   []int32      // per id, the set of its latest window (-1 before one)
	pos       []int32      // per id, the chunk position of that window
	peaks     []peak       // suffix maxima of conflict-set sizes, by position
	ring      []int32      // per chunk position mod its length, the set of its window
	lastPos   []int32      // per id, its latest chunk position (-1 before one)
	overflow  []uint64     // (id<<32 | set index) per occurrence by a non-owner
	idHash    []uint64     // hashID cache, extended monotonically
	last      []int32      // per id, the logical time of its last access (0 = cold)
	slot      []int32      // per logical time, the id holding it (-1 once it moved on)
	fen       []fenNode    // Fenwick tree over logical times 1..W
	win       []uint64     // N′-bit window vector a first sighting is listed into
	occBuf    []occurrence // backing storage m.occ[id] slices are carved from
	i32       int32Arena   // run-form conflict-set storage
	bs        bitset.Arena // packed conflict-set storage
	// chunks[j] builds chunk j of a chunked MRCT build; chunks[0] is this
	// Scratch, the others are kept here so their buffers are reused too.
	chunks    []mrctChunk
	setMerged []int32 // per set index of a merged chunk, its merged index

	// Postlude freelist: row sets and zero/one planes, recycled via a
	// cursor (resetSets) instead of being reallocated per engine run.
	sets      []*bitset.Set
	setCursor int
	dfsL      []*bitset.Set // per-level left/right children of the DFS —
	dfsR      []*bitset.Set // one pair per level is live at a time
	rank      bitset.Rank   // the row set accumulate counts runs against
}

// note records a trace dimension for pool classing.
func (sc *Scratch) note(n int) {
	if n > sc.hint {
		sc.hint = n
	}
}

// resetSets rewinds the bit-vector freelist; every set previously handed
// out by newSet is up for reuse.
func (sc *Scratch) resetSets() { sc.setCursor = 0 }

// newSet returns an empty set of capacity n from the freelist, growing it
// when exhausted. Signature matches trace.ZeroOneSetsAlloc's allocator.
func (sc *Scratch) newSet(n int) *bitset.Set {
	if sc.setCursor < len(sc.sets) {
		s := sc.sets[sc.setCursor]
		sc.setCursor++
		s.Reset(n)
		return s
	}
	s := bitset.New(n)
	sc.sets = append(sc.sets, s)
	sc.setCursor++
	return s
}

// dfsPairs returns the per-level (left, right) child-set slots for a DFS
// over the given number of levels, entries nil until first use.
func (sc *Scratch) dfsPairs(n int) (l, r []*bitset.Set) {
	if cap(sc.dfsL) < n {
		sc.dfsL = make([]*bitset.Set, n)
		sc.dfsR = make([]*bitset.Set, n)
	}
	l, r = sc.dfsL[:n], sc.dfsR[:n]
	for i := range l {
		l[i], r[i] = nil, nil
	}
	return l, r
}

// int32Arena carves []int32 slices (the run form of conflict sets) out of
// large reusable blocks, replacing the per-build arena slices of the old
// MRCT construction.
type int32Arena struct {
	blocks [][]int32
	block  int
	used   int
}

const int32ArenaBlock = 1 << 15

// alloc returns an uninitialised slice of length n carved from the arena.
func (a *int32Arena) alloc(n int) []int32 {
	if n == 0 {
		return nil
	}
	for a.block < len(a.blocks) && len(a.blocks[a.block])-a.used < n {
		a.block++
		a.used = 0
	}
	if a.block >= len(a.blocks) {
		size := int32ArenaBlock
		if n > size {
			size = n
		}
		a.blocks = append(a.blocks, make([]int32, size))
		a.used = 0
	}
	blk := a.blocks[a.block]
	out := blk[a.used : a.used+n : a.used+n]
	a.used += n
	return out
}

// reset recycles every block; previously returned slices will be
// overwritten.
func (a *int32Arena) reset() {
	a.block, a.used = 0, 0
}

// ScratchPool recycles Scratch values across explorations, size-classed
// by power-of-two trace length so a small probe does not pin the buffers
// of a million-reference job (sync.Pool still releases idle classes under
// GC pressure). Get prefers the requested class but accepts a larger one
// — oversized scratch is merely warm — and Put files the scratch under
// the largest dimension it has served.
type ScratchPool struct {
	classes [scratchClasses]sync.Pool
}

const scratchClasses = 28

func classFor(n int) int {
	c := bits.Len(uint(n))
	if c >= scratchClasses {
		return scratchClasses - 1
	}
	return c
}

// Get returns a Scratch suited to a trace of about hint references (0 =
// unknown: any pooled scratch will do).
func (p *ScratchPool) Get(hint int) *Scratch {
	for c := classFor(hint); c < scratchClasses; c++ {
		if v := p.classes[c].Get(); v != nil {
			return v.(*Scratch)
		}
	}
	return &Scratch{hint: hint}
}

// Put returns sc to the pool. The caller must not use sc, nor anything it
// handed out, afterwards.
func (p *ScratchPool) Put(sc *Scratch) {
	if sc == nil {
		return
	}
	p.classes[classFor(sc.hint)].Put(sc)
}

// sharedScratch is the process-wide pool Explore draws from.
var sharedScratch ScratchPool

// scratchHint sizes the pool request for a source before the prelude has
// run: in-memory traces and strips know their length, streams do not.
func scratchHint(src Source) int {
	switch v := src.(type) {
	case *trace.Trace:
		if v != nil {
			return v.Len()
		}
	case *trace.Stripped:
		if v != nil {
			return v.N()
		}
	}
	return 0
}
