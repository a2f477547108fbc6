package onepass

import (
	"fmt"
	"math/rand"

	"github.com/example/cachedse/internal/trace"
)

// The Mattson profile in this package exploits LRU's inclusion property:
// one stack walk yields every associativity at once. This file's sweep
// evaluates the associativity axis 1..MaxAssoc of one (depth, line size,
// policy) in one pass over the stream, bit-identical to running
// internal/cache's simulator MaxAssoc times, for every policy.
//
// The sweep runs over dense line ids: a trace.Stripped made at the
// sweep's line size, which numbers lines in first-touch order. One strip
// serves every (depth, policy) sweep of its stream and line size, and a
// reference is cold exactly when its id is the next new one, so no
// seen-set is probed.
//
// LRU is a stack algorithm, so its sweep keeps one bounded Mattson stack
// per set: the set's most recently used lines, most recent first, at most
// min(MaxAssoc, N′) of them. A reference found at position p (p lines of
// its set used since it was) misses in every a-way cache with a ≤ p; a
// warm reference that has fallen off the stack misses at every a ≤
// MaxAssoc. By inclusion an a-way LRU set holds exactly the top a entries
// of the stack, so the counts equal the simulator's.
//
// FIFO, Random and PLRU have no inclusion property (Belady's anomaly —
// more ways can miss more), so their sweep keeps an independent replica
// of the set state for every associativity, each performing exactly the
// simulator's probe/fill/victim sequence. Residency is one id-major
// table, wayOf[(id+1)·maxAssoc + a-1] = way+1 (0: not resident in the
// a-way replica), so a reference probes all its replicas in one cache
// line and a hit costs O(1) per replica — nothing for FIFO and Random,
// one masked word update for PLRU. Ways fill in way order and are never
// invalidated, so a set's fill counter says whether it is full and, for
// FIFO, taken modulo a, names the victim: the ways arrive in order 0..a-1
// at distinct clock stamps and each refill makes its way the newest, so
// internal/cache's minimum-arrival victim walks round-robin.
//
// A reference that hits the 1-way replica is skipped whole. That replica
// holds exactly the line last referenced in its set, so a hit there
// means no other line has touched the set since this one did, and that
// last reference left it resident in every replica: every replica hits.
// A FIFO or Random hit changes no state (the Random streams are drawn
// only on a full-set miss), and a PLRU hit rewrites the nodes on its
// way's path to fixed values, which the last reference already wrote.
// Skipping it leaves every replica exactly as the simulator would. So a
// sweep may read, in place of the strip, any list of its references
// that keeps every direct-mapped miss (SweepList, MissLists).

// ReplPolicy selects the replacement policy of a PolicySweep.
type ReplPolicy uint8

const (
	ReplLRU ReplPolicy = iota
	ReplFIFO
	ReplRandom
	ReplPLRU
)

// String returns the policy name.
func (p ReplPolicy) String() string {
	switch p {
	case ReplLRU:
		return "lru"
	case ReplFIFO:
		return "fifo"
	case ReplRandom:
		return "random"
	case ReplPLRU:
		return "plru"
	}
	return fmt.Sprintf("replpolicy(%d)", uint8(p))
}

// randSeed matches internal/cache's deterministic seed, so the Random
// replicas draw the identical victim sequence: the rng is consulted only
// on a full-set miss, and for a fixed (depth, assoc, line) the full-set
// misses of the replica and the standalone simulator coincide ref by ref.
const randSeed = 0x5eed

// AssocSweep is the result of a PolicySweep: the non-cold miss count of
// every associativity 1..MaxAssoc at one (depth, line size, policy).
type AssocSweep struct {
	Depth     int
	LineWords int
	Policy    ReplPolicy
	// Accesses is the number of references consumed; Cold the compulsory
	// misses (identical across associativities — a first touch can hit
	// nowhere).
	Accesses int
	Cold     int
	// MissByAssoc[a] is the non-cold miss count at associativity a;
	// index 0 is unused.
	MissByAssoc []int
}

// Misses returns the non-cold miss count at the given associativity;
// assoc beyond the sweep's range is clamped to the largest swept value
// (no inclusion property holds, so no extrapolation is attempted).
func (s *AssocSweep) Misses(assoc int) int {
	if assoc < 1 {
		panic(fmt.Sprintf("onepass: associativity %d < 1", assoc))
	}
	if assoc >= len(s.MissByAssoc) {
		assoc = len(s.MissByAssoc) - 1
	}
	return s.MissByAssoc[assoc]
}

// PolicySweeper sweeps strips, reusing its buffers from one call to the
// next, so a caller sweeping many (stream, line, depth, policy) cells
// allocates for the largest rather than for each. The zero value is ready
// to use; it is not safe for concurrent use.
type PolicySweeper struct {
	// stack[s·capacity : s·capacity+fill[s]] is LRU set s's Mattson
	// stack, most recently used id first.
	stack []int32
	fill  []int32
	// wayOf[(id+1)*maxAssoc + a-1] is way+1 of id in the a-way replica,
	// 0 if not resident. Row 0 stands for "no id": evicting an empty way
	// clears it, so the miss path needs no emptiness branch.
	wayOf []int32
	// ways holds, set by set, every replica's ways back to back (replica
	// a's set s starts at s·maxAssoc(maxAssoc+1)/2 + a(a-1)/2): the
	// resident id+1, 0 while empty.
	ways []int32
	// count[s*maxAssoc + a-1] is the number of misses replica a's set s
	// has taken: its fill level until it reaches a; FIFO keeps it modulo
	// a as the round-robin victim.
	count []int32
	tree  []uint64     // PLRU: per set, every replica's tree back to back
	rngs  []*rand.Rand // Random: one stream per replica
}

// SweepLines evaluates every associativity 1..maxAssoc of one cache depth
// under one replacement policy in a single pass over a strip made at the
// sweep's line size.
func SweepLines(l *trace.Stripped, depth, maxAssoc int, p ReplPolicy) (*AssocSweep, error) {
	return new(PolicySweeper).SweepLines(l, depth, maxAssoc, p)
}

// PolicySweep evaluates every associativity 1..maxAssoc of one cache
// depth under one replacement policy in a single pass over the trace.
// lineWords 0 means one-word lines. Replacement semantics replicate
// internal/cache.Access exactly: probe in way order, fill invalid-first,
// then evict per policy (write-back write-allocate — writes behave like
// reads for miss accounting). It is SweepLines over a line strip of t;
// callers sweeping one stream at several depths or policies strip it once.
func PolicySweep(t *trace.Trace, depth, maxAssoc, lineWords int, p ReplPolicy) (*AssocSweep, error) {
	if err := checkSweep(depth, maxAssoc, p); err != nil {
		return nil, err
	}
	l, err := trace.StripLines(t, lineWords, nil)
	if err != nil {
		return nil, err
	}
	return SweepLines(l, depth, maxAssoc, p)
}

func checkSweep(depth, maxAssoc int, p ReplPolicy) error {
	if depth < 1 || depth&(depth-1) != 0 {
		return fmt.Errorf("onepass: depth %d is not a power of two >= 1", depth)
	}
	if maxAssoc < 1 {
		return fmt.Errorf("onepass: max associativity %d < 1", maxAssoc)
	}
	if p > ReplPLRU {
		return fmt.Errorf("onepass: invalid policy %d", p)
	}
	return nil
}

// SweepLines is the package SweepLines drawing on s's buffers. The
// returned sweep owns its memory.
func (s *PolicySweeper) SweepLines(l *trace.Stripped, depth, maxAssoc int, p ReplPolicy) (*AssocSweep, error) {
	if l == nil {
		return nil, fmt.Errorf("onepass: SweepLines given a nil strip")
	}
	return s.SweepList(l, l.IDs, depth, maxAssoc, p)
}

// SweepList is SweepLines reading only ids, a subsequence of l.IDs that
// holds every reference missing a direct-mapped cache of depth sets, as
// MissLists.At gives it; it may hold more. Every skipped reference is a
// direct-mapped hit, which every kernel skips anyway: it hits every
// replica and changes none (LRU finds it on top of its stack). So the
// answer equals SweepLines', Accesses included.
func (s *PolicySweeper) SweepList(l *trace.Stripped, ids []int32, depth, maxAssoc int, p ReplPolicy) (*AssocSweep, error) {
	if l == nil {
		return nil, fmt.Errorf("onepass: SweepList given a nil strip")
	}
	if err := checkSweep(depth, maxAssoc, p); err != nil {
		return nil, err
	}
	out := &AssocSweep{
		Depth:       depth,
		LineWords:   l.LineWords,
		Policy:      p,
		Accesses:    len(l.IDs),
		Cold:        len(l.Unique),
		MissByAssoc: make([]int, maxAssoc+1),
	}
	if p == ReplLRU {
		s.sweepLRU(ids, l.Unique, depth, maxAssoc, out.MissByAssoc)
		return out, nil
	}
	s.wayOf = zeroed(s.wayOf, (len(l.Unique)+1)*maxAssoc)
	s.ways = zeroed(s.ways, depth*maxAssoc*(maxAssoc+1)/2)
	s.count = zeroed(s.count, depth*maxAssoc)
	switch p {
	case ReplFIFO:
		s.sweepFIFO(ids, l.Unique, depth, maxAssoc, out.MissByAssoc)
	case ReplRandom:
		for len(s.rngs) < maxAssoc {
			s.rngs = append(s.rngs, rand.New(rand.NewSource(randSeed)))
		}
		for _, r := range s.rngs[:maxAssoc] {
			r.Seed(randSeed)
		}
		s.sweepRandom(ids, l.Unique, depth, maxAssoc, out.MissByAssoc)
	case ReplPLRU:
		s.tree = zeroed(s.tree, depth*treeStride(maxAssoc))
		s.sweepPLRU(ids, l.Unique, depth, maxAssoc, out.MissByAssoc)
	}
	return out, nil
}

// resize returns buf with length n, reallocating only to grow; the
// contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed returns buf with length n and every element zero.
func zeroed[T int32 | uint64](buf []T, n int) []T {
	buf = resize(buf, n)
	clear(buf)
	return buf
}

// The three replica kernels share one shape: per reference, classify it
// cold or warm, find its set and its wayOf row, skip it if it hits the
// 1-way replica, else walk the replicas a = 1..maxAssoc. A hit does the
// policy's touch; a miss picks a way (the next empty one while the set
// fills, else the policy's victim), clears the evicted id's wayOf entry
// and installs the reference. Each policy has its own loop so no replica
// pays a policy switch.

func (s *PolicySweeper) sweepFIFO(ids []int32, unique []uint32, depth, maxAssoc int, miss []int) {
	mask := uint32(depth - 1)
	setWays := maxAssoc * (maxAssoc + 1) / 2
	wayOf, ways, count := s.wayOf, s.ways, s.count
	next := int32(0)
	for _, id := range ids {
		warm := 1
		if id == next {
			next++
			warm = 0
		}
		set := int(unique[id] & mask)
		row := int(id+1) * maxAssoc
		probe := wayOf[row : row+maxAssoc]
		if probe[0] != 0 {
			continue // a direct-mapped hit hits every replica, unchanged
		}
		cnt := count[set*maxAssoc : set*maxAssoc+maxAssoc]
		base := set * setWays
		for j, resident := range probe {
			if resident == 0 {
				w := cnt[j]
				if int(w) == j {
					cnt[j] = 0
				} else {
					cnt[j] = w + 1
				}
				k := base + int(w)
				wayOf[int(ways[k])*maxAssoc+j] = 0
				ways[k] = id + 1
				probe[j] = w + 1
				miss[j+1] += warm
			}
			base += j + 1
		}
	}
}

// sweepLRU walks one bounded Mattson stack per set. miss[p] first counts
// the warm references found at stack position p; one not found sits past
// a full stack, so p = capacity = maxAssoc (a set never holds more than
// N′ lines). The suffix sums then turn that histogram into misses by
// associativity.
func (s *PolicySweeper) sweepLRU(ids []int32, unique []uint32, depth, maxAssoc int, miss []int) {
	capacity := min(maxAssoc, len(unique))
	s.stack = resize(s.stack, depth*capacity)
	s.fill = zeroed(s.fill, depth)
	mask := uint32(depth - 1)
	stack, fill := s.stack, s.fill
	next := int32(0)
	for _, id := range ids {
		set := int(unique[id] & mask)
		st := stack[set*capacity : set*capacity+capacity]
		n := int(fill[set])
		p := n
		if id == next {
			next++
		} else {
			for i, resident := range st[:n] {
				if resident == id {
					p = i
					break
				}
			}
			miss[p]++
		}
		if p == n {
			// Not on the stack: push, dropping the bottom of a full stack.
			if n < capacity {
				fill[set]++
			} else {
				p--
			}
		}
		copy(st[1:p+1], st[:p])
		st[0] = id
	}
	miss[0] = 0
	for a := maxAssoc - 1; a >= 1; a-- {
		miss[a] += miss[a+1]
	}
}

func (s *PolicySweeper) sweepRandom(ids []int32, unique []uint32, depth, maxAssoc int, miss []int) {
	mask := uint32(depth - 1)
	setWays := maxAssoc * (maxAssoc + 1) / 2
	wayOf, ways, count, rngs := s.wayOf, s.ways, s.count, s.rngs
	next := int32(0)
	for _, id := range ids {
		warm := 1
		if id == next {
			next++
			warm = 0
		}
		set := int(unique[id] & mask)
		row := int(id+1) * maxAssoc
		probe := wayOf[row : row+maxAssoc]
		if probe[0] != 0 {
			continue // a direct-mapped hit hits every replica, unchanged
		}
		cnt := count[set*maxAssoc : set*maxAssoc+maxAssoc]
		base := set * setWays
		for j, resident := range probe {
			if resident == 0 {
				var w int
				if f := cnt[j]; int(f) <= j {
					w = int(f)
					cnt[j] = f + 1
				} else {
					w = rngs[j].Intn(j + 1)
				}
				k := base + w
				wayOf[int(ways[k])*maxAssoc+j] = 0
				ways[k] = id + 1
				probe[j] = int32(w + 1)
				miss[j+1] += warm
			}
			base += j + 1
		}
	}
}

// PLRU trees mirror internal/cache's midpoint-bisection tree bit for bit:
// node i's children are 2i+1/2i+2 and a set node bit means the next
// victim lies right. A tree of a ways has its nodes below the next power
// of two above a, so up to 64 ways it fits one word, and a touch — which
// rewrites exactly the nodes on the root-to-way path — is one masked
// update with a precomputed (mask, value) pair. Past 64 ways a tree spans
// treeWords(a) words and the touch walks the path bit by bit instead;
// both paths are pinned against the simulator at 65 and 70 ways.

// plruWordWays is the largest associativity whose tree fits one word.
const plruWordWays = 64

// plruPaths[a(a-1)/2 + w] is the touch of way w in an a-way one-word tree.
var plruPaths = func() []struct{ mask, val uint64 } {
	paths := make([]struct{ mask, val uint64 }, plruWordWays*(plruWordWays+1)/2)
	for a := 1; a <= plruWordWays; a++ {
		for w := 0; w < a; w++ {
			p := &paths[a*(a-1)/2+w]
			node, lo, hi := 0, 0, a
			for hi-lo > 1 {
				mid := (lo + hi) / 2
				p.mask |= 1 << node
				if w < mid {
					p.val |= 1 << node
					node = 2*node + 1
					hi = mid
				} else {
					node = 2*node + 2
					lo = mid
				}
			}
		}
	}
	return paths
}()

// treeWords is the number of words an a-way tree spans.
func treeWords(a int) int {
	n := 1
	for n < a {
		n <<= 1
	}
	return (n + 63) / 64
}

// treeStride is the number of words one set's trees span across the
// replicas 1..maxAssoc.
func treeStride(maxAssoc int) int {
	n := min(maxAssoc, plruWordWays)
	for a := plruWordWays + 1; a <= maxAssoc; a++ {
		n += treeWords(a)
	}
	return n
}

// treeTouch protects way w of an n-way tree: the general path for trees
// past one word.
func treeTouch(tree []uint64, n, w int) {
	node, lo, hi := 0, 0, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		bit := uint64(1) << (node & 63)
		if w < mid {
			tree[node>>6] |= bit
			node = 2*node + 1
			hi = mid
		} else {
			tree[node>>6] &^= bit
			node = 2*node + 2
			lo = mid
		}
	}
}

// plruVictims[a][bits] is the victim of an a-way tree, a ≤ 8, whose
// node bits 0..6 are bits: such a tree has no node past 6, so its victim
// is one table read instead of treeVictim's walk of up to three levels.
var plruVictims = func() (v [9][128]uint8) {
	for a := 1; a < len(v); a++ {
		for bits := range v[a] {
			v[a][bits] = uint8(treeVictim([]uint64{uint64(bits)}, a))
		}
	}
	return v
}()

// treeVictim follows the tree bits of an n-way set to its victim.
func treeVictim(tree []uint64, n int) int {
	node, lo, hi := 0, 0, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if tree[node>>6]>>(node&63)&1 != 0 {
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

func (s *PolicySweeper) sweepPLRU(ids []int32, unique []uint32, depth, maxAssoc int, miss []int) {
	mask := uint32(depth - 1)
	setWays := maxAssoc * (maxAssoc + 1) / 2
	stride := treeStride(maxAssoc)
	oneWord := min(maxAssoc, plruWordWays)
	wayOf, ways, count, tree := s.wayOf, s.ways, s.count, s.tree
	next := int32(0)
	for _, id := range ids {
		warm := 1
		if id == next {
			next++
			warm = 0
		}
		set := int(unique[id] & mask)
		row := int(id+1) * maxAssoc
		probe := wayOf[row : row+maxAssoc]
		if probe[0] != 0 {
			continue // a direct-mapped hit hits every replica, unchanged
		}
		cnt := count[set*maxAssoc : set*maxAssoc+maxAssoc]
		base := set * setWays
		trees := tree[set*stride : set*stride+stride]
		path := 0 // plruPaths offset of the j+1-way replica
		for j, resident := range probe[:oneWord] {
			w := int(resident) - 1
			if w < 0 {
				if f := cnt[j]; int(f) <= j {
					w = int(f)
					cnt[j] = f + 1
				} else if j < 8 {
					w = int(plruVictims[j+1][trees[j]&127])
				} else {
					w = treeVictim(trees[j:j+1], j+1)
				}
				k := base + w
				wayOf[int(ways[k])*maxAssoc+j] = 0
				ways[k] = id + 1
				probe[j] = int32(w + 1)
				miss[j+1] += warm
			}
			p := plruPaths[path+w]
			trees[j] = trees[j]&^p.mask | p.val
			base += j + 1
			path += j + 1
		}
		// The general path: trees past one word, touched bit by bit.
		t := trees[oneWord:]
		for j := oneWord; j < maxAssoc; j++ {
			a := j + 1
			n := treeWords(a)
			w := int(probe[j]) - 1
			if w < 0 {
				if f := cnt[j]; int(f) <= j {
					w = int(f)
					cnt[j] = f + 1
				} else {
					w = treeVictim(t[:n], a)
				}
				k := base + w
				wayOf[int(ways[k])*maxAssoc+j] = 0
				ways[k] = id + 1
				probe[j] = int32(w + 1)
				miss[a] += warm
			}
			treeTouch(t[:n], a, w)
			t = t[n:]
			base += a
		}
	}
}
