package core

import (
	"cmp"
	"context"
	"slices"

	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// MRCT is the Memory Reference Conflict Table (Algorithm 2, Table 4): for
// every unique reference, one conflict set per non-cold occurrence holding
// the identifiers of the distinct references touched since the previous
// occurrence.
//
// Conflict sets are deduplicated globally with multiplicities —
// loop-dominated embedded traces repeat a handful of conflict windows
// millions of times, and the postlude phase only needs |S ∩ C| per
// *distinct* C weighted by its count — and stored in a hybrid
// representation: small sets as sorted identifier slices (carved out of a
// shared arena), sets dense relative to the identifier universe
// additionally as packed bit vectors so the postlude can intersect them
// word-wise with AND+popcount. This keeps the structure within the paper's
// stated O(trace) space in practice.
type MRCT struct {
	nunique int
	// sets is the global table of distinct conflict sets, each sorted
	// ascending by identifier. The slices alias shared arena blocks.
	sets [][]int32
	// packed[i] is the bit-vector form of sets[i] when it is dense enough
	// for the word-wise kernel to win, nil otherwise.
	packed []*bitset.Set
	// maxCard is the largest conflict-set cardinality, bounding every
	// |S ∩ C| the postlude can produce.
	maxCard int
	// occ[id] lists, per distinct conflict set of id, the pair (index into
	// sets, number of occurrences with exactly that window).
	occ [][]occurrence
}

type occurrence struct {
	set   int32
	count int32
}

// NUnique returns N', the identifier universe size.
func (m *MRCT) NUnique() int { return m.nunique }

// DistinctSets returns the size of the global deduplicated set table.
func (m *MRCT) DistinctSets() int { return len(m.sets) }

// MaxConflictCard returns the largest conflict-set cardinality in the
// table. Every postlude histogram index |S ∩ C| is at most this, so
// callers can size histograms once instead of growing them in the inner
// loop.
func (m *MRCT) MaxConflictCard() int { return m.maxCard }

// PackedSets returns how many distinct sets also carry a packed bit-vector
// form, for space accounting and tests.
func (m *MRCT) PackedSets() int {
	n := 0
	for _, p := range m.packed {
		if p != nil {
			n++
		}
	}
	return n
}

// Occurrences returns the total number of non-cold occurrences recorded,
// which equals N − N'.
func (m *MRCT) Occurrences() int {
	total := 0
	for _, os := range m.occ {
		for _, o := range os {
			total += int(o.count)
		}
	}
	return total
}

// ConflictSets expands the table for identifier id into one sorted slice
// per non-cold occurrence (multiplicities unrolled). Intended for tests and
// table rendering; the postlude phase iterates the compressed form.
func (m *MRCT) ConflictSets(id int) [][]int32 {
	var out [][]int32
	for _, o := range m.occ[id] {
		for i := int32(0); i < o.count; i++ {
			out = append(out, m.sets[o.set])
		}
	}
	return out
}

// hashID mixes one identifier into a well-distributed 64-bit value
// (splitmix64 finalizer). Conflict-set hashes combine these commutatively
// so the dedup key never needs the set sorted.
func hashID(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// packThreshold converts the universe size into the sparse-set length
// above which the packed word-wise kernel wins: a packed intersection
// touches every word of the universe once, a sparse intersection touches
// one word per element, and BenchmarkMicroIntersect measures the two
// per-step costs as near-equal — so the break-even sits at one element
// per word.
func packThreshold(nunique int) int {
	words := (nunique + 63) / 64
	if words < 8 {
		return 8
	}
	return words
}

// BuildMRCT builds the conflict table in a single pass, the hash-table
// formulation §2.4 recommends over the literal double loop of Algorithm 2.
// When reference u recurs, the conflict set is the distinct references
// touched since u's previous occurrence — in the paper's terms the part of
// the global LRU stack above u. The build never walks that stack: it reads
// the set's size and hash from a Fenwick tree over last-access times (see
// buildMRCT).
func BuildMRCT(s *trace.Stripped) *MRCT {
	m, _ := BuildMRCTContext(context.Background(), s)
	return m
}

// BuildMRCTContext is BuildMRCT with cancellation: the single pass over
// the trace checks ctx every few thousand references and returns ctx.Err()
// once it is done.
//
// The returned table is caller-owned: it is built through a throwaway
// scratch, so it stays valid indefinitely (a Prelude can retain it across
// explorations). The engine's internal path instead reuses a pooled
// scratch via buildMRCT, whose output lives only until the scratch is
// recycled.
func BuildMRCTContext(ctx context.Context, s *trace.Stripped) (*MRCT, error) {
	m := &MRCT{}
	if err := buildMRCT(ctx, s, &Scratch{}, m); err != nil {
		return nil, err
	}
	return m, nil
}

// buildMRCT builds the conflict table into m using sc's reusable buffers.
//
// No step walks an LRU stack. Every access gets a logical time; last[id]
// is id's latest time and slot[t] the id holding time t (-1 once it moved
// on). A Fenwick tree over the times 1..W keeps, per range, the count,
// hash sum and hash xor of the ids whose last access falls in it. When id
// recurs with previous time t0, its conflict set is exactly the ids with
// a last access after t0, so the totals minus the prefix at t0 give the
// set's cardinality p and its commutative hash in O(log W), without
// listing it. Moving id to the newest time is two point updates.
//
// A candidate set cs matches iff len(cs) == p and last[v] > t0 for every v
// in cs: exactly p distinct ids have a last access after t0, so such a cs
// is the window itself. The check is exact and read-only, and at most one
// candidate can pass it, so the order candidates are tried in cannot
// affect the result. The first candidate is the set of id's previous
// window (prevSet), when its key matches: loops repeat an id's window far
// more often than they move it. Next come the sets stored under the
// window's key in the dedup table, newest first through dedupNext. Only a
// window never seen before is listed, by reading slot[t0+1..now-1], and
// stored sorted: read out of its packed bit vector when it is dense enough
// to be packed, sorted otherwise.
//
// Occurrences are counted per set, not recorded per occurrence: nearly
// every set is only ever the window of the id that first listed it (its
// owner), so an owner's occurrence is setCnt[c]++. Any other id's
// occurrence goes to the short overflow list, which is sorted and
// run-length encoded once at the end.
//
// When the times run out at W, the live ids are renumbered 1..L in time
// order and the tree is rebuilt in O(W). W = 2N' leaves at least N' fresh
// times after each compaction, so compactions cost O(1) per reference.
// The build's work is O(N·log N'), plus Σ|C| over the candidates it
// verifies, plus a scan of at most W slots per distinct window, instead of
// the stack walk's Σ|C| over every occurrence.
//
// All of m's storage — sparse sets, packed bit-vectors, occurrence runs —
// is carved from sc's arenas. A pooled caller must treat m as invalidated
// once sc is reused; BuildMRCTContext passes a fresh scratch precisely so
// its output has no such lifetime.
func buildMRCT(ctx context.Context, s *trace.Stripped, sc *Scratch, m *MRCT) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, span := obs.StartSpan(ctx, "mrct")
	nu := s.NUnique()
	sc.note(s.N())
	sc.i32.reset()
	sc.bs.Reset()
	m.nunique = nu
	m.maxCard = 0
	m.sets = m.sets[:0]
	m.packed = m.packed[:0]
	if cap(m.occ) < nu {
		m.occ = make([][]occurrence, nu)
	}
	m.occ = m.occ[:nu]
	for i := range m.occ {
		m.occ[i] = nil
	}
	thresh := packThreshold(nu)
	// Per set index c: setKey[c] is the dedup key of its window, setOwner[c]
	// the id that first listed it, setCnt[c] the owner's occurrences of it
	// and dedupNext[c] the next older set stored under the same key, or -1.
	setKey, setOwner, setCnt := sc.setKey[:0], sc.setOwner[:0], sc.setCnt[:0]
	dedupNext := sc.dedupNext[:0]
	dedup := &sc.dedup
	dedup.reset()
	// idHash[v] caches hashID(v) — a pure function of v, so the cache only
	// ever extends.
	for v := len(sc.idHash); v < nu; v++ {
		sc.idHash = append(sc.idHash, hashID(uint64(v)))
	}
	idHash := sc.idHash
	// last is zeroed (0 = cold) and the tree emptied; slot needs no
	// clearing, since only times already handed out in this build are read.
	w := fenwickSpan(nu)
	last := growInt32(&sc.last, nu)
	clear(last)
	slot := growInt32(&sc.slot, w+1)
	if cap(sc.fen) < w+1 {
		sc.fen = make([]fenNode, w+1)
	}
	fen := sc.fen[:w+1]
	clear(fen)
	// prevSet[id] is the set of id's latest window, -1 before its first.
	prevSet := growInt32(&sc.prevSet, nu)
	for i := range prevSet {
		prevSet[i] = -1
	}
	overflow := sc.overflow[:0] // id<<32 | set, per occurrence by a non-owner
	var total fenNode           // every live id: the tree's full range
	now := int32(1)             // the next logical time to hand out
	compactions, verifyIDs, memoHits := 0, 0, 0

	for i, id := range s.IDs {
		if i&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if int(now) > w {
			now = fenCompact(fen, slot, last, idHash, now)
			compactions++
		}
		h := idHash[id]
		t0 := last[id]
		if t0 == 0 {
			// Cold occurrence: no conflict set recorded (Table 4 ignores
			// the first occurrence).
			fenAdd(fen, int(now), h)
			total.cnt++
			total.hsum += h
			total.hxor ^= h
			last[id], slot[now] = now, id
			now++
			continue
		}
		// Conflict set = the ids last accessed after t0: the totals minus
		// the prefix up to t0 (which holds id itself).
		pre := fenPrefix(fen, int(t0))
		p := int(total.cnt - pre.cnt)
		hsum := total.hsum - pre.hsum
		hxor := total.hxor ^ pre.hxor
		key := hashID(hsum ^ (hxor << 1) ^ uint64(p))
		idx := int32(-1)
		memo := prevSet[id]
		if memo >= 0 && setKey[memo] == key {
			if cs := m.sets[memo]; len(cs) == p {
				verifyIDs += p
				if accessedAfter(cs, last, t0) {
					idx = memo
					memoHits++
				}
			}
		} else {
			memo = -1
		}
		var at int // key's slot in the dedup table
		if idx < 0 {
			at = dedup.find(key, setKey)
			for cand := dedup.head(at); cand >= 0; cand = dedupNext[cand] {
				cs := m.sets[cand]
				if cand == memo || len(cs) != p {
					continue
				}
				verifyIDs += p
				if accessedAfter(cs, last, t0) {
					idx = cand
					break
				}
			}
		}
		switch {
		case idx < 0:
			// First sighting: list the live slots after t0 — exactly p of
			// them — in ascending id order, copy into the arena, maybe pack.
			cp := sc.i32.alloc(p)
			var pk *bitset.Set
			if p >= thresh {
				pk = sc.bs.New(nu)
				for t, k := t0+1, 0; k < p; t++ {
					if v := slot[t]; v >= 0 {
						pk.Add(int(v))
						k++
					}
				}
				k := 0
				pk.ForEach(func(v int) bool {
					cp[k] = int32(v)
					k++
					return true
				})
			} else {
				for t, k := t0+1, 0; k < p; t++ {
					if v := slot[t]; v >= 0 {
						cp[k] = v
						k++
					}
				}
				slices.Sort(cp)
			}
			idx = int32(len(m.sets))
			m.sets = append(m.sets, cp)
			m.packed = append(m.packed, pk)
			if p > m.maxCard {
				m.maxCard = p
			}
			setKey = append(setKey, key)
			setOwner = append(setOwner, id)
			setCnt = append(setCnt, 1)
			dedupNext = append(dedupNext, dedup.push(at, idx, setKey))
		case setOwner[idx] == id:
			setCnt[idx]++
		default:
			overflow = append(overflow, uint64(id)<<32|uint64(idx))
		}
		prevSet[id] = idx
		// Move id from t0 to now; the totals do not change.
		fenMove(fen, int(t0), int(now), h)
		slot[t0] = -1
		last[id], slot[now] = now, id
		now++
	}
	sc.setKey, sc.setOwner, sc.setCnt, sc.dedupNext = setKey, setOwner, setCnt, dedupNext

	// Occurrence runs, in set-index order per id, carved from one
	// exactly-sized buffer. Every set is one run of its owner's; the sorted
	// overflow adds one run per distinct (id, set). last is dead after the
	// pass: it counts each id's runs, then serves as its write cursor.
	slices.Sort(overflow)
	runs := len(m.sets)
	fill := last
	clear(fill)
	for _, o := range setOwner {
		fill[o]++
	}
	for i, v := range overflow {
		if i == 0 || v != overflow[i-1] {
			fill[v>>32]++
			runs++
		}
	}
	overflowRuns := runs - len(m.sets)
	occBuf := sc.occBuf[:0]
	if cap(occBuf) < runs {
		occBuf = make([]occurrence, 0, runs)
	}
	occBuf = occBuf[:runs]
	start := int32(0)
	for id, n := range fill {
		fill[id] = start
		start += n
	}
	// Walking c in ascending order puts each id's own sets in set order.
	for c, o := range setOwner {
		occBuf[fill[o]] = occurrence{set: int32(c), count: setCnt[c]}
		fill[o]++
	}
	for i := 0; i < len(overflow); {
		j := i + 1
		for j < len(overflow) && overflow[j] == overflow[i] {
			j++
		}
		id := overflow[i] >> 32
		occBuf[fill[id]] = occurrence{set: int32(uint32(overflow[i])), count: int32(j - i)}
		fill[id]++
		i = j
	}
	// fill[id] now ends id's runs, where id+1's begin.
	begin := int32(0)
	for id, end := range fill {
		if end > begin {
			m.occ[id] = occBuf[begin:end:end]
		}
		begin = end
	}
	// An id with overflow runs has them after its own sets; re-sort it.
	for i, v := range overflow {
		if i == 0 || v>>32 != overflow[i-1]>>32 {
			slices.SortFunc(m.occ[v>>32], func(a, b occurrence) int { return cmp.Compare(a.set, b.set) })
		}
	}
	sc.occBuf = occBuf
	sc.overflow = overflow[:0]
	if span != nil {
		occurrences := s.N() - nu
		span.SetAttr("n", s.N())
		span.SetAttr("n_unique", nu)
		span.SetAttr("distinct_sets", len(m.sets))
		span.SetAttr("occurrences", occurrences)
		span.SetAttr("dedup_hit_rate", dedupHitRate(len(m.sets), occurrences))
		span.SetAttr("max_card", m.maxCard)
		span.SetAttr("packed_sets", m.PackedSets())
		span.SetAttr("compactions", compactions)
		span.SetAttr("verify_ids", verifyIDs)
		span.SetAttr("memo_hits", memoHits)
		span.SetAttr("overflow_runs", overflowRuns)
		span.End()
	}
	return nil
}

// dedupTable maps a window's dedup key to the newest set stored under
// it: open addressing with linear probing over a power-of-two array of
// set index + 1 (0 = empty). It stores heads only. A slot's key is
// setKey of its set, and keys are hashID outputs, so their low bits index
// the array directly. It grows at load ½ and keeps its capacity across
// pooled builds.
type dedupTable struct {
	slots []int32
	used  int
}

const dedupTableMin = 1 << 8

// reset empties the table in place.
func (t *dedupTable) reset() {
	if t.slots == nil {
		t.slots = make([]int32, dedupTableMin)
	}
	clear(t.slots)
	t.used = 0
}

// find returns the slot holding key's newest set, or the empty slot key
// would take.
func (t *dedupTable) find(key uint64, setKey []uint64) int {
	mask := len(t.slots) - 1
	for i := int(key) & mask; ; i = (i + 1) & mask {
		if h := t.slots[i]; h == 0 || setKey[h-1] == key {
			return i
		}
	}
}

// head returns the set at slot i, -1 when it is empty.
func (t *dedupTable) head(i int) int32 { return t.slots[i] - 1 }

// push makes set idx the newest at slot i, which find returned for
// setKey[idx], and returns the set it displaced, -1 when there was none.
func (t *dedupTable) push(i int, idx int32, setKey []uint64) int32 {
	old := t.slots[i] - 1
	t.slots[i] = idx + 1
	if old < 0 {
		t.used++
		if 2*t.used > len(t.slots) {
			t.grow(setKey)
		}
	}
	return old
}

// grow doubles the table and reinserts every head.
func (t *dedupTable) grow(setKey []uint64) {
	old := t.slots
	t.slots = make([]int32, 2*len(old))
	mask := len(t.slots) - 1
	for _, h := range old {
		if h == 0 {
			continue
		}
		i := int(setKey[h-1]) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = h
	}
}

// DedupHitRate is the fraction of non-cold occurrences whose conflict
// window had already been seen: 1 - distinct/occurrences. Loop-dominated
// traces sit near 1; adversarially random traces near 0.
func (m *MRCT) DedupHitRate() float64 {
	return dedupHitRate(len(m.sets), m.Occurrences())
}

func dedupHitRate(distinct, occurrences int) float64 {
	if occurrences == 0 {
		return 0
	}
	return 1 - float64(distinct)/float64(occurrences)
}

// accessedAfter reports whether every id in cs was last accessed after
// time t0. It reads eight ids per step and tests their minimum, so the
// common case — a matching candidate read to the end — takes one branch
// per block instead of one per id.
func accessedAfter(cs, last []int32, t0 int32) bool {
	k := 0
	for ; k+8 <= len(cs); k += 8 {
		c := cs[k : k+8 : k+8]
		if min(last[c[0]], last[c[1]], last[c[2]], last[c[3]],
			last[c[4]], last[c[5]], last[c[6]], last[c[7]]) <= t0 {
			return false
		}
	}
	for _, v := range cs[k:] {
		if last[v] <= t0 {
			return false
		}
	}
	return true
}

// fenNode is one node of the build's Fenwick tree over logical access
// times: the count, hash sum and hash xor of the ids whose last access
// falls in the node's range.
type fenNode struct {
	cnt  int64
	hsum uint64
	hxor uint64
}

// fenwickSpan is W, the number of logical times the build hands out
// before it compacts. At most N' ids are live, so twice N' leaves at least
// N' fresh times after every compaction.
func fenwickSpan(nunique int) int { return 2 * nunique }

// growInt32 returns (*buf)[:n], reallocating only when the capacity is
// short. The contents are not cleared.
func growInt32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// fenPrefix sums the nodes covering times 1..t.
func fenPrefix(fen []fenNode, t int) fenNode {
	var acc fenNode
	for ; t > 0; t -= t & -t {
		n := &fen[t]
		acc.cnt += n.cnt
		acc.hsum += n.hsum
		acc.hxor ^= n.hxor
	}
	return acc
}

// fenAdd records an id of hash h as last accessed at time t.
func fenAdd(fen []fenNode, t int, h uint64) {
	for ; t < len(fen); t += t & -t {
		n := &fen[t]
		n.cnt++
		n.hsum += h
		n.hxor ^= h
	}
}

// fenMove moves an id of hash h from time from to the later time to. Both
// update paths climb the same tree (the parent of t is t + t&-t), and from
// the node where they meet upwards the removal and the insertion cancel,
// so the walk stops there.
func fenMove(fen []fenNode, from, to int, h uint64) {
	for from != to {
		if from < to {
			if from >= len(fen) {
				return
			}
			n := &fen[from]
			n.cnt--
			n.hsum -= h
			n.hxor ^= h
			from += from & -from
		} else {
			if to >= len(fen) {
				return
			}
			n := &fen[to]
			n.cnt++
			n.hsum += h
			n.hxor ^= h
			to += to & -to
		}
	}
}

// fenCompact renumbers the live ids 1..L in the order of their last
// access, rebuilds the tree over them in O(W) and returns the next free
// time, L+1.
func fenCompact(fen []fenNode, slot, last []int32, idHash []uint64, now int32) int32 {
	l := int32(0)
	for t := int32(1); t < now; t++ {
		if v := slot[t]; v >= 0 {
			l++
			slot[l] = v
			last[v] = l
		}
	}
	clear(fen)
	for t := int32(1); t <= l; t++ {
		h := idHash[slot[t]]
		fen[t] = fenNode{cnt: 1, hsum: h, hxor: h}
	}
	for t := 1; t < len(fen); t++ {
		if up := t + t&-t; up < len(fen) {
			fen[up].cnt += fen[t].cnt
			fen[up].hsum += fen[t].hsum
			fen[up].hxor ^= fen[t].hxor
		}
	}
	return l + 1
}

// BuildMRCTNaive is the literal double loop of Algorithm 2, with the
// conflict windows accumulated in bit vectors: for every unique reference
// U_i an accumulator S_i collects identifiers until the trace reaches U_i
// again, at which point S_i is emitted and reset. O(N·N') time and only
// suitable for small traces; kept as an executable specification that
// cross-validates BuildMRCT.
func BuildMRCTNaive(s *trace.Stripped) [][][]int32 {
	nu := s.NUnique()
	out := make([][][]int32, nu)
	acc := make([]*bitset.Set, nu)
	started := make([]bool, nu)
	for i := range acc {
		acc[i] = bitset.New(nu)
	}
	for _, v := range s.IDs {
		id := int(v)
		for i := 0; i < nu; i++ {
			if i == id {
				continue
			}
			if started[i] {
				acc[i].Add(id)
			}
		}
		if started[id] {
			elems := acc[id].Elems()
			set := make([]int32, len(elems))
			for k, e := range elems {
				set[k] = int32(e)
			}
			out[id] = append(out[id], set)
			acc[id].Clear()
		}
		started[id] = true
	}
	return out
}
