package core

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"unsafe"

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
// *distinct* C weighted by its count. Each distinct set is stored once, in
// whichever of two forms takes fewer bytes. Identifiers are numbered in
// first-touch order, so a window is nearly always a few runs of
// consecutive ids: the run form holds its maximal [lo, hi) runs, 8 B each,
// carved from a shared arena. A set with more runs than the universe has
// 64-bit words is a packed bit vector of 8·⌈N′/64⌉ B instead. So a distinct
// set never costs more than 8·⌈N′/64⌉ B plus its header, which keeps the
// structure within the paper's stated O(trace) space in practice.
type MRCT struct {
	nunique int
	// runs[c] is set c's run form: its maximal runs of consecutive ids as
	// ascending [lo, hi) pairs, flattened. The slices alias shared arena
	// blocks. nil for a packed set and for the empty set.
	runs [][]int32
	// packed[c] is set c's bit-vector form when that takes fewer bytes
	// than its runs, nil otherwise.
	packed []*bitset.Set
	// card[c] is the cardinality of set c.
	card []int32
	// maxCard is the largest conflict-set cardinality, bounding every
	// |S ∩ C| the postlude can produce.
	maxCard int
	// occ[id] lists, per distinct conflict set of id, the pair (index into
	// the set table, number of occurrences with exactly that window).
	occ [][]occurrence
}

type occurrence struct {
	set   int32
	count int32
}

// NUnique returns N', the identifier universe size.
func (m *MRCT) NUnique() int { return m.nunique }

// DistinctSets returns the size of the global deduplicated set table.
func (m *MRCT) DistinctSets() int { return len(m.card) }

// MaxConflictCard returns the largest conflict-set cardinality in the
// table. Every postlude histogram index |S ∩ C| is at most this, so
// callers can size histograms once instead of growing them in the inner
// loop.
func (m *MRCT) MaxConflictCard() int { return m.maxCard }

// PackedSets returns how many distinct sets are stored as packed bit
// vectors; the others are stored as runs.
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

// Bytes returns the bytes the table holds: its sets' runs and bit-vector
// words, one header per set (its run slice, bit-vector pointer and
// cardinality, plus the bit vector's own header when it has one) and the
// occurrence runs with their per-id slice headers. Arena slack is not
// counted.
func (m *MRCT) Bytes() int {
	const (
		setHdr  = int(unsafe.Sizeof([]int32(nil)) + unsafe.Sizeof((*bitset.Set)(nil)) + unsafe.Sizeof(int32(0)))
		vecHdr  = int(unsafe.Sizeof(bitset.Set{}))
		occHdr  = int(unsafe.Sizeof([]occurrence(nil)))
		occSize = int(unsafe.Sizeof(occurrence{}))
	)
	b := len(m.card)*setHdr + len(m.occ)*occHdr
	for c, r := range m.runs {
		b += 4 * len(r)
		if p := m.packed[c]; p != nil {
			b += vecHdr + 8*len(p.Words())
		}
	}
	for _, os := range m.occ {
		b += occSize * len(os)
	}
	return b
}

// appendIDs appends the ids of set c to dst in ascending order.
func (m *MRCT) appendIDs(dst []int32, c int32) []int32 {
	if p := m.packed[c]; p != nil {
		for wi, w := range p.Words() {
			for ; w != 0; w &= w - 1 {
				dst = append(dst, int32(wi*64+bits.TrailingZeros64(w)))
			}
		}
		return dst
	}
	r := m.runs[c]
	for i := 0; i < len(r); i += 2 {
		for v := r[i]; v < r[i+1]; v++ {
			dst = append(dst, v)
		}
	}
	return dst
}

// ConflictSets expands the table for identifier id into one sorted slice
// per non-cold occurrence (multiplicities unrolled); occurrences of the
// same set share one slice. Intended for tests and table rendering; the
// postlude phase iterates the compressed form.
func (m *MRCT) ConflictSets(id int) [][]int32 {
	var out [][]int32
	for _, o := range m.occ[id] {
		ids := m.appendIDs(make([]int32, 0, m.card[o.set]), o.set)
		for i := int32(0); i < o.count; i++ {
			out = append(out, ids)
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

// BuildMRCTContext is BuildMRCT with cancellation: every chunk of the
// build checks ctx every few thousand references, and the build returns
// ctx.Err() once it is done.
//
// The returned table is caller-owned, so it stays valid indefinitely (a
// Prelude can retain it across explorations). It is built through a
// scratch from the pool Explore draws from, so the build state — the
// dedup table, times, tree, windows and per-set counts — is reused from
// one build to the next. Only the table's own storage is new: the build
// carves it from arenas and an occurrence buffer that go with the table,
// while the scratch's arenas stay pooled for the next Explore.
func BuildMRCTContext(ctx context.Context, s *trace.Stripped) (*MRCT, error) {
	sc := sharedScratch.Get(s.N())
	defer sharedScratch.Put(sc)
	i32, bs, occBuf := sc.i32, sc.bs, sc.occBuf
	sc.i32, sc.bs, sc.occBuf = int32Arena{}, bitset.Arena{}, nil
	defer func() { sc.i32, sc.bs, sc.occBuf = i32, bs, occBuf }()
	m := &MRCT{}
	if err := buildMRCT(ctx, s, sc, m); err != nil {
		return nil, err
	}
	return m, nil
}

// minChunkRefs is the fewest references buildMRCT gives one chunk.
// Seeding a chunk scans back over the trace before it and merging its
// table costs a lookup per distinct set, so a chunk must be long enough
// for its share of the loop to pay for both. BenchmarkBuildMRCT's
// /chunked runs measure the split (DESIGN.md, "MRCT build").
const minChunkRefs = 64 << 10

// chunkCount is the number of chunks buildMRCT splits a trace of n
// references into: one per core, each at least minChunkRefs long.
func chunkCount(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minChunkRefs))
}

// buildMRCT builds the conflict table into m using sc's reusable buffers,
// in chunkCount(N) chunks of the trace built side by side.
func buildMRCT(ctx context.Context, s *trace.Stripped, sc *Scratch, m *MRCT) error {
	return buildMRCTChunks(ctx, s, sc, m, chunkCount(s.N()))
}

// buildMRCTChunks builds the conflict table into m from k contiguous
// chunks of s.IDs, chunk j over IDs[j·N/k, (j+1)·N/k), and merges the
// chunk tables into the table the serial build makes, bit for bit. The
// serial build is k = 1. Every chunk runs on its own goroutine: chunk 0
// builds into m through sc, every other chunk into the table of a
// scratch pooled in sc.chunks.
//
// The conflict set of an occurrence depends only on the LRU order at
// its position. So a chunk seeded with the order of the trace before it
// (seedChunk) records exactly the windows the serial pass records over
// the chunk's references. Its table lists them in the order the chunk
// first sees them, each owned by the id that first listed it there. The
// merge (mergeChunk) takes the chunks in order. It looks each chunk set
// up by key in the merged table and confirms it by form and contents
// (sameSet). A set no earlier chunk has is first seen in this chunk, by
// its chunk-local owner, so appending the unseen sets in local order,
// copied into sc's arenas, rebuilds the serial set order and owners.
// Every occurrence is then counted where the serial pass counts it: in
// setCnt when its id is the set's merged owner, in overflow otherwise.
// That holds for a chunk's owner counts and for its overflow entries
// alike. The occurrence runs are packed once, from the merged counts
// (packOcc).
//
// Each chunk checks ctx every 4096 references, so a cancellation stops
// every chunk at its next check. The build returns only once every chunk
// has stopped; a chunk's panic is raised again on the calling goroutine,
// and otherwise the first chunk error is returned.
//
// The span carries the merged table's figures, which equal the serial
// build's, and the work counters summed over the chunks.
func buildMRCTChunks(ctx context.Context, s *trace.Stripped, sc *Scratch, m *MRCT, k int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, span := obs.StartSpan(ctx, "mrct")
	n, nu := s.N(), s.NUnique()
	sc.note(n)
	k = max(1, min(k, n))
	m.nunique = nu
	if cap(m.occ) < nu {
		m.occ = make([][]occurrence, nu)
	}
	m.occ = m.occ[:nu]
	for i := range m.occ {
		m.occ[i] = nil
	}
	// idHash[v] caches hashID(v) — a pure function of v, so the cache only
	// ever extends. The chunks share it read-only.
	for v := len(sc.idHash); v < nu; v++ {
		sc.idHash = append(sc.idHash, hashID(uint64(v)))
	}
	chunks := sc.mrctChunks(k)
	if err := runChunks(ctx, s, m, sc.idHash, chunks); err != nil {
		return err
	}
	var work mrctWork
	for j, c := range chunks {
		if j > 0 {
			sc.mergeChunk(m, c.sc)
		}
		work.add(c.work)
	}
	overflowRuns := sc.packOcc(m)
	if span != nil {
		occurrences := n - nu
		span.SetAttr("n", n)
		span.SetAttr("n_unique", nu)
		packed := m.PackedSets()
		span.SetAttr("distinct_sets", len(m.card))
		span.SetAttr("occurrences", occurrences)
		span.SetAttr("dedup_hit_rate", dedupHitRate(len(m.card), occurrences))
		span.SetAttr("max_card", m.maxCard)
		span.SetAttr("packed_sets", packed)
		span.SetAttr("run_sets", len(m.card)-packed)
		span.SetAttr("table_bytes", m.Bytes())
		span.SetAttr("chunks", k)
		span.SetAttr("compactions", work.compactions)
		span.SetAttr("verify_ids", work.verifyIDs)
		span.SetAttr("memo_hits", work.memoHits)
		span.SetAttr("folded", work.folded)
		span.SetAttr("repeats", work.repeats)
		span.SetAttr("overflow_runs", overflowRuns)
		span.End()
	}
	return nil
}

// mrctWork counts a build's work: tree compactions, ids read to verify
// candidates, recurrences resolved by the id's previous window, references
// counted inside a folded loop period, and same-word repeats.
type mrctWork struct {
	compactions, verifyIDs, memoHits, folded, repeats int
}

// add sums o's counters into w.
func (w *mrctWork) add(o mrctWork) {
	w.compactions += o.compactions
	w.verifyIDs += o.verifyIDs
	w.memoHits += o.memoHits
	w.folded += o.folded
	w.repeats += o.repeats
}

// mrctChunk is one chunk of a chunked build: the scratch it builds
// through and its outcome.
type mrctChunk struct {
	sc    *Scratch
	work  mrctWork
	err   error
	panic any
}

// mrctChunks returns the slots of a k-chunk build: chunk 0 builds through
// sc itself, every other chunk through a scratch sc keeps for it.
func (sc *Scratch) mrctChunks(k int) []mrctChunk {
	if len(sc.chunks) == 0 {
		sc.chunks = append(sc.chunks, mrctChunk{sc: sc})
	}
	for len(sc.chunks) < k {
		sc.chunks = append(sc.chunks, mrctChunk{sc: &Scratch{}})
	}
	chunks := sc.chunks[:k]
	for i := range chunks {
		chunks[i] = mrctChunk{sc: chunks[i].sc}
	}
	return chunks
}

// runChunks builds every chunk's table, each on its own goroutine: chunk
// 0's into m, chunk j's into its scratch's own. It returns once every
// chunk has stopped, raises the first chunk panic again, and otherwise
// returns the first chunk error.
func runChunks(ctx context.Context, s *trace.Stripped, m *MRCT, idHash []uint64, chunks []mrctChunk) error {
	n, k := s.N(), len(chunks)
	var wg sync.WaitGroup
	for j := range chunks {
		c, table := &chunks[j], m
		if j > 0 {
			table = &c.sc.mrct
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { c.panic = recover() }()
			c.work, c.err = c.sc.buildChunk(ctx, s, j*n/k, (j+1)*n/k, idHash, table)
		}()
	}
	wg.Wait()
	for _, c := range chunks {
		if c.panic != nil {
			panic(c.panic)
		}
	}
	for _, c := range chunks {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// buildChunk runs the build over s.IDs[lo:hi] into m, with sc's build
// state, starting from the LRU order of s.IDs[:lo]. It returns the
// chunk's work, or ctx's error.
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
// A candidate set cs matches iff |cs| == p and last[v] > t0 for every v
// in cs: exactly p distinct ids have a last access after t0, so such a cs
// is the window itself (accessedAfter). The check is exact and read-only,
// and at most one candidate can pass it, so the order candidates are
// tried in cannot affect the result. The first candidate is the set S of id's previous
// window (prevSet): loops repeat an id's window far more often than they
// move it. S is certified without reading it (see peakAfter): it is the
// window iff |S| == p and no reference since id's previous occurrence
// had a conflict set larger than p. Next come the sets stored under the
// window's key in the dedup table, newest first through dedupNext. Only a
// window never seen before is listed, by reading slot[t0+1..now-1] into
// the window vector, and stored in the smaller of its two forms
// (storeSet).
//
// Occurrences are counted per set, not recorded per occurrence: nearly
// every set is only ever the window of the id that first listed it (its
// owner), so an owner's occurrence is setCnt[c]++. Any other id's
// occurrence goes to the short overflow list, which packOcc sorts and
// run-length encodes once at the end.
//
// When the times run out at W, the live ids are renumbered 1..L in time
// order and the tree is rebuilt in O(W). W = 2N' leaves at least N' fresh
// times after each compaction, so compactions cost O(1) per reference.
// The build's work is O(N·log N'), plus Σ|C| over the dedup candidates it
// verifies, plus a scan of at most W slots per distinct window, instead of
// the stack walk's Σ|C| over every occurrence.
//
// Exact repetition skips the tree. A same-word repeat (id already holds
// the newest time) has the empty window and leaves the LRU order as it
// is: once the chunk has listed the empty set, it is counted against it
// and takes no time. And when the last P references each equal the one P
// before them, P being the distance back to the current id's previous
// occurrence, every reference of a next period equal to the last one has
// the window of the reference P before it, and the period leaves the LRU
// order as it found it. So such whole periods are counted from the ring
// of recorded sets alone, and the rest of the build runs as if they were
// not in the trace: nothing it keeps — tree, times, memo, peaks — moves
// for them. A failed look-ahead is not tried again before its first
// mismatch, so the comparisons stay O(N) (DESIGN.md §5, "folded loop
// periods").
//
// All of m's storage — set runs, packed bit-vectors, occurrence runs —
// is carved from sc's arenas. A pooled caller must treat m as
// invalidated once sc is reused; BuildMRCTContext gives sc fresh arenas
// for the build, which leave with the table.
func (sc *Scratch) buildChunk(ctx context.Context, s *trace.Stripped, lo, hi int, idHash []uint64, m *MRCT) (mrctWork, error) {
	nu := s.NUnique()
	sc.i32.reset()
	sc.bs.Reset()
	m.nunique = nu
	m.resetSets()
	sc.resetWindow(nu)
	// Per set index c: setKey[c] is the dedup key of its window, setOwner[c]
	// the id that first listed it, setCnt[c] the owner's occurrences of it
	// and dedupNext[c] the next older set stored under the same key, or -1.
	setKey, setOwner, setCnt := sc.setKey[:0], sc.setOwner[:0], sc.setCnt[:0]
	dedupNext := sc.dedupNext[:0]
	dedup := &sc.dedup
	dedup.reset()
	// The times start at the LRU order before the chunk. slot needs no
	// clearing, since only times already handed out in this chunk are read.
	w := fenwickSpan(nu)
	last := growInt32(&sc.last, nu)
	slot := growInt32(&sc.slot, w+1)
	if cap(sc.fen) < w+1 {
		sc.fen = make([]fenNode, w+1)
	}
	fen := sc.fen[:w+1]
	now, total := seedChunk(s.IDs[:lo], nu, last, slot, fen, idHash)
	// prevSet[id] is the set of id's latest window, -1 before its first,
	// and pos[id] the chunk position of that window's occurrence. peaks
	// holds the suffix maxima of the conflict-set sizes of the chunk's
	// references so far (see peakAfter); it never exceeds N'+1 entries.
	prevSet := growInt32(&sc.prevSet, nu)
	for i := range prevSet {
		prevSet[i] = -1
	}
	pos := growInt32(&sc.pos, nu)
	if cap(sc.peaks) < nu+1 {
		sc.peaks = make([]peak, nu+1)
	}
	peaks, top := sc.peaks[:nu+1], 0
	overflow := sc.overflow[:0] // id<<32 | set, per occurrence by a non-owner

	// The fold state. ring[i&mask] is the set of chunk position i's window
	// (not written for a cold reference, whose slot is never read) and
	// lastPos[id] id's latest chunk position, -1 before its first. The
	// references (i-runLen, i] each equal the one runP before them, and no
	// fold is tried before position skip, a failed look-ahead's first
	// mismatch.
	ring := growInt32(&sc.ring, min(foldRingMax, 1<<bits.Len(uint(hi-lo))))
	mask := len(ring) - 1
	lastPos := growInt32(&sc.lastPos, nu)
	for i := range lastPos {
		lastPos[i] = -1
	}
	runP, runLen, skip := 0, 0, 0
	// empty is the chunk's index of the empty set once it lists it, -1
	// before.
	empty := int32(-1)
	var work mrctWork

	ids := s.IDs[lo:hi]
	for i := 0; i < len(ids); i++ {
		// Fold the whole periods after i-1 that repeat the last runP
		// references.
		for runP > 0 && runLen >= runP && i > skip && i+runP <= len(ids) {
			if k := mismatch(ids[i:i+runP], ids[i-runP:i]); k >= 0 {
				skip = i + k
				break
			}
			for j := i; j < i+runP; j++ {
				if j&4095 == 0 {
					if err := ctx.Err(); err != nil {
						return mrctWork{}, err
					}
				}
				v, c := ids[j], ring[(j-runP)&mask]
				ring[j&mask], lastPos[v] = c, int32(j)
				if setOwner[c] == v {
					setCnt[c]++
				} else {
					overflow = append(overflow, uint64(v)<<32|uint64(c))
				}
			}
			work.folded += runP
			runLen += runP
			i += runP
		}
		if i == len(ids) {
			break
		}
		id := ids[i]
		if i&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return mrctWork{}, err
			}
		}
		if runP > 0 && ids[i-runP] == id {
			runLen++
		} else if q := int(lastPos[id]); q >= 0 && i-q <= len(ring) {
			runP, runLen = i-q, 1
		} else {
			runP, runLen = 0, 0
		}
		lastPos[id] = int32(i)
		if empty >= 0 && last[id] == now-1 {
			// A same-word repeat: id tops the LRU order, so its window is
			// empty and the order stays as it is. It takes no time.
			if setOwner[empty] == id {
				setCnt[empty]++
			} else {
				overflow = append(overflow, uint64(id)<<32|uint64(empty))
			}
			ring[i&mask] = empty
			work.repeats++
			continue
		}
		if int(now) > w {
			now = fenCompact(fen, slot, last, idHash, now)
			work.compactions++
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
			// A cold reference climbs past every id: it tops the peaks.
			peaks[0], top = peak{int32(i), coldPeak}, 1
			continue
		}
		// Conflict set = the ids last accessed after t0: the totals minus
		// the prefix up to t0 (which holds id itself).
		pre := fenPrefix(fen, int(t0))
		p := int(total.cnt - pre.cnt)
		idx := int32(-1)
		memo := prevSet[id]
		if memo >= 0 && int(m.card[memo]) == p && peakAfter(peaks[:top], pos[id]) <= int32(p) {
			idx = memo
			work.memoHits++
		}
		var key uint64
		var at int // key's slot in the dedup table
		if idx < 0 {
			key = hashID((total.hsum - pre.hsum) ^ ((total.hxor ^ pre.hxor) << 1) ^ uint64(p))
			at = dedup.find(key, setKey)
			for cand := dedup.head(at); cand >= 0; cand = dedupNext[cand] {
				if cand == memo || int(m.card[cand]) != p {
					continue
				}
				work.verifyIDs += p
				if m.accessedAfter(cand, last, t0) {
					idx = cand
					break
				}
			}
		}
		switch {
		case idx < 0:
			// First sighting: mark the live slots after t0 — exactly p of
			// them — in the window vector and store the set it holds.
			win, lo, hi := sc.win, int32(nu), int32(-1)
			for t, k := t0+1, 0; k < p; t++ {
				if v := slot[t]; v >= 0 {
					win[v>>6] |= 1 << (v & 63)
					lo, hi = min(lo, v), max(hi, v)
					k++
				}
			}
			idx = sc.storeSet(m, int(lo>>6), int(hi>>6), p)
			if p == 0 {
				empty = idx
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
		ring[i&mask] = idx
		prevSet[id], pos[id] = idx, int32(i)
		for top > 0 && peaks[top-1].p <= int32(p) {
			top--
		}
		peaks[top] = peak{int32(i), int32(p)}
		top++
		// Move id from t0 to now; the totals do not change.
		fenMove(fen, int(t0), int(now), h)
		slot[t0] = -1
		last[id], slot[now] = now, id
		now++
	}
	sc.setKey, sc.setOwner, sc.setCnt, sc.dedupNext = setKey, setOwner, setCnt, dedupNext
	sc.overflow = overflow
	return work, nil
}

// foldRingMax bounds buildChunk's ring of set indices, and with it the
// longest loop period the build folds.
const foldRingMax = 1 << 16

// mismatch returns the first index where a and b differ, -1 when they are
// equal. They have the same length.
func mismatch(a, b []int32) int {
	b = b[:len(a)]
	for k, v := range a {
		if b[k] != v {
			return k
		}
	}
	return -1
}

// peak is an entry of buildChunk's suffix-maximum stack: the chunk
// position of a reference and the size of its conflict set, coldPeak for
// a cold reference.
type peak struct{ pos, p int32 }

// coldPeak stands for a cold reference's conflict set: larger than any.
const coldPeak = math.MaxInt32

// peakAfter returns the largest conflict-set size among the chunk's
// references after position b, -1 when there are none. peaks holds, in
// ascending position, every reference no later one matched or exceeded,
// so their sizes strictly decrease and the first entry after b is the
// maximum: a binary search, O(log N').
//
// This certifies an id's previous window S, recorded at b, as its window
// W at its next occurrence: W = S iff |W| = |S| = p and peakAfter(b) ≤ p.
// After b, id tops the LRU stack with S just below it. id is a barrier:
// the ids referenced since b climb above it, and the others keep their
// order below it. While every id referenced since b belongs to S, the
// depths 1..p+1 hold only id and S, so a reference at depth ≤ p+1 (a
// conflict set of at most p) keeps W inside S; and |W| = |S| then makes
// them equal. Conversely, if W = S, every reference since b was to an id
// of S, at depth ≤ p+1. A reference deeper than p+1, or a cold one,
// brings in an id outside S, which stays in W.
func peakAfter(peaks []peak, b int32) int32 {
	lo, hi := 0, len(peaks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if peaks[mid].pos <= b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(peaks) {
		return -1
	}
	return peaks[lo].p
}

// seedChunk sets the build's times to the LRU order at the end of
// prefix, the trace before a chunk. A backward scan, which stops once all
// nu ids are seen, finds the L distinct ids of prefix by recency; they
// get the times L (most recent) down to 1, and the tree is built over
// them in O(W) as fenCompact builds it. Every other id stays cold.
// seedChunk returns the next free time, L+1, and the tree's totals. An
// empty prefix leaves the empty order the serial build starts from.
func seedChunk(prefix []int32, nu int, last, slot []int32, fen []fenNode, idHash []uint64) (int32, fenNode) {
	clear(last)
	l := int32(0)
	for i := len(prefix) - 1; i >= 0 && int(l) < nu; i-- {
		if v := prefix[i]; last[v] == 0 {
			l++
			last[v] = l
			slot[l] = v
		}
	}
	slices.Reverse(slot[1 : l+1])
	for t := int32(1); t <= l; t++ {
		last[slot[t]] = t
	}
	fenBuild(fen, slot, idHash, l)
	return l + 1, fenPrefix(fen, int(l))
}

// mergeChunk folds the table chunk scratch c built into m, the merged
// table of the chunks before it, whose set bookkeeping is sc's (see
// buildMRCTChunks). c.setMerged maps c's set indices to m's. An unseen
// set is copied into sc's arenas, so m holds none of c's storage.
func (sc *Scratch) mergeChunk(m *MRCT, c *Scratch) {
	setKey, setOwner, setCnt := sc.setKey, sc.setOwner, sc.setCnt
	dedupNext, overflow := sc.dedupNext, sc.overflow
	cm := &c.mrct
	merged := growInt32(&c.setMerged, len(cm.card))
	for lc := range cm.card {
		key, owner, cnt := c.setKey[lc], c.setOwner[lc], c.setCnt[lc]
		at := sc.dedup.find(key, setKey)
		g := sc.dedup.head(at)
		for g >= 0 && !sameSet(m, g, cm, int32(lc)) {
			g = dedupNext[g]
		}
		switch {
		case g < 0:
			var runs []int32
			var pk *bitset.Set
			if src := cm.packed[lc]; src != nil {
				pk = sc.bs.New(src.Cap())
				pk.Copy(src)
			} else {
				runs = sc.i32.alloc(len(cm.runs[lc]))
				copy(runs, cm.runs[lc])
			}
			g = m.appendSet(runs, pk, cm.card[lc])
			setKey = append(setKey, key)
			setOwner = append(setOwner, owner)
			setCnt = append(setCnt, cnt)
			dedupNext = append(dedupNext, sc.dedup.push(at, g, setKey))
		case setOwner[g] == owner:
			setCnt[g] += cnt
		default:
			for range cnt {
				overflow = append(overflow, uint64(owner)<<32|uint64(g))
			}
		}
		merged[lc] = g
	}
	for _, v := range c.overflow {
		id, g := int32(v>>32), merged[uint32(v)]
		if setOwner[g] == id {
			setCnt[g]++
		} else {
			overflow = append(overflow, uint64(id)<<32|uint64(g))
		}
	}
	sc.setKey, sc.setOwner, sc.setCnt = setKey, setOwner, setCnt
	sc.dedupNext, sc.overflow = dedupNext, overflow
}

// packOcc fills m.occ from sc's per-set owner counts and overflow list
// and returns the number of overflow runs. The occurrence runs, in
// set-index order per id, are carved from one exactly-sized buffer.
// Every set is one run of its owner's; the sorted overflow adds one run
// per distinct (id, set). sc.last is dead after the build: it counts each
// id's runs, then serves as its write cursor.
func (sc *Scratch) packOcc(m *MRCT) int {
	setOwner, setCnt, overflow := sc.setOwner, sc.setCnt, sc.overflow
	slices.Sort(overflow)
	runs := len(m.card)
	fill := sc.last[:m.nunique]
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
	overflowRuns := runs - len(m.card)
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
	return overflowRuns
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
	return dedupHitRate(len(m.card), m.Occurrences())
}

func dedupHitRate(distinct, occurrences int) float64 {
	if occurrences == 0 {
		return 0
	}
	return 1 - float64(distinct)/float64(occurrences)
}

// accessedAfter reports whether every id of set c was last accessed
// after time t0. A run-form set reads the contiguous last[lo:hi] of each
// run (afterAll); a bit-vector set reads last at each of its set bits.
func (m *MRCT) accessedAfter(c int32, last []int32, t0 int32) bool {
	if p := m.packed[c]; p != nil {
		for wi, w := range p.Words() {
			l := last[wi*64:]
			for ; w != 0; w &= w - 1 {
				if l[bits.TrailingZeros64(w)] <= t0 {
					return false
				}
			}
		}
		return true
	}
	r := m.runs[c]
	for i := 0; i+1 < len(r); i += 2 {
		if !afterAll(last[r[i]:r[i+1]], t0) {
			return false
		}
	}
	return true
}

// afterAll reports whether every time in l is after t0. It tests the
// minimum of eight times per step, so the common case — a matching
// candidate read to the end — takes one branch per block instead of one
// per id.
func afterAll(l []int32, t0 int32) bool {
	k := 0
	for ; k+8 <= len(l); k += 8 {
		c := l[k : k+8 : k+8]
		if min(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]) <= t0 {
			return false
		}
	}
	for _, v := range l[k:] {
		if v <= t0 {
			return false
		}
	}
	return true
}

// resetSets empties m's set table.
func (m *MRCT) resetSets() {
	m.runs, m.packed, m.card = m.runs[:0], m.packed[:0], m.card[:0]
	m.maxCard = 0
}

// appendSet adds a set of cardinality card, in the form runs or pk, to
// m's table and returns its index.
func (m *MRCT) appendSet(runs []int32, pk *bitset.Set, card int32) int32 {
	m.runs = append(m.runs, runs)
	m.packed = append(m.packed, pk)
	m.card = append(m.card, card)
	m.maxCard = max(m.maxCard, int(card))
	return int32(len(m.card) - 1)
}

// sameSet reports whether set i of a and set j of b are equal. The form
// follows from the contents and the universe alone, so equal sets of one
// universe share their form.
func sameSet(a *MRCT, i int32, b *MRCT, j int32) bool {
	pa, pb := a.packed[i], b.packed[j]
	if pa != nil || pb != nil {
		return pa != nil && pb != nil && pa.Equal(pb)
	}
	return slices.Equal(a.runs[i], b.runs[j])
}

// resetWindow sizes the window vector sc.win to a universe of nu ids, all
// clear. Between listings storeSet keeps it clear.
func (sc *Scratch) resetWindow(nu int) {
	words := (nu + 63) / 64
	if cap(sc.win) < words {
		sc.win = make([]uint64, words)
	}
	sc.win = sc.win[:words]
	clear(sc.win)
}

// storeSet adds the set held in the window vector to m and clears the
// vector. Its card ids lie in the words [wlo, whi] of sc.win, and every
// other word is clear. A run starts at each set bit whose lower neighbour
// is clear, so the set has Σ popcount(w &^ (w<<1 | carry)) runs, carry
// being the top bit of the word below. It is stored as a bit vector when
// its ⌈N′/64⌉ words take fewer bytes than its runs at 8 B each, as runs
// otherwise: the bits of w ^ (w<<1 | carry) alternate between a run's lo
// and its hi, and a run that reaches the top bit of word whi ends at
// 64·(whi+1). storeSet returns the set's index.
func (sc *Scratch) storeSet(m *MRCT, wlo, whi, card int) int32 {
	if card == 0 {
		return m.appendSet(nil, nil, 0)
	}
	win := sc.win[wlo : whi+1]
	nruns, carry := 0, uint64(0)
	for _, w := range win {
		nruns += bits.OnesCount64(w &^ (w<<1 | carry))
		carry = w >> 63
	}
	if len(sc.win) < nruns {
		pk := sc.bs.New(m.nunique)
		copy(pk.Words()[wlo:], win)
		clear(win)
		return m.appendSet(nil, pk, int32(card))
	}
	runs := sc.i32.alloc(2 * nruns)
	k := 0
	carry = 0
	for i, w := range win {
		base := int32(64 * (wlo + i))
		for t := w ^ (w<<1 | carry); t != 0; t &= t - 1 {
			runs[k] = base + int32(bits.TrailingZeros64(t))
			k++
		}
		carry = w >> 63
		win[i] = 0
	}
	if k < len(runs) {
		runs[k] = int32(64 * (whi + 1))
	}
	return m.appendSet(runs, nil, int32(card))
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
	fenBuild(fen, slot, idHash, l)
	return l + 1
}

// fenBuild rebuilds the tree over the ids slot[1..l], one per time, in
// O(W): every leaf is set, then each node adds itself into its parent.
func fenBuild(fen []fenNode, slot []int32, idHash []uint64, l int32) {
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
