package core

import (
	"context"
	"slices"

	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// oracleScratch extends Scratch with the state the stack-walk build needs
// and the production build does not keep: the global LRU stack with its
// epoch stamps and per-id positions, the dedup map and the flat
// occurrence pairs.
type oracleScratch struct {
	Scratch
	stamp     []uint64         // epoch stamps for O(|C|) set equality
	epoch     uint64           // monotone across builds: stamps never need zeroing
	pos       []int32          // LRU-stack position per id
	stack     []int            // the LRU stack itself
	dedupHead map[uint64]int32 // commutative hash -> newest set index
	pairs     []uint64         // (id<<32 | set index) per non-cold occurrence
	ids       []int32          // a candidate set's ids, expanded
}

// buildMRCTStack builds a caller-owned table with the stack-walk oracle.
func buildMRCTStack(s *trace.Stripped) *MRCT {
	m := &MRCT{}
	if err := buildMRCTOracle(context.Background(), s, &oracleScratch{}, m); err != nil {
		panic(err)
	}
	return m
}

// buildMRCTOracle is the stack-walk MRCT build that the Fenwick build
// replaced, kept (bar its name, scratch type and set encoding) as the
// test oracle TestMRCTMatchesStackOracle and FuzzBuildMRCT hold the
// production table to, field for field. It stores each new set through
// the production storeSet, so the two tables agree on every set's form.
//
// Deduplication is by commutative 64-bit hash of the (unsorted) stack
// prefix, verified against the stored candidates with an epoch-stamp
// membership check; the full sort of a conflict set happens only when it
// turns out to be a set never seen before. Repeat-dominated traces
// therefore sort each distinct window once instead of once per occurrence.
// Candidates sharing a hash are chained newest-first through dedupNext;
// at most one candidate can pass the stamp check, so chain order cannot
// affect the result.
//
// All of m's storage — set runs, packed bit-vectors, occurrence runs —
// is carved from sc's arenas. A pooled caller must treat m as invalidated
// once sc is reused; BuildMRCTContext passes a fresh scratch precisely so
// its output has no such lifetime.
func buildMRCTOracle(ctx context.Context, s *trace.Stripped, sc *oracleScratch, m *MRCT) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, span := obs.StartSpan(ctx, "mrct")
	nu := s.NUnique()
	sc.note(s.N())
	sc.i32.reset()
	sc.bs.Reset()
	sc.resetWindow(nu)
	m.nunique = nu
	m.resetSets()
	if cap(m.occ) < nu {
		m.occ = make([][]occurrence, nu)
	}
	m.occ = m.occ[:nu]
	for i := range m.occ {
		m.occ[i] = nil
	}
	// dedupHead maps the commutative hash to the newest candidate set
	// index; older candidates chain through dedupNext. Genuine collisions
	// are resolved by the stamp check below.
	if sc.dedupHead == nil {
		sc.dedupHead = make(map[uint64]int32)
	} else {
		clear(sc.dedupHead)
	}
	dedupHead := sc.dedupHead
	dedupNext := sc.dedupNext[:0]
	// idHash[v] caches hashID(v) — a pure function of v, so the cache only
	// ever extends; stamp/epoch implement O(|C|) set equality against an
	// unsorted candidate window. The epoch is monotone across builds, so
	// stamps never need clearing between pooled runs.
	for v := len(sc.idHash); v < nu; v++ {
		sc.idHash = append(sc.idHash, hashID(uint64(v)))
	}
	idHash := sc.idHash
	if len(sc.stamp) < nu {
		sc.stamp = append(sc.stamp, make([]uint64, nu-len(sc.stamp))...)
	}
	stamp := sc.stamp
	// pos[id] is id's position in the LRU stack (-1 when cold), so the
	// linear stack search of the old build is gone; move-to-front already
	// shifts the prefix, and the positions update in the same loop.
	if cap(sc.pos) < nu {
		sc.pos = make([]int32, nu)
	}
	pos := sc.pos[:nu]
	for i := range pos {
		pos[i] = -1
	}
	// pairs records (id, set index) per non-cold occurrence; one global
	// sort at the end replaces the per-id slices of the old build.
	pairs := sc.pairs[:0]

	stack := sc.stack[:0] // identifiers, most recent first
	for i, id := range s.IDs {
		if i&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		p := pos[id]
		if p < 0 {
			// Cold occurrence: no conflict set recorded (Table 4 ignores
			// the first occurrence).
			stack = append(stack, 0)
			copy(stack[1:], stack)
			for _, v := range stack[1:] {
				pos[v]++
			}
			stack[0] = int(id)
			pos[id] = 0
			continue
		}
		// Conflict set = stack prefix above id. Hash it commutatively and
		// stamp its members in one pass; no sort needed for lookup.
		sc.epoch++
		epoch := sc.epoch
		var hsum, hxor uint64
		for _, v := range stack[:p] {
			h := idHash[v]
			hsum += h
			hxor ^= h
			stamp[v] = epoch
		}
		key := hashID(hsum ^ (hxor << 1) ^ uint64(p))
		idx := int32(-1)
		if head, ok := dedupHead[key]; ok {
			for cand := head; cand >= 0; cand = dedupNext[cand] {
				if int(m.card[cand]) != int(p) {
					continue
				}
				sc.ids = m.appendIDs(sc.ids[:0], cand)
				match := true
				for _, v := range sc.ids {
					if stamp[v] != epoch {
						match = false
						break
					}
				}
				if match {
					idx = cand
					break
				}
			}
		}
		if idx < 0 {
			// First sighting: mark the set in the window vector and store
			// it.
			lo, hi := nu, -1
			for _, v := range stack[:p] {
				sc.win[v/64] |= 1 << (v % 64)
				lo, hi = min(lo, v), max(hi, v)
			}
			idx = sc.storeSet(m, lo/64, hi/64, int(p))
			if head, ok := dedupHead[key]; ok {
				dedupNext = append(dedupNext, head)
			} else {
				dedupNext = append(dedupNext, -1)
			}
			dedupHead[key] = idx
		}
		pairs = append(pairs, uint64(id)<<32|uint64(uint32(idx)))
		// Move to front.
		copy(stack[1:p+1], stack[:p])
		for _, v := range stack[1 : p+1] {
			pos[v]++
		}
		stack[0] = int(id)
		pos[id] = 0
	}
	sc.stack = stack[:0]
	sc.dedupNext = dedupNext

	// Sort (id, set) pairs and run-length encode into occurrence runs
	// carved from one exactly-sized buffer — occ[id] order per id is by
	// set index, the same as the old per-id sort produced.
	slices.Sort(pairs)
	runs := 0
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		runs++
		i = j
	}
	occBuf := sc.occBuf[:0]
	if cap(occBuf) < runs {
		// Pre-size before carving: a mid-fill growth would strand the
		// occ[id] slices already handed out on the old backing array.
		occBuf = make([]occurrence, 0, runs)
	}
	for i := 0; i < len(pairs); {
		id := int(pairs[i] >> 32)
		start := len(occBuf)
		for i < len(pairs) && int(pairs[i]>>32) == id {
			j := i
			for j < len(pairs) && pairs[j] == pairs[i] {
				j++
			}
			occBuf = append(occBuf, occurrence{set: int32(uint32(pairs[i])), count: int32(j - i)})
			i = j
		}
		m.occ[id] = occBuf[start:len(occBuf):len(occBuf)]
	}
	sc.occBuf = occBuf
	sc.pairs = pairs[:0]
	if span != nil {
		span.SetAttr("n", s.N())
		span.SetAttr("n_unique", nu)
		span.SetAttr("distinct_sets", len(m.card))
		span.SetAttr("occurrences", m.Occurrences())
		span.SetAttr("dedup_hit_rate", m.DedupHitRate())
		span.SetAttr("max_card", m.maxCard)
		span.SetAttr("packed_sets", m.PackedSets())
		span.End()
	}
	return nil
}
