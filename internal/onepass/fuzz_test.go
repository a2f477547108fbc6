package onepass

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// fuzzUniverse is the number of word addresses fuzz bytes index into:
// more than 70, so the widest fuzzed replicas (past one PLRU word) still
// see full-set evictions at depth 1.
const fuzzUniverse = 96

// fuzzSweepArgs decodes a fuzz input: four header bytes choose the depth
// (1..16), maxAssoc (1..10, or 64..71 from 240 up, where PLRU trees span
// two words), the line size (1..16 words) and the policy; every further
// byte is one reference to a spread-out address of the fixed universe.
func fuzzSweepArgs(b []byte) (tr *trace.Trace, depth, maxAssoc, line int, p ReplPolicy) {
	var h [4]byte
	copy(h[:], b)
	depth = 1 << (h[0] % 5)
	maxAssoc = 1 + int(h[1]%10)
	if h[1] >= 240 {
		maxAssoc = 64 + int(h[1]-240)%8
	}
	line = 1 << (h[2] % 5)
	p = ReplPolicy(h[3] % 4)
	refs := b[min(len(b), 4):]
	if len(refs) > 512 {
		refs = refs[:512] // keep the simulator's maxAssoc runs cheap
	}
	tr = trace.New(len(refs))
	for _, r := range refs {
		tr.Append(trace.Ref{Addr: uint32(r%fuzzUniverse) * 7, Kind: trace.DataRead})
	}
	return tr, depth, maxAssoc, line, p
}

// fuzzRefs renders a trace over word addresses below fuzzUniverse as a
// fuzz input: the header, then address x as byte x, which fuzzSweepArgs
// reads back as address 7x.
func fuzzRefs(header []byte, tr *trace.Trace) []byte {
	b := append([]byte(nil), header...)
	for _, r := range tr.Refs {
		if r.Addr >= fuzzUniverse {
			panic(fmt.Sprintf("fuzzRefs: address %d outside the fuzz universe", r.Addr))
		}
		b = append(b, byte(r.Addr))
	}
	return b
}

// FuzzPolicySweep checks the dense-id sweep differentially: every
// associativity against a cache.Simulate run, and the whole sweep against
// the replica oracle. Each input is also swept, under all four policies,
// from three lists in place of the strip: the depth's exact
// direct-mapped miss list, a shallower depth's (a superset) and the list
// MissLists stores or shares for the depth. Each must give the
// full-strip sweep, which must give cache.Simulate.
func FuzzPolicySweep(f *testing.F) {
	f.Add([]byte{0, 7, 0, 1, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9})
	f.Add([]byte{2, 4, 1, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	// The shapes that broke the LRU cuts, under every policy at 8 ways:
	// hot/cold at depth 1 and a pointer chase at depth 4.
	for p := range byte(4) {
		f.Add(fuzzRefs([]byte{0, 7, 0, p}, tracegen.HotCold(95)))
		f.Add(fuzzRefs([]byte{2, 7, 0, p}, tracegen.PointerChase(rand.New(rand.NewSource(1)), 40, 400)))
	}
	// Direct-mapped hits, which the replica kernels skip: at depth 4 and
	// 4 ways (byte r is address 7r, in set 7r mod 4), each set's last line
	// comes back after references to other sets, between misses enough to
	// fill and evict every replica of set 0.
	revisit := []byte{
		0, 1, 0, 2, 0, 3, 0, 4, 5, 4, 6, 4, 8, 1, 8, 2, 8, 12, 3, 12,
		0, 4, 8, 12, 16, 0, 7, 0, 16, 9, 16, 4, 10, 4, 20, 11, 20, 8,
		0, 8, 24, 13, 24, 12, 1, 5, 9, 13, 1, 20, 2, 20, 0, 3, 0,
	}
	for _, p := range []ReplPolicy{ReplFIFO, ReplRandom, ReplPLRU} {
		f.Add(append([]byte{2, 3, 0, byte(p)}, revisit...))
	}
	// Miss lists at depth 4 (byte x is address 7x; 0..3 fall in four
	// sets, alternating between two at depth 2). A four-line loop misses
	// every reference at depths 1 and 2, so both levels share the strip,
	// and only its cold misses at depth 4, a list that halves the strip.
	// Doubling each reference halves the strip at depth 1 already; depth 2
	// then misses the whole of that list and shares it with its parent.
	var loop, doubled []byte
	for range 12 {
		for x := range byte(4) {
			loop = append(loop, x)
			doubled = append(doubled, x, x)
		}
	}
	for p := range byte(4) {
		f.Add(append([]byte{2, 3, 0, p}, loop...))
		f.Add(append([]byte{2, 3, 0, p}, doubled...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, depth, maxAssoc, line, p := fuzzSweepArgs(b)
		sw, err := PolicySweep(tr, depth, maxAssoc, line, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := policySweepOracle(tr, depth, maxAssoc, line, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sw, want) {
			t.Fatalf("%s D=%d maxA=%d lw=%d: sweep %+v, oracle %+v", p, depth, maxAssoc, line, sw, want)
		}
		repl := []cache.Replacement{ReplLRU: cache.LRU, ReplFIFO: cache.FIFO, ReplRandom: cache.Random, ReplPLRU: cache.PLRU}[p]
		for a := 1; a <= maxAssoc; a++ {
			res, err := cache.Simulate(cache.Config{Depth: depth, Assoc: a, LineWords: line, Repl: repl}, tr)
			if err != nil {
				t.Fatal(err)
			}
			if sw.MissByAssoc[a] != res.Misses || sw.Cold != res.ColdMisses {
				t.Fatalf("%s D=%d A=%d lw=%d: sweep %d misses (%d cold), simulator %d (%d cold)",
					p, depth, a, line, sw.MissByAssoc[a], sw.Cold, res.Misses, res.ColdMisses)
			}
		}
		checkListSweeps(t, tr, depth, maxAssoc, line)
	})
}

// checkListSweeps sweeps tr at depth under every policy from the strip,
// from the depth's exact direct-mapped miss list, from a shallower
// depth's (the strip's own at depth 1) and from MissLists' list, and
// checks that the four sweeps agree with each other and with
// cache.Simulate at every associativity. It checks MissLists' list to
// hold the exact one and its stored ids to stay below N.
func checkListSweeps(t *testing.T, tr *trace.Trace, depth, maxAssoc, line int) {
	t.Helper()
	l, err := trace.StripLines(tr, line, nil)
	if err != nil {
		t.Fatal(err)
	}
	lvl := bits.Len(uint(depth)) - 1
	var ml MissLists
	ml.Build(l, lvl)
	exact := dmMissList(l, depth)
	if !isSubsequence(exact, ml.At(lvl)) || !isSubsequence(ml.At(lvl), l.IDs) {
		t.Fatalf("D=%d lw=%d: list %v is not between the exact list %v and the strip", depth, line, ml.At(lvl), exact)
	}
	if ml.Stored() > max(len(l.IDs)-1, 0) {
		t.Fatalf("D=%d lw=%d: lists store %d ids for %d references", depth, line, ml.Stored(), len(l.IDs))
	}
	// Each distinct list is swept once; the strip is the full sweep's.
	names := []string{"exact", "superset", "built"}
	lists := [][]int32{exact, l.IDs, ml.At(lvl)}
	if depth > 1 {
		lists[1] = dmMissList(l, depth/2)
	}
	var sw PolicySweeper
	for p := range ReplPLRU + 1 {
		full, err := sw.SweepLines(l, depth, maxAssoc, p)
		if err != nil {
			t.Fatal(err)
		}
		for k, ids := range lists {
			if slices.Equal(ids, l.IDs) || slices.ContainsFunc(lists[:k], func(prev []int32) bool { return slices.Equal(prev, ids) }) {
				continue
			}
			got, err := sw.SweepList(l, ids, depth, maxAssoc, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, full) {
				t.Fatalf("%s D=%d maxA=%d lw=%d: %s list sweep %+v, strip sweep %+v", p, depth, maxAssoc, line, names[k], got, full)
			}
		}
		repl := []cache.Replacement{ReplLRU: cache.LRU, ReplFIFO: cache.FIFO, ReplRandom: cache.Random, ReplPLRU: cache.PLRU}[p]
		for a := 1; a <= maxAssoc; a++ {
			res, err := cache.Simulate(cache.Config{Depth: depth, Assoc: a, LineWords: line, Repl: repl}, tr)
			if err != nil {
				t.Fatal(err)
			}
			if full.MissByAssoc[a] != res.Misses {
				t.Fatalf("%s D=%d A=%d lw=%d: strip sweep %d misses, simulator %d", p, depth, a, line, full.MissByAssoc[a], res.Misses)
			}
		}
	}
}

// dmMissList is the references of l that miss a direct-mapped cache of
// depth sets, found by replaying the whole strip.
func dmMissList(l *trace.Stripped, depth int) []int32 {
	last := make([]int32, depth) // id+1 of each set's line, 0 while empty
	var out []int32
	for _, id := range l.IDs {
		set := l.Unique[id] & uint32(depth-1)
		if last[set] != id+1 {
			last[set] = id + 1
			out = append(out, id)
		}
	}
	return out
}

// isSubsequence reports whether sub is a subsequence of s.
func isSubsequence(sub, s []int32) bool {
	for _, id := range s {
		if len(sub) > 0 && sub[0] == id {
			sub = sub[1:]
		}
	}
	return len(sub) == 0
}
