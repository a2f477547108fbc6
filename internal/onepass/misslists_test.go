package onepass

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// shrinkByOne returns a stream whose direct-mapped miss list loses
// exactly one reference per depth level up to 2^levels: a ping-pong of
// pings lines 0 and 2^levels, one set at every depth swept, then for each
// level l ≥ 1 the lines x, y = x + 2^(l-1), x. The last x misses at every
// depth below 2^l, where y shares its set, and hits from 2^l on. Every
// other reference misses at every depth.
func shrinkByOne(levels, pings int) *trace.Trace {
	tr := trace.New(2*pings + 3*levels)
	for range pings {
		tr.Append(trace.Ref{Addr: 0, Kind: trace.DataRead})
		tr.Append(trace.Ref{Addr: 1 << levels, Kind: trace.DataRead})
	}
	for l := 1; l <= levels; l++ {
		x := uint32(l+1) << (levels + 1)
		for _, a := range []uint32{x, x + 1<<(l-1), x} {
			tr.Append(trace.Ref{Addr: a, Kind: trace.DataRead})
		}
	}
	return tr
}

// TestMissListsBound: on a stream whose direct-mapped miss lists shrink
// by one reference per level, storing each level's list would take about
// levels·N ids. Under the halving rule every level shares the strip, so
// the lists store nothing, and each level's sweep from its list still
// matches the simulator under every policy.
func TestMissListsBound(t *testing.T) {
	const levels, maxAssoc = 9, 4
	tr := shrinkByOne(levels, 200)
	l, err := trace.StripLines(tr, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(l.IDs)
	var ml MissLists
	ml.Build(l, levels)
	for lvl := 0; lvl <= levels; lvl++ {
		if got := len(dmMissList(l, 1<<lvl)); got != n-lvl {
			t.Fatalf("depth %d: the exact list holds %d references, want %d", 1<<lvl, got, n-lvl)
		}
	}
	if ml.Stored() >= n {
		t.Fatalf("lists store %d ids for %d references", ml.Stored(), n)
	}
	var sw PolicySweeper
	for lvl := 0; lvl <= levels; lvl++ {
		depth := 1 << lvl
		for p := range ReplPLRU + 1 {
			got, err := sw.SweepList(l, ml.At(lvl), depth, maxAssoc, p)
			if err != nil {
				t.Fatal(err)
			}
			repl := []cache.Replacement{ReplLRU: cache.LRU, ReplFIFO: cache.FIFO, ReplRandom: cache.Random, ReplPLRU: cache.PLRU}[p]
			for a := 1; a <= maxAssoc; a++ {
				res, err := cache.Simulate(cache.Config{Depth: depth, Assoc: a, LineWords: 1, Repl: repl}, tr)
				if err != nil {
					t.Fatal(err)
				}
				if got.MissByAssoc[a] != res.Misses || got.Cold != res.ColdMisses || got.Accesses != n {
					t.Fatalf("%s D=%d A=%d: list sweep %d misses (%d cold, %d accesses), simulator %d (%d cold, %d)",
						p, depth, a, got.MissByAssoc[a], got.Cold, got.Accesses, res.Misses, res.ColdMisses, n)
				}
			}
		}
	}
}

// TestMissListsShareAndHalve pins the halving rule on the shapes the
// fuzz seeds use, at depths 1, 2 and 4 (address 7x for x = 0..3 falls
// in four sets, two at depth 2). A four-line loop misses everything at
// depths 1 and 2, so both share the strip; depth 4 keeps only the four
// cold misses and stores them. Doubling each reference halves the strip
// at depth 1, which stores its list; depth 2 misses the whole of it and
// shares it; depth 4 stores the cold misses again.
func TestMissListsShareAndHalve(t *testing.T) {
	var loop, doubled []uint32
	for range 12 {
		for x := range uint32(4) {
			loop = append(loop, 7*x)
			doubled = append(doubled, 7*x, 7*x)
		}
	}
	cold := []int32{0, 1, 2, 3}
	for _, c := range []struct {
		name   string
		addrs  []uint32
		shares []int // per level: the level whose list it reads, -1 for the strip
	}{
		{"loop", loop, []int{-1, -1, 2}},
		{"doubled", doubled, []int{0, 0, 2}},
	} {
		l, err := trace.StripLines(trace.FromAddrs(trace.DataRead, c.addrs), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ml MissLists
		ml.Build(l, 2)
		for lvl, from := range c.shares {
			want := l.IDs
			if from >= 0 {
				want = dmMissList(l, 1<<from)
			}
			if got := ml.At(lvl); !reflect.DeepEqual(got, want) {
				t.Errorf("%s depth %d: list %v, want %v", c.name, 1<<lvl, got, want)
			}
		}
		if got := ml.At(2); !reflect.DeepEqual(got, cold) {
			t.Errorf("%s depth 4: list %v, want the cold misses %v", c.name, got, cold)
		}
		if from := c.shares[1]; from >= 0 && &ml.At(1)[0] != &ml.At(from)[0] {
			t.Errorf("%s: depth 2 copies its parent's list rather than sharing it", c.name)
		}
	}
}

// TestMissListsStoredBelowN: on streams of assorted shapes the lists
// hold every direct-mapped miss, in order, and store fewer ids than the
// strip has references.
func TestMissListsStoredBelowN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ml MissLists // reused across strips, as a stage slot reuses it
	for _, tr := range []*trace.Trace{
		tracegen.Loop(0, 300, 20),
		tracegen.Uniform(rng, 0, 500, 5000),
		tracegen.Zipf(rng, 0, 2000, 8000, 1.2),
		tracegen.WorkingSetPhases(rng, 4, 2000, 64),
		tracegen.HotCold(3000),
	} {
		for _, line := range []int{1, 4} {
			l, err := trace.StripLines(tr, line, nil)
			if err != nil {
				t.Fatal(err)
			}
			const levels = 10
			ml.Build(l, levels)
			if ml.Stored() >= len(l.IDs) {
				t.Errorf("lw=%d: lists store %d ids for %d references", line, ml.Stored(), len(l.IDs))
			}
			for lvl := 0; lvl <= levels; lvl++ {
				if exact := dmMissList(l, 1<<lvl); !isSubsequence(exact, ml.At(lvl)) || !isSubsequence(ml.At(lvl), l.IDs) {
					t.Fatalf("lw=%d depth %d: list is not between the exact list and the strip", line, 1<<lvl)
				}
			}
		}
	}
}
