package onepass

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/trace"
)

func reads(addrs ...uint32) *trace.Trace {
	return trace.FromAddrs(trace.DataRead, addrs)
}

func TestRunRejectsBadDepth(t *testing.T) {
	for _, d := range []int{0, -1, 3, 6} {
		if _, err := Run(reads(1), d); err == nil {
			t.Errorf("Run(depth=%d) succeeded, want error", d)
		}
	}
}

func TestRunEmptyTrace(t *testing.T) {
	p, err := Run(trace.New(0), 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cold != 0 || len(p.Hist) != 0 || p.Misses(1) != 0 {
		t.Fatalf("profile of empty trace = %+v", p)
	}
	if p.MaxAssoc() != 1 || p.MinAssoc(0) != 1 {
		t.Fatalf("empty trace MaxAssoc=%d MinAssoc=%d, want 1, 1", p.MaxAssoc(), p.MinAssoc(0))
	}
}

func TestRunSimpleDistances(t *testing.T) {
	// Depth 1: everything shares one set.
	// Sequence 1,2,3,1: the final 1 has two distinct intervening addrs.
	p, err := Run(reads(1, 2, 3, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cold != 3 {
		t.Fatalf("Cold = %d, want 3", p.Cold)
	}
	if len(p.Hist) != 3 || p.Hist[2] != 1 {
		t.Fatalf("Hist = %v, want distance-2 count of 1", p.Hist)
	}
	// Misses: A=1 or 2 -> 1 miss; A=3 -> 0.
	if p.Misses(1) != 1 || p.Misses(2) != 1 || p.Misses(3) != 0 {
		t.Fatalf("Misses = %d,%d,%d", p.Misses(1), p.Misses(2), p.Misses(3))
	}
	if p.MaxAssoc() != 3 {
		t.Fatalf("MaxAssoc = %d, want 3", p.MaxAssoc())
	}
}

func TestRunSetSeparation(t *testing.T) {
	// Depth 2: even/odd addresses go to different sets, so the odd stream
	// can't disturb the even one.
	p, err := Run(reads(0, 1, 3, 5, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Final 0: no intervening even addresses -> distance 0 (a hit at A=1).
	if p.Misses(1) != 0 {
		t.Fatalf("Misses(1) = %d, want 0", p.Misses(1))
	}
	if p.Cold != 4 {
		t.Fatalf("Cold = %d, want 4", p.Cold)
	}
}

func TestMissesPanicsOnBadAssoc(t *testing.T) {
	p, _ := Run(reads(1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Misses(0) did not panic")
		}
	}()
	p.Misses(0)
}

func TestMinAssoc(t *testing.T) {
	// Build distances: 1,2,3,1,2,3,1 at depth 1.
	// Occurrences: 1@0,3,6; 2@1,4; 3@2,5.
	// 1@3: distance 2; 2@4: distance 2; 3@5: distance 2; 1@6: distance 2.
	p, err := Run(reads(1, 2, 3, 1, 2, 3, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hist[2] != 4 {
		t.Fatalf("Hist = %v, want four distance-2 entries", p.Hist)
	}
	cases := []struct{ k, want int }{
		{0, 3}, {1, 3}, {3, 3}, {4, 1}, {100, 1}, {-1, 3},
	}
	for _, c := range cases {
		if got := p.MinAssoc(c.k); got != c.want {
			t.Errorf("MinAssoc(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestSweepDepths(t *testing.T) {
	ps, err := Sweep(reads(0, 1, 2, 3, 0, 1, 2, 3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 {
		t.Fatalf("Sweep returned %d profiles, want 4 (depths 1,2,4,8)", len(ps))
	}
	wantDepths := []int{1, 2, 4, 8}
	for i, p := range ps {
		if p.Depth != wantDepths[i] {
			t.Errorf("profile %d depth = %d, want %d", i, p.Depth, wantDepths[i])
		}
	}
	// Depth 4 and 8 fit the 4-address working set direct-mapped: no misses.
	if ps[2].Misses(1) != 0 || ps[3].Misses(1) != 0 {
		t.Error("expected zero misses at depths 4 and 8")
	}
	// Depth 1 direct-mapped misses everything non-cold: 4 misses.
	if ps[0].Misses(1) != 4 {
		t.Errorf("depth-1 Misses(1) = %d, want 4", ps[0].Misses(1))
	}
}

func TestSweepRejectsBadMax(t *testing.T) {
	if _, err := Sweep(reads(1), 5); err == nil {
		t.Fatal("Sweep(maxDepth=5) succeeded, want error")
	}
}

// Property: at every depth each reference is either cold or counted once
// in the histogram, and the direct-mapped misses are the histogram's mass
// past distance 0.
func TestQuickHistogramMass(t *testing.T) {
	f := func(addrBytes []uint8, depthPow uint8) bool {
		tr := trace.New(len(addrBytes))
		for _, b := range addrBytes {
			tr.Append(trace.Ref{Addr: uint32(b % 32), Kind: trace.DataRead})
		}
		p, err := Run(tr, 1<<(depthPow%5))
		if err != nil {
			return false
		}
		mass := 0
		for _, c := range p.Hist {
			mass += c
		}
		return mass+p.Cold == tr.Len() && (len(p.Hist) == 0 || p.Misses(1) == mass-p.Hist[0])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for random traces, depths and associativities, the one-pass
// miss count equals the event-driven LRU simulator's non-cold miss count.
func TestQuickMatchesSimulator(t *testing.T) {
	f := func(addrBytes []uint8, depthPow, assocRaw uint8) bool {
		depth := 1 << (depthPow % 5)
		assoc := 1 + int(assocRaw%6)
		tr := trace.New(0)
		for _, ab := range addrBytes {
			tr.Append(trace.Ref{Addr: uint32(ab), Kind: trace.DataRead})
		}
		p, err := Run(tr, depth)
		if err != nil {
			return false
		}
		res, err := cache.Simulate(cache.Config{Depth: depth, Assoc: assoc}, tr)
		if err != nil {
			return false
		}
		return p.Misses(assoc) == res.Misses && p.Cold == res.ColdMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinAssoc is the true minimum — it meets the budget and A-1
// does not (unless A == 1).
func TestQuickMinAssocIsMinimal(t *testing.T) {
	f := func(addrBytes []uint8, kRaw uint8) bool {
		tr := trace.New(0)
		for _, ab := range addrBytes {
			tr.Append(trace.Ref{Addr: uint32(ab % 32), Kind: trace.DataRead})
		}
		p, err := Run(tr, 4)
		if err != nil {
			return false
		}
		k := int(kRaw % 16)
		a := p.MinAssoc(k)
		if p.Misses(a) > k {
			return false
		}
		if a > 1 && p.Misses(a-1) <= k {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: misses are monotonically non-increasing in depth for
// direct-mapped... NOT true in general (depth changes mapping), but the
// histogram tail IS monotone in associativity. Verify that.
func TestQuickMissesMonotoneInAssoc(t *testing.T) {
	f := func(addrBytes []uint8) bool {
		tr := trace.New(0)
		for _, ab := range addrBytes {
			tr.Append(trace.Ref{Addr: uint32(ab), Kind: trace.DataRead})
		}
		p, err := Run(tr, 2)
		if err != nil {
			return false
		}
		prev := p.Misses(1)
		for a := 2; a <= 10; a++ {
			m := p.Misses(a)
			if m > prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRunDepth256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tr := trace.New(0)
	for i := 0; i < 100000; i++ {
		tr.Append(trace.Ref{Addr: uint32(rng.Intn(8192)), Kind: trace.DataRead})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(tr, 256); err != nil {
			b.Fatal(err)
		}
	}
}
