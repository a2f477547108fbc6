package onepass

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

func synthTrace(n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t := trace.New(n)
	for i := 0; i < n; i++ {
		var addr uint32
		// Mix a hot working set with cold scans so every policy sees both
		// reuse and eviction pressure.
		switch rng.Intn(3) {
		case 0:
			addr = uint32(rng.Intn(64))
		case 1:
			addr = uint32(rng.Intn(512))
		default:
			addr = uint32(rng.Intn(1 << 12))
		}
		kind := trace.DataRead
		switch rng.Intn(4) {
		case 0:
			kind = trace.DataWrite
		case 1:
			kind = trace.Instr
		}
		t.Append(trace.Ref{Addr: addr, Kind: kind})
	}
	return t
}

var sweepPolicies = []struct {
	p ReplPolicy
	r cache.Replacement
}{
	{ReplLRU, cache.LRU},
	{ReplFIFO, cache.FIFO},
	{ReplRandom, cache.Random},
	{ReplPLRU, cache.PLRU},
}

// checkAgainstOracles compares a sweep cell for cell with the replica oracle and,
// at the listed associativities, with the cache simulator.
func checkAgainstOracles(t *testing.T, tr *trace.Trace, depth, maxAssoc, line int, p ReplPolicy, r cache.Replacement, simAssocs []int) {
	t.Helper()
	sw, err := PolicySweep(tr, depth, maxAssoc, line, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := policySweepOracle(tr, depth, maxAssoc, line, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sw, want) {
		t.Errorf("%s D=%d maxA=%d lw=%d: sweep %+v, oracle %+v", p, depth, maxAssoc, line, sw, want)
	}
	for _, a := range simAssocs {
		cfg := cache.Config{Depth: depth, Assoc: a, LineWords: line, Repl: r}
		res, err := cache.Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if sw.MissByAssoc[a] != res.Misses {
			t.Errorf("%s D=%d A=%d lw=%d: sweep misses %d, simulator %d",
				p, depth, a, line, sw.MissByAssoc[a], res.Misses)
		}
		if sw.Cold != res.ColdMisses {
			t.Errorf("%s D=%d A=%d lw=%d: sweep cold %d, simulator %d",
				p, depth, a, line, sw.Cold, res.ColdMisses)
		}
	}
}

func assocRange(lo, hi int) []int {
	var out []int
	for a := lo; a <= hi; a++ {
		out = append(out, a)
	}
	return out
}

// TestPolicySweepMatchesSimulator pins the sweep's contract: for every
// policy, depth, line size and associativity, one pass produces exactly
// the miss counts the full simulator produces config by config — Random
// included, because both draw from the same deterministic seed at the
// same full-set-miss points — and exactly the replica oracle's sweep.
func TestPolicySweepMatchesSimulator(t *testing.T) {
	tr := synthTrace(6000, 1)
	const maxAssoc = 5 // odd cap: exercises PLRU's non-power-of-two tree
	for _, depth := range []int{1, 4, 16, 64} {
		for _, line := range []int{1, 4, 16} {
			for _, pol := range sweepPolicies {
				checkAgainstOracles(t, tr, depth, maxAssoc, line, pol.p, pol.r, assocRange(1, maxAssoc))
			}
		}
	}
	// Past 64 ways a PLRU tree spans two words and the touch leaves the
	// one-word mask path. The oracle checks every associativity; the
	// simulator the ones around the word boundary. A shorter trace keeps
	// the oracle's per-way scans cheap and still overflows 70 ways.
	wide := synthTrace(2000, 4)
	for _, maxAssoc := range []int{65, 70} {
		for _, depth := range []int{1, 4} {
			for _, pol := range sweepPolicies {
				checkAgainstOracles(t, wide, depth, maxAssoc, 1, pol.p, pol.r,
					[]int{1, 2, 3, 63, 64, 65, maxAssoc})
			}
		}
	}
}

// TestPolicySweepHotCold: at depth 1 every reference shares one set, so
// the hot word's survival is all replacement policy. FIFO keeps losing
// it, so its misses fall past LRU's A_zero of 2.
func TestPolicySweepHotCold(t *testing.T) {
	tr := tracegen.HotCold(200)
	for _, pol := range sweepPolicies {
		checkAgainstOracles(t, tr, 1, 8, 1, pol.p, pol.r, assocRange(1, 8))
	}
	sw, err := PolicySweep(tr, 1, 8, 1, ReplFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cold != 201 || sw.MissByAssoc[1] != 199 || sw.MissByAssoc[2] != 99 {
		t.Errorf("FIFO hot/cold: cold %d, misses %v", sw.Cold, sw.MissByAssoc)
	}
	for a := 3; a <= 8; a++ {
		if sw.MissByAssoc[a] == 0 || sw.MissByAssoc[a] > sw.MissByAssoc[a-1] {
			t.Errorf("FIFO hot/cold: misses %v do not keep falling past 2 ways", sw.MissByAssoc)
		}
	}
}

// TestLinesReusedAcrossSweeps: one strip serves every depth and policy,
// and a sweeper's buffers carry nothing from one sweep into the next —
// a big stream and a small one interleaved through one PolicySweeper
// give the same sweeps as fresh PolicySweep calls.
func TestLinesReusedAcrossSweeps(t *testing.T) {
	big, small := synthTrace(4000, 3), tracegen.HotCold(200)
	var sw PolicySweeper
	var strip trace.Stripped
	for round := 0; round < 2; round++ {
		for _, tr := range []*trace.Trace{big, small} {
			for _, line := range []int{1, 4} {
				l, err := trace.StripLines(tr, line, &strip)
				if err != nil {
					t.Fatal(err)
				}
				for _, depth := range []int{8, 1, 64} {
					for _, pol := range sweepPolicies {
						maxAssoc := 4 + depth%7
						got, err := sw.SweepLines(l, depth, maxAssoc, pol.p)
						if err != nil {
							t.Fatal(err)
						}
						want, err := PolicySweep(tr, depth, maxAssoc, line, pol.p)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d lw=%d D=%d %s: reused %+v, fresh %+v",
								round, line, depth, pol.p, got, want)
						}
					}
				}
			}
		}
	}
}

// TestStripLines pins the strip invariants the sweeps rely on: ids in
// first-touch order, one line address per id.
func TestStripLines(t *testing.T) {
	tr := trace.FromAddrs(trace.DataRead, []uint32{9, 8, 3, 9, 12, 0, 15})
	l, err := trace.StripLines(tr, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.LineWords != 4 || !reflect.DeepEqual(l.IDs, []int32{0, 0, 1, 0, 2, 1, 2}) ||
		!reflect.DeepEqual(l.Unique, []uint32{2, 0, 3}) {
		t.Errorf("StripLines = %d-word lines, ids %v, lines %v; want 4, [0 0 1 0 2 1 2], [2 0 3]",
			l.LineWords, l.IDs, l.Unique)
	}
	if _, err := trace.StripLines(tr, 3, nil); err == nil {
		t.Error("StripLines accepted a 3-word line")
	}
}

// TestPolicySweepClampsAndValidates covers the accessor clamp and the
// argument checks.
func TestPolicySweepClampsAndValidates(t *testing.T) {
	tr := synthTrace(500, 2)
	sw, err := PolicySweep(tr, 8, 3, 1, ReplFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sw.Misses(10), sw.MissByAssoc[3]; got != want {
		t.Errorf("Misses(10) = %d, want clamp to Misses(3) = %d", got, want)
	}
	for _, bad := range []struct {
		depth, maxAssoc, line int
		p                     ReplPolicy
	}{
		{3, 2, 1, ReplFIFO},
		{8, 0, 1, ReplFIFO},
		{8, 2, 3, ReplFIFO},
		{8, 2, 1, ReplPolicy(9)},
	} {
		if _, err := PolicySweep(tr, bad.depth, bad.maxAssoc, bad.line, bad.p); err == nil {
			t.Errorf("PolicySweep(%+v) accepted invalid arguments", bad)
		}
	}
}

// TestPolicySweepEmptyTrace pins the degenerate case.
func TestPolicySweepEmptyTrace(t *testing.T) {
	sw, err := PolicySweep(trace.New(0), 4, 2, 1, ReplPLRU)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Accesses != 0 || sw.Cold != 0 || sw.MissByAssoc[1] != 0 || sw.MissByAssoc[2] != 0 {
		t.Errorf("empty trace sweep = %+v, want all zeros", sw)
	}
}

// TestPLRUVictimTable pins plruVictims to treeVictim: for every tree of
// at most 8 ways and every pattern of its node bits 0..6, the table names
// the way the walk does, and so does the walk with every higher bit of
// the word set, which the sweep masks off before the lookup.
func TestPLRUVictimTable(t *testing.T) {
	for a := 1; a <= 8; a++ {
		for bits := uint64(0); bits < 128; bits++ {
			want := treeVictim([]uint64{bits}, a)
			if got := int(plruVictims[a][bits]); got != want {
				t.Errorf("a=%d bits=%07b: table %d, treeVictim %d", a, bits, got, want)
			}
			if high := treeVictim([]uint64{bits | ^uint64(127)}, a); high != want {
				t.Errorf("a=%d bits=%07b: treeVictim reads bits past node 6 (%d, want %d)", a, bits, high, want)
			}
		}
	}
}

// BenchmarkPolicySweep times one policy's sweeps of every depth 1..64 at
// up to 8 ways over the crc instruction and data streams: the replica
// oracle, which re-hashes the stream and scans tags per sweep, against
// the dense-id kernels, which strip the stream once and probe each
// replica in O(1), or for LRU one bounded stack per set.
func BenchmarkPolicySweep(b *testing.B) {
	res, err := powerstone.Get("crc").Run()
	if err != nil {
		b.Fatal(err)
	}
	const maxAssoc = 8
	for _, st := range []struct {
		name string
		tr   *trace.Trace
	}{{"instr", res.Instr}, {"data", res.Data}} {
		tr := st.tr
		for _, p := range []ReplPolicy{ReplLRU, ReplFIFO, ReplPLRU} {
			b.Run(st.name+"/"+p.String()+"/oracle", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for depth := 1; depth <= 64; depth *= 2 {
						if _, err := policySweepOracle(tr, depth, maxAssoc, 1, p); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(st.name+"/"+p.String()+"/dense", func(b *testing.B) {
				var sw PolicySweeper
				var strip trace.Stripped
				for i := 0; i < b.N; i++ {
					l, err := trace.StripLines(tr, 1, &strip)
					if err != nil {
						b.Fatal(err)
					}
					for depth := 1; depth <= 64; depth *= 2 {
						if _, err := sw.SweepLines(l, depth, maxAssoc, p); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
