package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// traceFromBytes builds a bounded-address trace from random bytes.
func traceFromBytes(bs []uint8, mod uint32) *trace.Trace {
	t := trace.New(len(bs))
	for _, b := range bs {
		t.Append(trace.Ref{Addr: uint32(b) % mod, Kind: trace.DataRead})
	}
	return t
}

// bytesOfTrace renders a trace over addresses below fuzzUniverse as a
// FuzzExploreLRU input: address x becomes byte x, which the fuzzer reads
// back as address 7x.
func bytesOfTrace(tr *trace.Trace) []byte {
	b := make([]byte, tr.Len())
	for i, r := range tr.Refs {
		if r.Addr >= fuzzUniverse {
			panic(fmt.Sprintf("bytesOfTrace: address %d outside the fuzz universe", r.Addr))
		}
		b[i] = byte(r.Addr)
	}
	return b
}

// The paper's central guarantee: the analytical model counts exactly the
// non-cold misses of an LRU set-associative cache. Verify against the
// event-driven simulator across random traces, depths and associativities.
func TestQuickAnalyticalMatchesSimulator(t *testing.T) {
	f := func(bs []uint8, depthPow, assocRaw, modRaw uint8) bool {
		mod := uint32(modRaw)%120 + 8
		tr := traceFromBytes(bs, mod)
		r, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			return false
		}
		depth := 1 << (depthPow % uint8(len(r.Levels)))
		assoc := 1 + int(assocRaw%6)
		res, err := cache.Simulate(cache.Config{Depth: depth, Assoc: assoc}, tr)
		if err != nil {
			return false
		}
		return r.Level(depth).Misses(assoc) == res.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The analytical histogram tail must agree with the Mattson one-pass
// profile at every depth and associativity (two independent formulations
// of the same quantity).
func TestQuickAnalyticalMatchesOnePass(t *testing.T) {
	f := func(bs []uint8, modRaw uint8) bool {
		mod := uint32(modRaw)%120 + 8
		tr := traceFromBytes(bs, mod)
		r, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			return false
		}
		for _, l := range r.Levels {
			p, err := onepass.Run(tr, l.Depth)
			if err != nil {
				return false
			}
			maxA := l.AZero
			if p.MaxAssoc() > maxA {
				maxA = p.MaxAssoc()
			}
			for a := 1; a <= maxA+1; a++ {
				if l.Misses(a) != p.Misses(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The emitted optimal instances must honour the budget when simulated, and
// must be minimal: one step less associativity must break the budget.
func TestQuickOptimalSetIsOptimal(t *testing.T) {
	f := func(bs []uint8, kRaw uint8) bool {
		tr := traceFromBytes(bs, 64)
		st := trace.ComputeStats(tr)
		k := int(kRaw) % (st.MaxMisses + 1)
		r, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			return false
		}
		for _, ins := range r.OptimalSet(k) {
			res, err := cache.Simulate(cache.Config{Depth: ins.Depth, Assoc: ins.Assoc}, tr)
			if err != nil {
				return false
			}
			if res.Misses > k {
				return false // budget violated
			}
			if ins.Assoc > 1 {
				res2, err := cache.Simulate(cache.Config{Depth: ins.Depth, Assoc: ins.Assoc - 1}, tr)
				if err != nil {
					return false
				}
				if res2.Misses <= k {
					return false // not minimal
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The naive Algorithm 2 and the hash/LRU-stack MRCT must describe the same
// conflict structure: identical miss counts through the postlude.
func TestQuickMRCTNaiveEquivalent(t *testing.T) {
	f := func(bs []uint8) bool {
		if len(bs) > 60 {
			bs = bs[:60] // the naive build is O(N·N')
		}
		tr := traceFromBytes(bs, 32)
		s := trace.Strip(tr)
		fast := BuildMRCT(s)
		naive := BuildMRCTNaive(s)
		// Compare per-id conflict multisets.
		for id := 0; id < s.NUnique(); id++ {
			a := fast.ConflictSets(id)
			b := naive[id]
			if len(a) != len(b) {
				return false
			}
			key := func(set []int32) string {
				out := make([]byte, 0, len(set)*4)
				for _, v := range set {
					out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
				}
				return string(out)
			}
			am := map[string]int{}
			for _, set := range a {
				am[key(set)]++
			}
			for _, set := range b {
				am[key(set)]--
			}
			for _, n := range am {
				if n != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// DFS and materialised-BCAT postludes agree on random traces.
func TestQuickDFSMatchesBCAT(t *testing.T) {
	f := func(bs []uint8) bool {
		tr := traceFromBytes(bs, 64)
		s := trace.Strip(tr)
		m := BuildMRCT(s)
		dfs, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{})
		if err != nil {
			return false
		}
		mat, err := exploreBCAT(context.Background(), s, m, Options{})
		if err != nil {
			return false
		}
		if len(dfs.Levels) != len(mat.Levels) {
			return false
		}
		for i := range dfs.Levels {
			hi := dfs.Levels[i].AZero + 1
			for a := 1; a <= hi; a++ {
				if dfs.Levels[i].Misses(a) != mat.Levels[i].Misses(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// diffResults demands the strongest equality the engines promise:
// bit-identical Results — same level structure, same AZero, and
// element-for-element equal histograms (not just equal miss counts). It
// returns "" when identical, else a description of the first divergence.
func diffResults(a, b *Result) string {
	if a.N != b.N || a.NUnique != b.NUnique {
		return fmt.Sprintf("stats differ: (N=%d,N'=%d) vs (N=%d,N'=%d)", a.N, a.NUnique, b.N, b.NUnique)
	}
	if len(a.Levels) != len(b.Levels) {
		return fmt.Sprintf("level counts differ: %d vs %d", len(a.Levels), len(b.Levels))
	}
	for i := range a.Levels {
		la, lb := a.Levels[i], b.Levels[i]
		if la.Depth != lb.Depth {
			return fmt.Sprintf("level %d: depth %d vs %d", i, la.Depth, lb.Depth)
		}
		if la.AZero != lb.AZero {
			return fmt.Sprintf("depth %d: AZero %d vs %d", la.Depth, la.AZero, lb.AZero)
		}
		if len(la.Hist) != len(lb.Hist) {
			return fmt.Sprintf("depth %d: Hist lengths %d vs %d", la.Depth, len(la.Hist), len(lb.Hist))
		}
		for d := range la.Hist {
			if la.Hist[d] != lb.Hist[d] {
				return fmt.Sprintf("depth %d: Hist[%d] = %d vs %d", la.Depth, d, la.Hist[d], lb.Hist[d])
			}
		}
	}
	return ""
}

// The optimized engine must stay bit-identical with the materialised
// BCAT oracle: the depth-first postlude against the tree built level by
// level, over loop-, zipf-, uniform-, hot/cold- and pointer-chase-shaped
// synthetic workloads with fixed seeds. This is the regression gate for
// the hybrid conflict-set representation and the hash-deduped MRCT.
func TestCrossCheckEnginesBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 7, 4242} {
		rng := rand.New(rand.NewSource(seed))
		workloads := map[string]*trace.Trace{
			"loop":    tracegen.Loop(uint32(rng.Intn(512)), 32+rng.Intn(64), 20+rng.Intn(40)),
			"zipf":    tracegen.Zipf(rng, 0, 128+rng.Intn(256), 3000+rng.Intn(3000), 1.1+rng.Float64()),
			"uniform": tracegen.Uniform(rng, 0, 64+rng.Intn(192), 2000+rng.Intn(2000)),
			"hotcold": tracegen.HotCold(100 + rng.Intn(200)),
			"pointer": tracegen.PointerChase(rng, 64+rng.Intn(192), 2000+rng.Intn(2000)),
		}
		for name, tr := range workloads {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				s := trace.Strip(tr)
				m := BuildMRCT(s)
				seq, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				mat, err := exploreBCAT(context.Background(), s, m, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if d := diffResults(seq, mat); d != "" {
					t.Fatalf("BCAT vs DFS: %s", d)
				}

				// The ctz1 pack/unpack cycle must be invisible to the
				// engine: exploring the round-tripped trace, and
				// streaming the packed bytes straight into the engine
				// without materializing a *Trace, both reproduce the
				// text path's Result bit for bit.
				var packed bytes.Buffer
				if err := trace.WriteCTZ1(&packed, tr); err != nil {
					t.Fatal(err)
				}
				unpacked, err := trace.ReadCTZ1(bytes.NewReader(packed.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				viaPacked, err := Explore(context.Background(), unpacked, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if d := diffResults(seq, viaPacked); d != "" {
					t.Fatalf("explore over unpack(pack(t)) vs direct: %s", d)
				}
				dec, err := trace.NewCTZ1Decoder(bytes.NewReader(packed.Bytes()), trace.Limits{})
				if err != nil {
					t.Fatal(err)
				}
				streamed, err := Explore(context.Background(), dec, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if d := diffResults(seq, streamed); d != "" {
					t.Fatalf("streaming explore over ctz1 vs direct: %s", d)
				}
			})
		}
	}
}

// Monotonicity observed throughout Tables 7-30: for a fixed depth the
// required associativity never increases as the budget grows.
func TestQuickMinAssocMonotoneInBudget(t *testing.T) {
	f := func(bs []uint8) bool {
		tr := traceFromBytes(bs, 64)
		r, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			return false
		}
		for _, l := range r.Levels {
			prev := l.MinAssoc(0)
			for k := 1; k <= 20; k++ {
				a := l.MinAssoc(k)
				if a > prev {
					return false
				}
				prev = a
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A deterministic, larger end-to-end cross-check with a loopy synthetic
// workload resembling embedded kernels.
func TestAnalyticalMatchesSimulatorLoopyWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	tr := trace.New(0)
	// Three nested loop bodies with strided array walks and a few globals.
	for outer := 0; outer < 40; outer++ {
		for i := 0; i < 32; i++ {
			tr.Append(trace.Ref{Addr: uint32(0x100 + i), Kind: trace.DataRead})
			tr.Append(trace.Ref{Addr: uint32(0x200 + i*2), Kind: trace.DataRead})
			tr.Append(trace.Ref{Addr: 0x400, Kind: trace.DataWrite})
			if i%4 == 0 {
				tr.Append(trace.Ref{Addr: uint32(0x300 + rng.Intn(16)), Kind: trace.DataRead})
			}
		}
	}
	r, err := Explore(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{1, 4, 16, 64, 256} {
		for _, assoc := range []int{1, 2, 4} {
			res, err := cache.Simulate(cache.Config{Depth: depth, Assoc: assoc}, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Level(depth).Misses(assoc); got != res.Misses {
				t.Errorf("depth %d assoc %d: analytical %d != simulated %d", depth, assoc, got, res.Misses)
			}
		}
	}
}

// FuzzExploreLRU checks the analytical engine against the policy
// sweeper's bounded-stack LRU kernel, the engine space mode reads instead:
// at every depth and for every source kind, Misses(a)
// must equal the sweep's MissByAssoc[a] over an axis long enough (N′
// ways) to reach A_zero. Fuzz bytes index a fixed universe of spread-out
// addresses, so deep levels still split.
func FuzzExploreLRU(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7})
	f.Add([]byte{3, 3, 3, 3})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, the quick brown fox"))
	// The shapes that broke the LRU cuts: hot/cold and a pointer chase.
	f.Add(bytesOfTrace(tracegen.HotCold(fuzzUniverse - 1)))
	f.Add(bytesOfTrace(tracegen.PointerChase(rand.New(rand.NewSource(1)), fuzzUniverse, 300)))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 512 {
			b = b[:512]
		}
		tr := trace.New(len(b))
		for _, x := range b {
			tr.Append(trace.Ref{Addr: uint32(x%fuzzUniverse) * 7, Kind: trace.DataRead})
		}
		s := trace.Strip(tr)
		maxAssoc := max(1, s.NUnique())
		var sw onepass.PolicySweeper
		sources := map[string]func() Source{
			"trace":   func() Source { return tr },
			"reader":  func() Source { return trace.NewReader(tr) },
			"prelude": func() Source { return Prelude{Stripped: s, MRCT: BuildMRCT(s)} },
		}
		for name, src := range sources {
			res, err := Explore(context.Background(), src(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, lr := range res.Levels {
				lru, err := sw.SweepLines(s, lr.Depth, maxAssoc, onepass.ReplLRU)
				if err != nil {
					t.Fatal(err)
				}
				for a := 1; a <= maxAssoc; a++ {
					if got, want := lr.Misses(a), lru.MissByAssoc[a]; got != want {
						t.Fatalf("%s D=%d A=%d: Explore %d misses, LRU sweep %d",
							name, lr.Depth, a, got, want)
					}
				}
			}
		}
	})
}

// TestCacheFlushSemantics: a flush empties the cache and writes back its
// dirty lines, and a line re-touched after the flush misses without
// counting as cold, since the trace has seen it before.
func TestCacheFlushSemantics(t *testing.T) {
	c := cache.MustNew(cache.Config{Depth: 4, Assoc: 2})
	c.Access(trace.Ref{Addr: 1, Kind: trace.DataWrite}) // dirty
	c.Access(trace.Ref{Addr: 2, Kind: trace.DataRead})
	c.Flush()
	if c.Contains(1) || c.Contains(2) {
		t.Fatal("lines survived the flush")
	}
	if got := c.Results().Writebacks; got != 1 {
		t.Fatalf("Writebacks = %d, want 1 (dirty line)", got)
	}
	// Re-access: misses, but NOT cold (seen before the flush).
	c.Access(trace.Ref{Addr: 1, Kind: trace.DataRead})
	if got := c.Results().Misses; got != 1 {
		t.Fatalf("post-flush non-cold misses = %d, want 1", got)
	}
}
