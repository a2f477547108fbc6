package tracegen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/example/cachedse/internal/trace"
)

func TestLoop(t *testing.T) {
	tr := Loop(0x100, 4, 3)
	if tr.Len() != 12 {
		t.Fatalf("Len = %d, want 12", tr.Len())
	}
	st := trace.ComputeStats(tr)
	if st.NUnique != 4 {
		t.Fatalf("NUnique = %d, want 4", st.NUnique)
	}
	if tr.Refs[0].Addr != 0x100 || tr.Refs[4].Addr != 0x100 {
		t.Fatal("loop does not restart at base")
	}
}

func TestStrided(t *testing.T) {
	tr := Strided(0, 4, 16, 8)
	want := []uint32{0, 4, 8, 12, 0, 4, 8, 12}
	for i, w := range want {
		if tr.Refs[i].Addr != w {
			t.Fatalf("ref %d = %d, want %d", i, tr.Refs[i].Addr, w)
		}
	}
	// Degenerate span.
	tr = Strided(5, 1, 0, 3)
	for _, r := range tr.Refs {
		if r.Addr != 5 {
			t.Fatal("span<=0 should pin all refs to base")
		}
	}
}

func TestUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := Uniform(rng, 100, 10, 1000)
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, r := range tr.Refs {
		if r.Addr < 100 || r.Addr >= 110 {
			t.Fatalf("address %d out of [100,110)", r.Addr)
		}
	}
	st := trace.ComputeStats(tr)
	if st.NUnique > 10 {
		t.Fatalf("NUnique = %d, want <= 10", st.NUnique)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := Zipf(rng, 0, 100, 5000, 1.2)
	counts := map[uint32]int{}
	for _, r := range tr.Refs {
		counts[r.Addr]++
	}
	// The hottest address should dominate: more than 20% of references.
	if counts[0] < tr.Len()/5 {
		t.Fatalf("Zipf head count = %d of %d, want heavy skew", counts[0], tr.Len())
	}
}

func TestMarkovInstructionStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	heads := []uint32{0x1000, 0x2000}
	tr := Markov(rng, 0, heads, 2000, 0.05)
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, r := range tr.Refs {
		if r.Kind != trace.Instr {
			t.Fatal("Markov must emit instruction references")
		}
	}
	// Sequential runs: most steps increment the PC by one.
	seq := 0
	for i := 1; i < tr.Len(); i++ {
		if tr.Refs[i].Addr == tr.Refs[i-1].Addr+1 {
			seq++
		}
	}
	if seq < tr.Len()/2 {
		t.Fatalf("only %d/%d sequential steps; stream is not instruction-like", seq, tr.Len())
	}
	// Defaults: no heads, silly p.
	tr = Markov(rng, 7, nil, 10, 2.0)
	if tr.Refs[0].Addr != 7 {
		t.Fatal("default head should be base")
	}
}

func TestMixedRoundRobin(t *testing.T) {
	a := trace.FromAddrs(trace.DataRead, []uint32{1, 2})
	b := trace.FromAddrs(trace.Instr, []uint32{10, 20, 30})
	m := Mixed(a, b)
	if m.Len() != 5 {
		t.Fatalf("Len = %d, want 5", m.Len())
	}
	wantAddrs := []uint32{1, 10, 2, 20, 30}
	for i, w := range wantAddrs {
		if m.Refs[i].Addr != w {
			t.Fatalf("ref %d = %d, want %d (refs %v)", i, m.Refs[i].Addr, w, m.Refs)
		}
	}
}

func TestSizedExactTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr, err := Sized(rng, 5000, 300)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.ComputeStats(tr)
	if st.N != 5000 {
		t.Fatalf("N = %d, want 5000", st.N)
	}
	if st.NUnique != 300 {
		t.Fatalf("N' = %d, want 300", st.NUnique)
	}
}

func TestSizedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := Sized(rng, 5, 10); err == nil {
		t.Fatal("Sized(5,10) should fail")
	}
	if _, err := Sized(rng, 10, 0); err == nil {
		t.Fatal("Sized(10,0) should fail")
	}
}

func TestWorkingSetPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := WorkingSetPhases(rng, 3, 100, 8)
	if tr.Len() != 300 {
		t.Fatalf("Len = %d, want 300", tr.Len())
	}
	// Phase p addresses live in [8p, 8p+8).
	for i, r := range tr.Refs {
		p := uint32(i / 100)
		if r.Addr < 8*p || r.Addr >= 8*p+8 {
			t.Fatalf("ref %d addr %d outside phase %d window", i, r.Addr, p)
		}
	}
}

// Property: Sized always hits both targets exactly for valid inputs.
func TestQuickSizedTargets(t *testing.T) {
	f := func(nRaw, uRaw uint16, seed int64) bool {
		u := int(uRaw)%200 + 1
		n := u + int(nRaw)%2000
		rng := rand.New(rand.NewSource(seed))
		tr, err := Sized(rng, n, u)
		if err != nil {
			return false
		}
		st := trace.ComputeStats(tr)
		return st.N == n && st.NUnique == u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHotCold(t *testing.T) {
	tr := HotCold(200)
	if tr.Len() != 400 {
		t.Fatalf("Len = %d, want 400", tr.Len())
	}
	for i, r := range tr.Refs {
		want := uint32(0)
		if i%2 == 1 {
			want = uint32(i/2 + 1)
		}
		if r.Addr != want {
			t.Fatalf("ref %d = %d, want %d", i, r.Addr, want)
		}
	}
	if st := trace.ComputeStats(tr); st.NUnique != 201 {
		t.Fatalf("NUnique = %d, want 201", st.NUnique)
	}
	if HotCold(0).Len() != 0 {
		t.Fatal("HotCold(0) is not empty")
	}
}

// The walk follows one cycle through every node: each lap visits all
// nodes once, and every lap repeats the first.
func TestPointerChase(t *testing.T) {
	const nodes, laps = 50, 3
	tr := PointerChase(rand.New(rand.NewSource(8)), nodes, nodes*laps)
	if tr.Len() != nodes*laps {
		t.Fatalf("Len = %d, want %d", tr.Len(), nodes*laps)
	}
	seen := map[uint32]bool{}
	sequential := 0
	for i, r := range tr.Refs {
		if r.Addr >= nodes {
			t.Fatalf("ref %d addr %d outside [0, %d)", i, r.Addr, nodes)
		}
		if i < nodes {
			seen[r.Addr] = true
		} else if r.Addr != tr.Refs[i-nodes].Addr {
			t.Fatalf("ref %d = %d, lap before had %d", i, r.Addr, tr.Refs[i-nodes].Addr)
		}
		if i > 0 && r.Addr == tr.Refs[i-1].Addr+1 {
			sequential++
		}
	}
	if len(seen) != nodes {
		t.Fatalf("first lap visits %d distinct nodes, want %d", len(seen), nodes)
	}
	// A random cycle is scattered, not a sequential sweep.
	if sequential > nodes*laps/4 {
		t.Fatalf("%d of %d steps are +1 strides; the walk is not scattered", sequential, tr.Len())
	}
}
