package dse

import (
	"context"
	"testing"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/cacti"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

func TestEnergyAwareMeetsBudget(t *testing.T) {
	tr := testTrace()
	st := trace.ComputeStats(tr)
	k := st.MaxMisses / 10
	choice, err := EnergyAware(tr, k, []int{1, 2, 4}, 4096, cacti.DefaultParams(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if choice.EnergyPJ <= 0 {
		t.Fatal("non-positive energy")
	}
	// The chosen instance must honour the budget under simulation at its
	// own line size (simulated against the original word trace).
	l := choice.Levels[0]
	res, err := cache.Simulate(cache.Config{Depth: l.Depth, Assoc: l.Assoc, LineWords: l.LineWords}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses > k {
		t.Fatalf("chosen %v misses %d > K=%d", l, res.Misses, k)
	}
	if res.Misses+res.ColdMisses != choice.Misses {
		t.Fatalf("predicted total misses %d != simulated %d", choice.Misses, res.Misses+res.ColdMisses)
	}
}

// TestEnergyAwareIsMinimal brute-forces every (line, depth, assoc) cell
// that fits the capacity — not only the front the selector reads — and
// confirms no cell meeting the budget is cheaper than the choice.
func TestEnergyAwareIsMinimal(t *testing.T) {
	tr := testTrace()
	st := trace.ComputeStats(tr)
	k := st.MaxMisses / 4
	lineWords := []int{1, 2}
	const capWords = 2048
	params := cacti.DefaultParams()
	const penalty = 2000.0

	choice, err := EnergyAware(tr, k, lineWords, capWords, params, penalty)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := core.LineSizes(context.Background(), tr, core.Options{}, lineWords)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range lines {
		for _, l := range lr.Result.Levels {
			for a := 1; l.Depth*a*lr.LineWords <= capWords; a++ {
				if l.Misses(a) > k {
					continue
				}
				est, err := cacti.Model(cache.Config{Depth: l.Depth, Assoc: a, LineWords: lr.LineWords}, params)
				if err != nil {
					t.Fatal(err)
				}
				energy := cacti.AccessEnergy(est, tr.Len(), lr.Cold+l.Misses(a), 0, penalty)
				if energy < choice.EnergyPJ*(1-1e-12) {
					t.Fatalf("found cheaper candidate D=%d A=%d L=%d (%.0f pJ < %.0f pJ)",
						l.Depth, a, lr.LineWords, energy, choice.EnergyPJ)
				}
			}
		}
	}
}

func TestEnergyAwareNoFit(t *testing.T) {
	tr := testTrace()
	if _, err := EnergyAware(tr, 0, []int{1}, 1, cacti.DefaultParams(), 2000); err == nil {
		t.Fatal("capacity 1 word should fit nothing at K=0")
	}
}

// TestEnergyAwareZeroCapacity: a zero-word capacity fits no cache, however
// loose the miss budget.
func TestEnergyAwareZeroCapacity(t *testing.T) {
	tr := trace.FromAddrs(trace.DataRead, []uint32{0, 1, 2, 3, 0, 1, 2, 3})
	if _, err := EnergyAware(tr, 1<<30, []int{1}, 0, cacti.DefaultParams(), 2000); err == nil {
		t.Fatal("capacity 0 should fit nothing")
	}
}

func TestEnergyAwarePenaltyShiftsChoice(t *testing.T) {
	// With a huge miss penalty the selector should accept a bigger, more
	// power-hungry cache to buy misses down; with a tiny penalty it should
	// prefer the smallest cache meeting the budget.
	rng := tracegen.Loop(0, 96, 60) // 96-word loop
	st := trace.ComputeStats(rng)
	k := st.MaxMisses // budget never binds; energy decides alone
	cheap, err := EnergyAware(rng, k, []int{1}, 4096, cacti.DefaultParams(), 0.001)
	if err != nil {
		t.Fatal(err)
	}
	dear, err := EnergyAware(rng, k, []int{1}, 4096, cacti.DefaultParams(), 1e7)
	if err != nil {
		t.Fatal(err)
	}
	if dear.Misses > cheap.Misses {
		t.Fatalf("high penalty picked more misses (%d) than low penalty (%d)", dear.Misses, cheap.Misses)
	}
	if cheap.Levels[0].SizeWords() > dear.Levels[0].SizeWords() {
		t.Fatalf("low penalty picked bigger cache (%v) than high penalty (%v)", cheap.Levels[0], dear.Levels[0])
	}
}

// TestEnergyAwareLineChoice pins the line-size axis: strided access gains
// nothing from wide lines, which only multiply refill energy, while
// sequential access cuts its cold misses by the line width.
func TestEnergyAwareLineChoice(t *testing.T) {
	strided := make([]uint32, 0, 800)
	for rep := 0; rep < 8; rep++ {
		for i := uint32(0); i < 100; i++ {
			strided = append(strided, i*4)
		}
	}
	seq := make([]uint32, 0, 800)
	for rep := 0; rep < 2; rep++ {
		for i := uint32(0); i < 400; i++ {
			seq = append(seq, i)
		}
	}
	for _, c := range []struct {
		name  string
		addrs []uint32
		k     int
		want  int
	}{
		{"strided", strided, 0, 1},
		{"sequential", seq, 1 << 30, 4},
	} {
		p, err := EnergyAware(trace.FromAddrs(trace.DataRead, c.addrs), c.k, []int{1, 4}, 128, cacti.DefaultParams(), 2000)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := p.Levels[0].LineWords; got != c.want {
			t.Errorf("%s workload picked %d-word lines (%v), want %d", c.name, got, p.Levels[0], c.want)
		}
	}
}

// TestEnergyAwareZeroPenalty: a zero penalty prices misses at nothing,
// rather than falling back to the design-space default.
func TestEnergyAwareZeroPenalty(t *testing.T) {
	tr := testTrace()
	p, err := EnergyAware(tr, 1<<30, []int{1}, 4096, cacti.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	l := p.Levels[0]
	est, err := cacti.Model(cache.Config{Depth: l.Depth, Assoc: l.Assoc, LineWords: l.LineWords}, cacti.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if want := cacti.AccessEnergy(est, tr.Len(), p.Misses, 0, 0); p.EnergyPJ != want {
		t.Errorf("zero-penalty energy %v, want %v", p.EnergyPJ, want)
	}
}
