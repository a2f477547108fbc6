package dse

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

func testTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(21))
	return tracegen.Mixed(
		tracegen.Loop(0x40, 24, 30),
		tracegen.Uniform(rng, 0x200, 40, 720),
	)
}

func TestStrategiesAgree(t *testing.T) {
	tr := testTrace()
	st := trace.ComputeStats(tr)
	for _, k := range []int{0, st.MaxMisses / 10, st.MaxMisses / 4} {
		an, err := Analytical(context.Background(), tr, k, core.Options{MaxDepth: 64})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Exhaustive(context.Background(), tr, k, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		it, err := Iterative(context.Background(), tr, k, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(an.Instances) != len(ex.Instances) || len(an.Instances) != len(it.Instances) {
			t.Fatalf("k=%d: instance counts differ: %d/%d/%d", k, len(an.Instances), len(ex.Instances), len(it.Instances))
		}
		for i := range an.Instances {
			if an.Instances[i] != ex.Instances[i] {
				t.Errorf("k=%d depth %d: analytical %v != exhaustive %v", k, an.Instances[i].Depth, an.Instances[i], ex.Instances[i])
			}
			if an.Instances[i] != it.Instances[i] {
				t.Errorf("k=%d depth %d: analytical %v != iterative %v", k, an.Instances[i].Depth, an.Instances[i], it.Instances[i])
			}
		}
	}
}

func TestSimulationCounts(t *testing.T) {
	tr := testTrace()
	an, err := Analytical(context.Background(), tr, 0, core.Options{MaxDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if an.Simulations != 0 {
		t.Fatalf("analytical performed %d simulations, want 0", an.Simulations)
	}
	ex, err := Exhaustive(context.Background(), tr, 0, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 7 depths x 16 associativities.
	if ex.Simulations != 7*16 {
		t.Fatalf("exhaustive simulations = %d, want %d", ex.Simulations, 7*16)
	}
	it, err := Iterative(context.Background(), tr, 0, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if it.Simulations >= ex.Simulations {
		t.Fatalf("iterative (%d sims) should beat exhaustive (%d sims)", it.Simulations, ex.Simulations)
	}
	if it.Simulations == 0 {
		t.Fatal("iterative must simulate at least once")
	}
}

func TestExhaustiveUnreachableBudget(t *testing.T) {
	// With maxAssoc 1 and a conflicting trace, budget 0 is unreachable at
	// depth 1; the strategy reports the bound rather than failing.
	tr := trace.FromAddrs(trace.DataRead, []uint32{1, 2, 1, 2, 1, 2})
	ex, err := Exhaustive(context.Background(), tr, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Instances) != 1 || ex.Instances[0].Assoc != 1 {
		t.Fatalf("instances = %v", ex.Instances)
	}
	it, err := Iterative(context.Background(), tr, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if it.Instances[0] != ex.Instances[0] {
		t.Fatalf("iterative %v != exhaustive %v under unreachable budget", it.Instances[0], ex.Instances[0])
	}
}

func TestGridValidation(t *testing.T) {
	tr := testTrace()
	if _, err := Exhaustive(context.Background(), tr, 0, 3, 4); err == nil {
		t.Error("Exhaustive accepted non-power-of-two depth")
	}
	if _, err := Exhaustive(context.Background(), tr, 0, 4, 0); err == nil {
		t.Error("Exhaustive accepted maxAssoc 0")
	}
	if _, err := Iterative(context.Background(), tr, 0, 5, 4); err == nil {
		t.Error("Iterative accepted non-power-of-two depth")
	}
	if _, err := Iterative(context.Background(), tr, 0, 4, -1); err == nil {
		t.Error("Iterative accepted negative maxAssoc")
	}
}

func TestVerifyAcceptsAnalyticalOutput(t *testing.T) {
	tr := testTrace()
	st := trace.ComputeStats(tr)
	k := st.MaxMisses / 20
	an, err := Analytical(context.Background(), tr, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(context.Background(), tr, an.Instances, k); err != nil {
		t.Fatalf("Verify rejected analytical instances: %v", err)
	}
}

func TestVerifyRejectsBadInstance(t *testing.T) {
	tr := trace.FromAddrs(trace.DataRead, []uint32{1, 2, 1, 2, 1, 2})
	// Depth 1, assoc 1 misses 4 times; budget 0 must be rejected.
	err := Verify(context.Background(), tr, []core.Instance{{Depth: 1, Assoc: 1}}, 0)
	if err == nil {
		t.Fatal("Verify accepted an instance violating the budget")
	}
}

func TestVerifyPropagatesConfigError(t *testing.T) {
	tr := testTrace()
	if err := Verify(context.Background(), tr, []core.Instance{{Depth: 3, Assoc: 1}}, 100); err == nil {
		t.Fatal("Verify accepted invalid depth")
	}
}

// Property: on random traces all three strategies return identical
// instances whenever the grid bounds cover the analytical answer.
func TestQuickStrategiesAgree(t *testing.T) {
	f := func(bs []uint8, kRaw uint8) bool {
		if len(bs) == 0 {
			return true
		}
		tr := trace.New(len(bs))
		for _, b := range bs {
			tr.Append(trace.Ref{Addr: uint32(b % 32), Kind: trace.DataRead})
		}
		st := trace.ComputeStats(tr)
		k := int(kRaw) % (st.MaxMisses + 1)
		an, err := Analytical(context.Background(), tr, k, core.Options{MaxDepth: 32})
		if err != nil {
			return false
		}
		ex, err := Exhaustive(context.Background(), tr, k, 32, 32)
		if err != nil {
			return false
		}
		it, err := Iterative(context.Background(), tr, k, 32, 32)
		if err != nil {
			return false
		}
		for i := range an.Instances {
			if an.Instances[i] != ex.Instances[i] || an.Instances[i] != it.Instances[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
