// Tuning: the Figure 1 comparison. Run the traditional design-simulate-
// analyze loop (exhaustive and iterative flavours) and the analytical
// approach on the same workload and budget, then compare the answers —
// identical — and the cost — simulations versus none.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

func main() {
	// A phase-changing workload with a skewed hot set: hard to eyeball,
	// exactly the case where designers reach for a tool.
	rng := rand.New(rand.NewSource(42))
	tr := tracegen.Mixed(
		tracegen.Loop(0x000, 48, 40),
		tracegen.Zipf(rng, 0x400, 256, 2000, 1.2),
		tracegen.Strided(0x800, 3, 96, 1500),
	)
	st := trace.ComputeStats(tr)
	k := st.MaxMisses / 10
	// maxAssoc must cover the analytical answer at depth 1 (the fully
	// associative bound is N' in the worst case).
	maxDepth, maxAssoc := 256, 256
	fmt.Printf("workload: N=%d N'=%d max misses=%d budget K=%d\n\n", st.N, st.NUnique, st.MaxMisses, k)

	exhaustive, err := dse.Exhaustive(context.Background(), tr, k, maxDepth, maxAssoc)
	if err != nil {
		log.Fatal(err)
	}
	iterative, err := dse.Iterative(context.Background(), tr, k, maxDepth, maxAssoc)
	if err != nil {
		log.Fatal(err)
	}
	analytical, err := dse.Analytical(context.Background(), tr, k, core.Options{MaxDepth: maxDepth})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %12s %14s  instances\n", "strategy", "simulations", "time")
	for _, row := range []struct {
		name string
		out  dse.Outcome
	}{
		{"exhaustive", exhaustive},
		{"iterative", iterative},
		{"analytical", analytical},
	} {
		fmt.Printf("%-12s %12d %14v  %v\n", row.name, row.out.Simulations, row.out.Elapsed, row.out.Instances)
	}

	for i := range analytical.Instances {
		if analytical.Instances[i] != exhaustive.Instances[i] ||
			analytical.Instances[i] != iterative.Instances[i] {
			log.Fatalf("strategies disagree at depth %d", analytical.Instances[i].Depth)
		}
	}
	fmt.Println("\nall three strategies agree; the analytical one simulated nothing.")
	speed := float64(exhaustive.Elapsed) / float64(analytical.Elapsed)
	fmt.Printf("analytical speedup over exhaustive: %.1fx\n", speed)
}
