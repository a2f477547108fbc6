// Hierarchy: size a second-level cache analytically. Fix a small L1,
// capture the stream that escapes it (misses + writebacks) with one
// simulation, and let the analytical explorer size every candidate L2 at
// once — then cross-check a few points against a real two-level
// simulation.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
)

func main() {
	res, err := powerstone.Get("compress").Run()
	if err != nil {
		log.Fatal(err)
	}
	tr := res.Data
	l1 := cache.Config{Depth: 16, Assoc: 1}

	filtered, err := dse.FilterThroughL1(tr, l1)
	if err != nil {
		log.Fatal(err)
	}
	r, err := core.Explore(context.Background(), filtered, core.Options{MaxDepth: 512})
	if err != nil {
		log.Fatal(err)
	}
	st := trace.ComputeStats(filtered)
	fmt.Printf("compress data stream: %d refs; after L1 %v: %d refs reach L2 (N'=%d)\n\n",
		tr.Len(), l1, filtered.Len(), st.NUnique)

	k := st.MaxMisses / 20
	fmt.Printf("optimal L2 instances for K=%d non-cold L2 misses:\n", k)
	for _, ins := range r.ParetoSet(k) {
		fmt.Printf("  L2 %v  size %4d words -> %d L2 misses\n",
			ins, ins.SizeWords(), r.Level(ins.Depth).Misses(ins.Assoc))
	}

	fmt.Println("\ncross-check against full two-level simulation:")
	for _, ins := range r.ParetoSet(k) {
		h, err := cache.NewHierarchy(l1, cache.Config{Depth: ins.Depth, Assoc: ins.Assoc})
		if err != nil {
			log.Fatal(err)
		}
		h.Run(tr)
		sim := h.L2.Results().Misses
		an := r.Level(ins.Depth).Misses(ins.Assoc)
		status := "OK"
		if sim != an {
			status = "MISMATCH"
		}
		fmt.Printf("  L2 %v: analytical %d, simulated %d  %s\n", ins, an, sim, status)
		if sim != an {
			log.Fatal("analytical L2 count diverged from simulation")
		}
	}
}
