// Energy: the paper's energy future-work axis in one flow. Trace the adpcm
// kernel's data stream, explore line size x depth x associativity
// analytically, and pick the minimum-energy configuration meeting a miss
// budget using the CACTI-flavoured cost model, once per off-chip miss
// penalty.
package main

import (
	"fmt"
	"log"

	"github.com/example/cachedse/internal/cacti"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
)

func main() {
	res, err := powerstone.Get("adpcm").Run()
	if err != nil {
		log.Fatal(err)
	}
	tr := res.Data
	st := trace.ComputeStats(tr)
	k := st.MaxMisses / 10
	fmt.Printf("adpcm data stream: N=%d N'=%d, budget K=%d\n\n", st.N, st.NUnique, k)

	// Sweep the miss penalty: as off-chip accesses get costlier, the
	// minimum-energy design point grows.
	fmt.Printf("%12s  %5s  %-14s %8s %12s\n", "penalty (pJ)", "line", "instance", "misses", "energy (nJ)")
	for _, penalty := range []float64{100, 1000, 10000, 100000} {
		p, err := dse.EnergyAware(tr, k, []int{1, 2, 4}, 4096, cacti.DefaultParams(), penalty)
		if err != nil {
			log.Fatal(err)
		}
		l := p.Levels[0]
		fmt.Printf("%12.0f  %5d  %-14v %8d %12.1f\n",
			penalty, l.LineWords, core.Instance{Depth: l.Depth, Assoc: l.Assoc}, p.Misses, p.EnergyPJ/1000)
	}
}
