// PowerStone pipeline: the paper's full experimental flow on one
// benchmark. Execute the crc kernel on the MIPS-like VM with tracing,
// split the instruction and data streams, and size both caches
// analytically for a 5% miss budget — then certify the result with the
// simulator, closing the Figure 1 loop.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
)

func main() {
	bench := powerstone.Get("crc")
	res, err := bench.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %s on the VM: %d instructions, outputs %v\n\n",
		bench.Name, res.Steps, res.Out)

	for _, stream := range []struct {
		name string
		tr   *trace.Trace
	}{{"instruction", res.Instr}, {"data", res.Data}} {
		st := trace.ComputeStats(stream.tr)
		k := st.MaxMisses * 5 / 100
		fmt.Printf("%s cache (N=%d, N'=%d, max misses=%d, K=%d):\n",
			stream.name, st.N, st.NUnique, st.MaxMisses, k)

		r, err := core.Explore(context.Background(), stream.tr, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		instances := r.ParetoSet(k)
		for _, ins := range instances {
			fmt.Printf("  depth %4d  assoc %2d  size %4d words\n",
				ins.Depth, ins.Assoc, ins.SizeWords())
		}
		// Certify analytically-derived instances by simulation.
		if err := dse.Verify(context.Background(), stream.tr, instances, k); err != nil {
			log.Fatalf("verification failed: %v", err)
		}
		fmt.Println("  verified against the cache simulator")
		fmt.Println()
	}
}
