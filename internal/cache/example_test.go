package cache_test

import (
	"fmt"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/trace"
)

// ExampleSimulate runs a ping-pong conflict trace through a direct-mapped
// cache and its 2-way fix.
func ExampleSimulate() {
	tr := trace.FromAddrs(trace.DataRead, []uint32{0, 8, 0, 8, 0, 8})
	dm, _ := cache.Simulate(cache.Config{Depth: 8, Assoc: 1}, tr)
	sa, _ := cache.Simulate(cache.Config{Depth: 8, Assoc: 2}, tr)
	fmt.Printf("direct-mapped: %d conflict misses\n", dm.Misses)
	fmt.Printf("2-way:         %d conflict misses\n", sa.Misses)
	// Output:
	// direct-mapped: 4 conflict misses
	// 2-way:         0 conflict misses
}

// ExampleNewHierarchy shows L2 absorbing an L1 conflict.
func ExampleNewHierarchy() {
	h, _ := cache.NewHierarchy(
		cache.Config{Depth: 1, Assoc: 1},
		cache.Config{Depth: 16, Assoc: 2},
	)
	counts := h.Run(trace.FromAddrs(trace.DataRead, []uint32{0, 1, 0, 1}))
	fmt.Printf("memory=%d L1=%d L2=%d\n", counts[0], counts[1], counts[2])
	// Output:
	// memory=2 L1=0 L2=2
}
