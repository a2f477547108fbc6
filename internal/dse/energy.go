package dse

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"github.com/example/cachedse/internal/cacti"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/trace"
)

// Energy-aware selection: the paper's introduction frames cache tuning as
// trading misses against "silicon area, clock latency, or energy". The
// design-space evaluator already prices every configuration of a unified
// LRU SRAM space (exact miss counts, no simulation); this picks, among the
// front's points meeting the miss budget and the capacity limit, the one
// with the least total memory-system energy.

// EnergyAware returns the minimum-energy configuration meeting the
// non-cold miss budget k within capWords of storage, across the given line
// sizes and every depth and associativity that fits. The point's Misses
// count cold + non-cold misses and its EnergyPJ is the total dynamic
// energy over the trace (cache accesses + refills + missPenaltyPJ per
// miss). Writeback traffic is not modelled (the analytical method does not
// count dirty evictions); the refill and miss penalty terms dominate for
// the embedded workloads this targets.
func EnergyAware(t *trace.Trace, k int, lineWords []int, capWords int, params cacti.Params, missPenaltyPJ float64) (core.Point, error) {
	if capWords < 1 {
		return core.Point{}, fmt.Errorf("dse: capacity %d words < 1", capWords)
	}
	space := core.Space{L1: core.LevelSpace{
		MaxDepth:  1 << (bits.Len(uint(capWords)) - 1),
		MaxAssoc:  capWords,
		LineWords: lineWords,
	}}
	// SpaceOptions reads a zero penalty as "use the default"; here zero is
	// a real price. The smallest positive float prices every miss at
	// exactly zero energy, since it vanishes when added to any real cost.
	penalty := missPenaltyPJ
	if penalty == 0 {
		penalty = math.SmallestNonzeroFloat64
	}
	front, err := ExploreSpace(context.Background(), t, space, SpaceOptions{Params: params, MissPenaltyPJ: penalty})
	if err != nil {
		return core.Point{}, err
	}
	cold := make(map[int]int, len(lineWords))
	best, found := core.Point{}, false
	for _, p := range front.Points() {
		l := p.Levels[0]
		if l.SizeWords() > capWords {
			continue
		}
		c, ok := cold[l.LineWords]
		if !ok {
			c = coldMisses(t, l.LineWords)
			cold[l.LineWords] = c
		}
		if p.Misses-c > k {
			continue
		}
		if !found || p.EnergyPJ < best.EnergyPJ {
			best, found = p, true
		}
	}
	if !found {
		return core.Point{}, fmt.Errorf("dse: no configuration meets K=%d within %d words", k, capWords)
	}
	return best, nil
}

// coldMisses counts the distinct lineWords-word lines the trace touches —
// the cold misses of every cache with that line size.
func coldMisses(t *trace.Trace, lineWords int) int {
	shift := uint(bits.TrailingZeros(uint(lineWords)))
	seen := make(map[uint32]struct{})
	for _, r := range t.Refs {
		seen[r.Addr>>shift] = struct{}{}
	}
	return len(seen)
}
