// Package dse hosts the design-space exploration strategies the paper
// contrasts in Figure 1: the traditional design-simulate-analyze loop —
// either exhaustive simulation of every configuration or an iterative
// tuning heuristic — and the proposed analytical approach, which computes
// the optimal configurations directly from the trace.
//
// All strategies answer the same question: for each power-of-two depth D up
// to a limit, what is the minimum associativity A such that a D×A LRU cache
// incurs at most K non-cold misses on the trace? They must agree on the
// answer; they differ — dramatically — in how many trace simulations they
// spend getting it, which the Outcome records.
//
// The package also hosts the design-space evaluator, ExploreSpace: the
// Pareto front of a declarative core.Space over (misses, energy, area).
// Every miss count it reads, LRU included, comes from internal/onepass's
// one-pass policy sweeps; the LRU sweep is a bounded per-set stack, so a
// space builds no MRCT, and core.Explore is that sweep's test oracle.
// Each call runs its level stages and sweeps on goroutines of their own,
// with as many sweepers at once as GOMAXPROCS and MaxSweepWays admit, and
// the front does not depend on how many.
package dse

import (
	"context"
	"fmt"
	"time"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/report"
	"github.com/example/cachedse/internal/trace"
)

// Outcome is the result of one exploration run.
type Outcome struct {
	// Instances holds one (D, A) pair per explored depth, smallest depth
	// first — the paper's "set of optimal cache instances".
	Instances []core.Instance
	// Simulations counts full-trace cache simulations performed; the
	// analytical strategy performs none.
	Simulations int
	// Elapsed is the wall-clock time of the exploration.
	Elapsed time.Duration
}

// Analytical runs the paper's approach (Figure 1b): prelude + postlude,
// no simulation, with cancellation threaded into both.
func Analytical(ctx context.Context, t *trace.Trace, k int, opts core.Options) (Outcome, error) {
	start := time.Now()
	r, err := core.Explore(ctx, t, opts)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Instances: r.OptimalSet(k),
		Elapsed:   time.Since(start),
	}, nil
}

// Exhaustive simulates every configuration of the (depth, associativity)
// grid — the brute-force corner of the traditional approach — and picks the
// minimum associativity per depth meeting the budget. maxAssoc bounds the
// grid; if no associativity within the bound meets the budget at some
// depth, the returned instance carries the smallest associativity whose
// miss count is minimal (i.e. maxAssoc, by LRU monotonicity). Cancellation
// is checked between simulations, the unit of work of the traditional
// loop.
func Exhaustive(ctx context.Context, t *trace.Trace, k, maxDepth, maxAssoc int) (Outcome, error) {
	if err := checkGrid(maxDepth, maxAssoc); err != nil {
		return Outcome{}, err
	}
	start := time.Now()
	var out Outcome
	for d := 1; d <= maxDepth; d *= 2 {
		best := maxAssoc
		for a := 1; a <= maxAssoc; a++ {
			if err := ctx.Err(); err != nil {
				return Outcome{}, err
			}
			res, err := cache.Simulate(cache.Config{Depth: d, Assoc: a}, t)
			if err != nil {
				return Outcome{}, err
			}
			out.Simulations++
			if res.Misses <= k && a < best {
				best = a
			}
		}
		out.Instances = append(out.Instances, core.Instance{Depth: d, Assoc: best})
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// Iterative is the bootstrap-and-tune heuristic of Figure 1(a): per depth
// it starts from an arbitrary associativity and homes in on the boundary by
// bisection, re-simulating after every adjustment. It finds the same
// configurations as Exhaustive in O(log maxAssoc) simulations per depth —
// faster than brute force, but still simulation-bound, which is the gap the
// analytical approach removes. Cancellation is checked between
// simulations.
func Iterative(ctx context.Context, t *trace.Trace, k, maxDepth, maxAssoc int) (Outcome, error) {
	if err := checkGrid(maxDepth, maxAssoc); err != nil {
		return Outcome{}, err
	}
	start := time.Now()
	var out Outcome
	for d := 1; d <= maxDepth; d *= 2 {
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		lo, hi := 1, maxAssoc
		// Invariant: every a >= hi meets the budget OR hi == maxAssoc;
		// establish by simulating the bounds first, as a designer would.
		res, err := cache.Simulate(cache.Config{Depth: d, Assoc: maxAssoc}, t)
		if err != nil {
			return Outcome{}, err
		}
		out.Simulations++
		if res.Misses > k {
			// Budget unreachable within the grid; report the bound.
			out.Instances = append(out.Instances, core.Instance{Depth: d, Assoc: maxAssoc})
			continue
		}
		for lo < hi {
			if err := ctx.Err(); err != nil {
				return Outcome{}, err
			}
			mid := (lo + hi) / 2
			res, err := cache.Simulate(cache.Config{Depth: d, Assoc: mid}, t)
			if err != nil {
				return Outcome{}, err
			}
			out.Simulations++
			if res.Misses <= k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out.Instances = append(out.Instances, core.Instance{Depth: d, Assoc: lo})
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

func checkGrid(maxDepth, maxAssoc int) error {
	if maxDepth < 1 || maxDepth&(maxDepth-1) != 0 {
		return fmt.Errorf("dse: maxDepth %d is not a power of two >= 1", maxDepth)
	}
	if maxAssoc < 1 {
		return fmt.Errorf("dse: maxAssoc %d < 1", maxAssoc)
	}
	return nil
}

// Verify simulates each instance and reports the first one whose non-cold
// miss count exceeds the budget, or nil if all meet it. It closes the
// Figure 1 loop for the analytical strategy: designers can certify the
// emitted set with one simulation per instance, cancellation checked
// between them.
func Verify(ctx context.Context, t *trace.Trace, instances []core.Instance, k int) error {
	for _, ins := range instances {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := cache.Simulate(cache.Config{Depth: ins.Depth, Assoc: ins.Assoc}, t)
		if err != nil {
			return err
		}
		if res.Misses > k {
			return fmt.Errorf("dse: instance %v misses %d > budget %d", ins, res.Misses, k)
		}
	}
	return nil
}

// InstanceTable renders the exploration's answer for miss budget k as the
// canonical instance table: one row per emitted (D, A) with size and
// analytical miss count. It is shared by the CLI and the HTTP service so
// both produce byte-identical output for the same trace and budget.
func InstanceTable(r *core.Result, k, maxMisses int, pareto bool) ([]core.Instance, *report.Table) {
	instances := r.OptimalSet(k)
	if pareto {
		instances = r.ParetoSet(k)
	}
	tab := &report.Table{
		Title:   fmt.Sprintf("Optimal cache instances for K=%d (max misses %d)", k, maxMisses),
		Headers: []string{"Depth D", "Assoc A", "Size (words)", "Misses"},
	}
	for _, ins := range instances {
		tab.AddRow(ins.Depth, ins.Assoc, ins.SizeWords(), r.Level(ins.Depth).Misses(ins.Assoc))
	}
	return instances, tab
}
