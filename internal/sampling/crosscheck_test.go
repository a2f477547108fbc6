package sampling_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/experiments"
	"github.com/example/cachedse/internal/trace"
)

// The crosscheck suite pins what a sampled request over the paper's
// workloads answers: every PowerStone stream is an in-memory trace, so
// core.Explore explores it exactly whatever the rate, and the answer
// must agree with the exact engine cell for cell.

// maxRelErrBigCells explores tr exactly and sampled, and returns the
// worst relative miss-count error over cells whose exact count is at
// least minMisses, along with the sampled result.
func maxRelErrBigCells(t *testing.T, tr *trace.Trace, opts core.Options, minMisses int) (float64, *core.Result) {
	t.Helper()
	ctx := context.Background()
	exact, err := core.Explore(ctx, tr, core.Options{MaxDepth: opts.MaxDepth})
	if err != nil {
		t.Fatalf("exact explore: %v", err)
	}
	sampled, err := core.Explore(ctx, tr, opts)
	if err != nil {
		t.Fatalf("sampled explore: %v", err)
	}
	if sampled.Sample == nil {
		t.Fatal("sampled result has no estimate")
	}
	if len(sampled.Levels) != len(exact.Levels) {
		t.Fatalf("sampled explored %d levels, exact %d", len(sampled.Levels), len(exact.Levels))
	}
	worst := 0.0
	for lvl := range exact.Levels {
		maxAssoc := max(len(exact.Levels[lvl].Hist), len(sampled.Levels[lvl].Hist))
		for assoc := 1; assoc <= maxAssoc; assoc++ {
			want := exact.Levels[lvl].Misses(assoc)
			if want < minMisses {
				continue
			}
			got := sampled.Levels[lvl].Misses(assoc)
			if rel := math.Abs(float64(got-want)) / float64(want); rel > worst {
				worst = rel
			}
		}
	}
	return worst, sampled
}

// TestCrosscheckPowerStone: R = 1% over every hand-assembly PowerStone
// trace answers exactly and matches the exact engine cell for cell.
func TestCrosscheckPowerStone(t *testing.T) {
	suite, err := experiments.Load()
	if err != nil {
		t.Fatal(err)
	}
	crosscheckExactDegeneration(t, suite, 0.01)
}

// TestCrosscheckPowerStoneCompiled covers the compiled kernel variant —
// much longer traces over a few hundred unique blocks. Skipped in -short
// runs: the exact baselines are the expensive part.
func TestCrosscheckPowerStoneCompiled(t *testing.T) {
	if testing.Short() {
		t.Skip("compiled crosscheck needs full exact baselines")
	}
	suite, err := experiments.LoadCompiled()
	if err != nil {
		t.Fatal(err)
	}
	crosscheckExactDegeneration(t, suite, 0.1)
}

func crosscheckExactDegeneration(t *testing.T, suite *experiments.Suite, rate float64) {
	t.Helper()
	for i := range suite.Sets {
		set := &suite.Sets[i]
		for _, stream := range []struct {
			tag string
			tr  *trace.Trace
		}{{"instr", set.Instr}, {"data", set.Data}} {
			name := fmt.Sprintf("%s/%s", set.Name, stream.tag)
			tr := stream.tr
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				worst, sampled := maxRelErrBigCells(t, tr, core.Options{SampleRate: rate}, 1)
				if !sampled.Sample.Exact() {
					t.Fatalf("sampled run over an in-memory trace is not exact (effective rate %g)",
						sampled.Sample.EffectiveRate)
				}
				if worst != 0 {
					t.Errorf("sampled run differs from exact: worst rel err %g", worst)
				}
			})
		}
	}
}
