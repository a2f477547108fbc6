// Package bench holds the Go benchmarks the docs cite: each
// BenchmarkTableN/BenchmarkFigureN exercises the code path that produces
// that artifact of the paper (cmd/repro prints the artifacts themselves),
// and the ablation and micro benchmarks isolate the design choices
// DESIGN.md calls out. They are for profiling and for the CI smoke run
// (-benchtime 1x); the timings of record come from bench/run.sh.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/cacti"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/experiments"
	"github.com/example/cachedse/internal/minicbench"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	s, err := experiments.Load()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable5 regenerates the data trace statistics (N, N', max
// misses) for all 12 benchmarks.
func BenchmarkTable5(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.StatsTable(experiments.Data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6 regenerates the instruction trace statistics.
func BenchmarkTable6(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.StatsTable(experiments.Instruction); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTables7to18 regenerates the optimal data cache instance tables,
// one sub-benchmark per PowerStone kernel.
func BenchmarkTables7to18(b *testing.B) {
	benchOptimal(b, experiments.Data)
}

// BenchmarkTables19to30 regenerates the optimal instruction cache instance
// tables.
func BenchmarkTables19to30(b *testing.B) {
	benchOptimal(b, experiments.Instruction)
}

func benchOptimal(b *testing.B, stream experiments.Stream) {
	s := suite(b)
	for _, ts := range s.Sets {
		name := ts.Name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Optimal(name, stream); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable31 measures the analytical algorithm itself (strip + MRCT
// + postlude) on every data trace — the quantity Table 31 reports.
func BenchmarkTable31(b *testing.B) {
	benchRuntime(b, experiments.Data)
}

// BenchmarkTable32 measures the analytical algorithm on every instruction
// trace.
func BenchmarkTable32(b *testing.B) {
	benchRuntime(b, experiments.Instruction)
}

func benchRuntime(b *testing.B, stream experiments.Stream) {
	s := suite(b)
	for _, ts := range s.Sets {
		tr := ts.Stream(stream)
		st := trace.ComputeStats(tr)
		b.Run(ts.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Explore(context.Background(), tr, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.N)*float64(st.NUnique), "N*N'")
		})
	}
}

// BenchmarkFigure4 sweeps synthetic traces across a grid of N*N' values
// and measures the exploration, the quantity Figure 4 plots; the reported
// ns/(N*N') metric being roughly constant across sub-benchmarks is the
// figure's linearity claim.
func BenchmarkFigure4(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	grid := []struct{ n, unique int }{
		{2000, 100}, {4000, 100}, {8000, 100},
		{4000, 200}, {4000, 400},
		{16000, 200}, {16000, 400},
	}
	for _, g := range grid {
		tr, err := tracegen.Sized(rng, g.n, g.unique)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d/Nu=%d", g.n, g.unique), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Explore(context.Background(), tr, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			work := float64(g.n) * float64(g.unique)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/work, "ns/(N*N')")
		})
	}
}

// BenchmarkAblationTraditionalVsAnalytical contrasts the Figure 1(a)
// design-simulate-analyze loop with the Figure 1(b) analytical approach on
// the same workload and budget.
func BenchmarkAblationTraditionalVsAnalytical(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	tr := tracegen.Mixed(
		tracegen.Loop(0, 64, 50),
		tracegen.Zipf(rng, 0x400, 300, 4000, 1.2),
	)
	st := trace.ComputeStats(tr)
	k := st.MaxMisses / 10
	const maxDepth = 256
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dse.Exhaustive(tr, k, maxDepth, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("iterative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dse.Iterative(tr, k, maxDepth, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analytical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dse.Analytical(tr, k, core.Options{MaxDepth: maxDepth}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMRCTBuild isolates the prelude phase: conflict table
// construction (with global deduplication) across workload shapes.
func BenchmarkAblationMRCTBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	workloads := map[string]*trace.Trace{
		"loopy":  tracegen.Loop(0, 64, 400),
		"zipf":   tracegen.Zipf(rng, 0, 512, 25000, 1.3),
		"random": tracegen.Uniform(rng, 0, 512, 25000),
	}
	for name, tr := range workloads {
		s := trace.Strip(tr)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := core.BuildMRCT(s)
				b.ReportMetric(float64(m.DistinctSets()), "distinct-sets")
			}
		})
	}
}

// BenchmarkAblationOnePassVsAnalytical compares the related-work one-pass
// simulation ([16][17]) against the analytical computation for the full
// depth sweep the paper's design space requires.
func BenchmarkAblationOnePassVsAnalytical(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	tr, err := tracegen.Sized(rng, 20000, 400)
	if err != nil {
		b.Fatal(err)
	}
	maxDepth := 512
	b.Run("onepass-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := onepass.Sweep(tr, maxDepth); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analytical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Explore(context.Background(), tr, core.Options{MaxDepth: maxDepth}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationParallelExplore measures the shared-memory parallel
// postlude (§2.4's distributed-sets observation) against the sequential
// DFS. Workers clamp to GOMAXPROCS, so on a single-core host every series
// collapses onto the sequential DFS and the numbers coincide — by design:
// oversubscribing a small host with queue and merge overhead produced
// negative scaling, never speedup. Genuine scaling needs multiple CPUs;
// correctness (bit-identical results) is enforced by the core package's
// property tests under -race.
func BenchmarkAblationParallelExplore(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	tr, err := tracegen.Sized(rng, 40000, 1000)
	if err != nil {
		b.Fatal(err)
	}
	s := trace.Strip(tr)
	m := core.BuildMRCT(s)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Explore(context.Background(), core.Prelude{Stripped: s, MRCT: m}, core.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicroIntersect isolates the three |S ∩ C| kernels the postlude
// chooses between: the per-element Contains loop the engine used before the
// hybrid representation, the sparse word-probe kernel
// (IntersectCountSparse), and the packed word-wise AND+popcount
// (IntersectCount). Sub-benchmarks sweep the conflict-set cardinality that
// drives the hybrid representation's pack/no-pack decision.
func BenchmarkMicroIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	const n = 2048
	row := bitset.New(n)
	for i := 0; i < n/3; i++ {
		row.Add(rng.Intn(n))
	}
	for _, card := range []int{8, 64, 512} {
		elems := make([]int32, 0, card)
		seen := map[int32]bool{}
		for len(elems) < card {
			v := int32(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				elems = append(elems, v)
			}
		}
		packed := bitset.New(n)
		for _, v := range elems {
			packed.Add(int(v))
		}
		b.Run(fmt.Sprintf("contains-loop/card=%d", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := 0
				for _, c := range elems {
					if row.Contains(int(c)) {
						d++
					}
				}
				_ = d
			}
		})
		b.Run(fmt.Sprintf("sparse-kernel/card=%d", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = row.IntersectCountSparse(elems)
			}
		})
		b.Run(fmt.Sprintf("packed-popcount/card=%d", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = row.IntersectCount(packed)
			}
		})
	}
}

// BenchmarkAblationDedup measures the exact trace reduction's effect on
// the analytical pipeline: the reduced trace yields identical miss counts
// at a fraction of the prelude cost on repeat-heavy workloads.
func BenchmarkAblationDedup(b *testing.B) {
	// Read-modify-write loop: every location touched twice in a row.
	tr := trace.New(0)
	for rep := 0; rep < 200; rep++ {
		for i := uint32(0); i < 64; i++ {
			tr.Append(trace.Ref{Addr: i, Kind: trace.DataRead})
			tr.Append(trace.Ref{Addr: i, Kind: trace.DataWrite})
		}
	}
	reduced, removed := trace.Dedup(tr)
	if removed == 0 {
		b.Fatal("expected repeats")
	}
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Explore(context.Background(), tr, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deduped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Explore(context.Background(), reduced, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLineSize sweeps the future-work line-size axis over the
// fir data trace.
func BenchmarkAblationLineSize(b *testing.B) {
	s := suite(b)
	tr := s.Get("fir").Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LineSizes(context.Background(), tr, core.Options{}, []int{1, 2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReplacementPolicies compares the simulator under the
// four replacement policies on one PowerStone data trace (LRU is the
// paper's fixed policy; the others are its future-work "cache management
// policies").
func BenchmarkAblationReplacementPolicies(b *testing.B) {
	s := suite(b)
	tr := s.Get("crc").Data
	for _, repl := range []cache.Replacement{cache.LRU, cache.FIFO, cache.PLRU, cache.Random} {
		b.Run(repl.String(), func(b *testing.B) {
			var misses int
			for i := 0; i < b.N; i++ {
				res, err := cache.Simulate(cache.Config{Depth: 32, Assoc: 4, Repl: repl}, tr)
				if err != nil {
					b.Fatal(err)
				}
				misses = res.Misses
			}
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkEnergyAwareSelection measures the energy-aware design-point
// selection over line size x depth x associativity: one unified LRU
// design-space exploration and a scan of its front.
func BenchmarkEnergyAwareSelection(b *testing.B) {
	s := suite(b)
	tr := s.Get("adpcm").Data
	st := trace.ComputeStats(tr)
	k := st.MaxMisses / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.EnergyAware(tr, k, []int{1, 2, 4}, 4096, cacti.DefaultParams(), 2000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampledExplore measures the spatial-sampling speedup
// trajectory on the largest PowerStone trace (the compiled compress
// kernel's instruction stream, N = 2.7M): the exact engine against the
// streaming sampled engine at decreasing rates. Stream mode applies the
// literal rate; the trajectory quantifies the raw cost model, cost ≈ R·N,
// not a recommended configuration (with N' = 488 the estimate is far from
// exact). The rate-0.01 sub-benchmark is the ≥10x speedup claim the
// sampling design targets.
func BenchmarkSampledExplore(b *testing.B) {
	run, err := minicbench.Compress.Run()
	if err != nil {
		b.Fatal(err)
	}
	tr := run.Instr
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Explore(context.Background(), tr, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, rate := range []float64{0.1, 0.01} {
		b.Run(fmt.Sprintf("sample-%g", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := trace.RefReader(trace.NewReader(tr))
				if _, err := core.Explore(context.Background(), src,
					core.Options{SampleRate: rate}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpaceExplore measures the design-space evaluator on
// core.DefaultSpace() — the split-L1 + shared-L2, three-policy space the
// prune-rate acceptance test locks — with the analytical cuts on
// (pruned) and off (SpaceOptions.Exhaustive: the identical computation
// evaluating every candidate cell). The pruned case reports its
// prune-rate (fraction of candidate cells the A_zero and
// alpha-threshold cuts skipped). TestExploreSpaceDefaultPruneRate gates
// the rate; the space-default workload of bench/run.sh times this path.
func BenchmarkSpaceExplore(b *testing.B) {
	run, err := powerstone.Get("crc").Run()
	if err != nil {
		b.Fatal(err)
	}
	// Interleave the instruction and data streams proportionally, the
	// same mixed trace the crosscheck and prune-rate tests use.
	instr, data := run.Instr, run.Data
	tr := trace.New(instr.Len() + data.Len())
	for i, d := 0, 0; i < instr.Len() || d < data.Len(); {
		if d < data.Len() && (i >= instr.Len() || d*instr.Len() <= i*data.Len()) {
			tr.Append(data.Refs[d])
			d++
		} else {
			tr.Append(instr.Refs[i])
			i++
		}
	}
	b.Run("pruned", func(b *testing.B) {
		var front *core.Front
		for i := 0; i < b.N; i++ {
			f, err := dse.ExploreSpace(context.Background(), tr, core.DefaultSpace(), dse.SpaceOptions{})
			if err != nil {
				b.Fatal(err)
			}
			front = f
		}
		b.ReportMetric(front.Stats.Rate(), "prune-rate")
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dse.ExploreSpace(context.Background(), tr, core.DefaultSpace(),
				dse.SpaceOptions{Exhaustive: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// sweep-cap: a FIFO-only level as large as dse.MaxSweepWays admits
	// (1024·180·181/2 replica ways), at three line sizes over a stream
	// whose lines reach every depth, so each sweep runs its full axis.
	// Its B/op at -cpu 1 and -cpu 4 shows what the sweep fan-out adds to
	// the sweepers' tables.
	capTrace := tracegen.Uniform(rand.New(rand.NewSource(1)), 0, 4096, 8192)
	capSpace := core.Space{L1: core.LevelSpace{MaxDepth: 1024, MaxAssoc: 180, LineWords: []int{1, 2, 4}, Policies: []core.Policy{core.PolicyFIFO}}}
	b.Run("sweep-cap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dse.ExploreSpace(context.Background(), capTrace, capSpace, dse.SpaceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
