package sampling_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// deconvCase is one sampled histogram with its member rate q and the
// occurrence-mass scale the estimator multiplies its bins by.
type deconvCase struct {
	name  string
	hs    []int
	q     float64
	scale float64
}

// generatedDeconvCases builds histograms of the shapes the stream
// estimator sees — single bins, geometric and power-law decays, sparse
// scatters — from an empty histogram up to the largest full histogram
// the cost gate admits, and one just past it.
func generatedDeconvCases() []deconvCase {
	rng := rand.New(rand.NewSource(11))
	var cases []deconvCase
	for _, q := range []float64{0.05, 0.1, 0.2, 0.5} {
		scale := 1.03 / q
		add := func(name string, hs []int) {
			cases = append(cases, deconvCase{fmt.Sprintf("q=%v/%s", q, name), hs, q, scale})
		}
		add("empty", []int{0, 0, 0})
		for _, k := range []int{0, 1, 2, 5} {
			hs := make([]int, k+1)
			hs[k] = 1 + rng.Intn(5000)
			add(fmt.Sprintf("single-%d", k), hs)
		}
		for _, kmax := range []int{1, 3, 7, 30, 120} {
			r := 0.5 + 0.45*rng.Float64()
			hs := make([]int, kmax+1)
			for k := range hs {
				hs[k] = int(20000*math.Pow(r, float64(k))) + rng.Intn(3)
			}
			add(fmt.Sprintf("geometric-%d", kmax), hs)

			pl := make([]int, kmax+1)
			for k := range pl {
				pl[k] = int(50000 / math.Pow(float64(k+1), 1.2))
			}
			add(fmt.Sprintf("powerlaw-%d", kmax), pl)

			sp := make([]int, 4*kmax+1)
			for i := 0; i < 1+kmax/4; i++ {
				sp[rng.Intn(len(sp))] += 1 + rng.Intn(200)
			}
			add(fmt.Sprintf("sparse-%d", kmax), sp)
		}
		// The largest histogram with every bin occupied that the gate
		// admits, then one bin more: the dense routine's hardest case and
		// the first case it refuses.
		kmax := 1
		for dense(kmax+1, q) <= sampling.DeconvCostLimit {
			kmax++
		}
		for _, k := range []int{kmax, kmax + 1} {
			hs := make([]int, k+1)
			for i := range hs {
				hs[i] = 1 + int(3000/math.Pow(float64(i+1), 0.8))
			}
			add(fmt.Sprintf("gate-%d", k), hs)
		}
	}
	return cases
}

// dense is the dense kernel size of a histogram with bins 0..kmax all
// occupied.
func dense(kmax int, q float64) int {
	hs := make([]int, kmax+1)
	hs[kmax] = 1
	return (sampling.DeconvSupport(hs, q) + 1) * (kmax + 1)
}

// zipfRawHists returns the raw per-level histograms and the member rate
// of a stream-mode exploration of the benchmark's Zipf trace at R = 0.1:
// the histograms the estimator deconvolves in practice.
var zipfRawHists = sync.OnceValues(func() ([][]int, float64) {
	tr := tracegen.Zipf(rand.New(rand.NewSource(17)), 0x1000, 40000, 400000, 1.2)
	res, err := core.Explore(context.Background(), trace.RefReader(trace.NewReader(tr)),
		core.Options{MaxDepth: 256, SampleRate: 0.1, SampleSeed: 1})
	if err != nil || res.Sample == nil || res.Sample.Mode != sampling.ModeStream {
		panic(fmt.Sprintf("zipf stream exploration: %v", err))
	}
	return res.Sample.RawHist, 1 / res.Sample.Stretch
})

func zipfDeconvCases() []deconvCase {
	hists, q := zipfRawHists()
	cases := make([]deconvCase, len(hists))
	for i, hs := range hists {
		cases[i] = deconvCase{fmt.Sprintf("zipf/level-%d", i), hs, q, 25.5}
	}
	return cases
}

// TestDeconvolveBandedMatchesDense checks the banded kernel against the
// dense oracle: the same nil answers (the cost gate is on the dense
// product), every bin within 1e-12 relative, and the same integers once
// the bins are scaled and rounded the way the estimator reports them.
func TestDeconvolveBandedMatchesDense(t *testing.T) {
	for _, c := range append(generatedDeconvCases(), zipfDeconvCases()...) {
		t.Run(c.name, func(t *testing.T) {
			maxD := sampling.DeconvSupport(c.hs, c.q)
			want := sampling.DeconvolveDense(c.hs, c.q, maxD)
			got := sampling.DeconvolveHist(c.hs, c.q, maxD, nil)
			if (got == nil) != (want == nil) {
				t.Fatalf("banded nil=%v, dense nil=%v", got == nil, want == nil)
			}
			if len(got) != len(want) {
				t.Fatalf("banded support %d, dense %d", len(got), len(want))
			}
			worst := 0.0
			for d := range want {
				if e := relErr(got[d], want[d]); e > worst {
					worst = e
				}
				if g, w := math.Round(got[d]*c.scale), math.Round(want[d]*c.scale); g != w {
					t.Errorf("scaled bin %d rounds to %v, dense %v", d, g, w)
				}
			}
			if worst > 1e-12 {
				t.Errorf("worst relative bin error %.3g > 1e-12", worst)
			}
		})
	}
}

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(got), math.Abs(want))
}

// TestDeconvolveConservesMass checks that every deconvolved histogram
// carries the sampled histogram's total mass and no negative bin.
func TestDeconvolveConservesMass(t *testing.T) {
	for _, c := range append(generatedDeconvCases(), zipfDeconvCases()...) {
		out := sampling.DeconvolveHist(c.hs, c.q, sampling.DeconvSupport(c.hs, c.q), nil)
		if out == nil {
			continue
		}
		mass, sum := 0, 0.0
		for _, v := range c.hs {
			mass += v
		}
		for d, v := range out {
			if v < 0 || math.IsNaN(v) {
				t.Errorf("%s: bin %d = %v", c.name, d, v)
			}
			sum += v
		}
		if math.Abs(sum-float64(mass)) > 1e-9*math.Max(1, float64(mass)) {
			t.Errorf("%s: output mass %v, input mass %d", c.name, sum, mass)
		}
	}
}

// TestDeconvolveRateOnePassesThrough checks that an unthinned histogram
// (q >= 1) comes back unchanged.
func TestDeconvolveRateOnePassesThrough(t *testing.T) {
	for _, c := range generatedDeconvCases() {
		for _, q := range []float64{1, 1.5} {
			out := sampling.DeconvolveHist(c.hs, q, sampling.DeconvSupport(c.hs, q), nil)
			kmax := 0
			for k, v := range c.hs {
				if v > 0 {
					kmax = k
				}
			}
			if len(out) != kmax+1 {
				t.Errorf("%s q=%v: support %d, want %d", c.name, q, len(out), kmax+1)
				continue
			}
			for k, v := range out {
				if v != float64(c.hs[k]) {
					t.Errorf("%s q=%v: bin %d = %v, want %d", c.name, q, k, v, c.hs[k])
				}
			}
		}
	}
}

// BenchmarkDeconvolveHist times the banded kernel against the dense
// oracle on the Zipf stream's level-2 histogram (depth 4), the largest
// level the cost gate lets through.
func BenchmarkDeconvolveHist(b *testing.B) {
	hists, q := zipfRawHists()
	hs := hists[2]
	maxD := sampling.DeconvSupport(hs, q)
	banded := func(hs []int, q float64, maxD int) []float64 { return sampling.DeconvolveHist(hs, q, maxD, nil) }
	for _, impl := range []struct {
		name string
		fn   func([]int, float64, int) []float64
	}{{"banded", banded}, {"dense", sampling.DeconvolveDense}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if impl.fn(hs, q, maxD) == nil {
					b.Fatal("level 2 fell back to occupancy weighting")
				}
			}
		})
	}
}
