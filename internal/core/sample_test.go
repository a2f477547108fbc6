package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// zipfTrace builds the deterministic zipfian workload the sampling
// tests run on: ~20k unique addresses, enough for a rate-R sample to keep
// thousands of them.
func zipfTrace(t *testing.T) *trace.Trace {
	t.Helper()
	return tracegen.Zipf(rand.New(rand.NewSource(7)), 0x1000, 20000, 200000, 1.2)
}

// TestSampleRateOneBitIdentical: a sampled request on an in-memory source
// — a trace, a strip at one or four words per line, or a Prelude —
// answers exactly what the same source answers without a rate, at every
// rate and worker count, and carries the degenerate rate-1 estimate.
func TestSampleRateOneBitIdentical(t *testing.T) {
	ctx := context.Background()
	crc, err := powerstone.Get("crc").Run()
	if err != nil {
		t.Fatal(err)
	}
	allRates := []float64{0.001, 0.1, 0.5, 1}
	cases := []struct {
		name     string
		tr       *trace.Trace
		maxDepth int
		rates    []float64
		workers  []int
		sources  bool // every source shape, or the trace alone
	}{
		{"hotcold", tracegen.HotCold(2000), 0, allRates, []int{1, 2}, true},
		{"crc/data", crc.Data, 0, allRates, []int{1, 2}, true},
		// Its ~20k unique addresses once made a rate-0.5 sample genuinely
		// approximate.
		{"zipf", zipfTrace(t), 256, []float64{0.5}, []int{1}, false},
	}
	type namedSource struct {
		name string
		src  Source
	}
	for _, c := range cases {
		srcs := []namedSource{{"trace", c.tr}}
		if c.sources {
			s4, err := trace.StripLines(c.tr, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			s1 := trace.Strip(c.tr)
			srcs = append(srcs, namedSource{"strip1", s1}, namedSource{"strip4", s4},
				namedSource{"prelude", Prelude{Stripped: s1, MRCT: BuildMRCT(s1)}})
		}
		for _, src := range srcs {
			for _, workers := range c.workers {
				exact, err := Explore(ctx, src.src, Options{MaxDepth: c.maxDepth, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for _, rate := range c.rates {
					name := fmt.Sprintf("%s/%s/w%d/R%g", c.name, src.name, workers, rate)
					got, err := Explore(ctx, src.src, Options{MaxDepth: c.maxDepth, Workers: workers, SampleRate: rate})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					est := got.Sample
					switch {
					case est == nil || !est.Exact():
						t.Errorf("%s: estimate %+v is not exact", name, est)
					case est.KeptRefs != int64(exact.N) || est.RequestedRate != rate:
						t.Errorf("%s: estimate kept %d of %d refs at requested rate %v, want all at %v",
							name, est.KeptRefs, exact.N, est.RequestedRate, rate)
					}
					if got.N != exact.N || got.NUnique != exact.NUnique {
						t.Errorf("%s: totals (%d, %d), exact (%d, %d)", name, got.N, got.NUnique, exact.N, exact.NUnique)
					}
					if !reflect.DeepEqual(got.Levels, exact.Levels) {
						t.Errorf("%s: levels are not bit-identical to the exact answer", name)
					}
				}
			}
		}
	}
}

// TestSampledTotalsConvergeMonotone: stream-mode samples nest, so the
// kept reference count grows with the rate and reaches the whole trace
// at rate 1, while every rate restores the full trace length.
func TestSampledTotalsConvergeMonotone(t *testing.T) {
	tr := tracegen.Zipf(rand.New(rand.NewSource(7)), 0x1000, 4000, 40000, 1.2)
	var lastKept int64 = -1
	for _, r := range []float64{0.05, 0.2, 0.5, 1} {
		res, err := Explore(context.Background(), trace.RefReader(trace.NewReader(tr)),
			Options{MaxDepth: 16, SampleRate: r})
		if err != nil {
			t.Fatalf("rate %v: %v", r, err)
		}
		est := res.Sample
		if est.KeptRefs <= lastKept {
			t.Errorf("rate %v kept %d refs, not more than %d at the lower rate", r, est.KeptRefs, lastKept)
		}
		lastKept = est.KeptRefs
		if res.N != tr.Len() || est.KeptRefs+est.DroppedRefs != int64(tr.Len()) {
			t.Errorf("rate %v: N = %d, kept %d + dropped %d, want %d", r, res.N, est.KeptRefs, est.DroppedRefs, tr.Len())
		}
	}
	if lastKept != int64(tr.Len()) {
		t.Errorf("rate 1 kept %d of %d refs", lastKept, tr.Len())
	}
}

func TestSampledDualModes(t *testing.T) {
	// The two source shapes select the two modes: an in-memory trace is
	// explored exactly under the "postlude" label, a blind stream gets the
	// thinning filter. Stream mode trades accuracy for its memory bound,
	// so its tolerance is loose.
	tr := zipfTrace(t)
	fromTrace, err := Explore(context.Background(), tr, Options{MaxDepth: 128, SampleRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if fromTrace.Sample.Mode != sampling.ModePostlude || !fromTrace.Sample.Exact() {
		t.Errorf("trace source estimate %+v, want an exact %q one", fromTrace.Sample, sampling.ModePostlude)
	}
	// TestSampleRateOneBitIdentical pins the trace source's answer as the
	// exact one.
	exactMisses := fromTrace.Levels[0].Misses(1)

	fromReader, err := Explore(context.Background(), trace.RefReader(trace.NewReader(tr)),
		Options{MaxDepth: 128, SampleRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if fromReader.Sample.Mode != sampling.ModeStream {
		t.Errorf("stream source mode = %q, want %q", fromReader.Sample.Mode, sampling.ModeStream)
	}
	if fromReader.Sample.Exact() {
		t.Error("stream source at rate 0.2 reports an exact estimate")
	}
	if fromReader.N != tr.Len() {
		t.Errorf("stream source N = %d, want %d", fromReader.N, tr.Len())
	}
	if rel := math.Abs(float64(fromReader.Levels[0].Misses(1)-exactMisses)) / float64(exactMisses); rel > 0.25 {
		t.Errorf("stream-sampled depth-1 misses off by %.3f (>25%%)", rel)
	}
}

func TestSampledRejectsPreludeAndBadRates(t *testing.T) {
	// A Prelude source is accepted and answered exactly; only rates
	// outside (0, 1] are rejected.
	tr := tracegen.Loop(0, 16, 8)
	s := trace.Strip(tr)
	m := BuildMRCT(s)
	res, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{SampleRate: 0.5})
	if err != nil {
		t.Errorf("sampled exploration of a Prelude source: %v", err)
	} else if res.Sample == nil || !res.Sample.Exact() {
		t.Errorf("sampled Prelude answer carries estimate %+v, want an exact one", res.Sample)
	}
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		_, err := Explore(context.Background(), tr, Options{SampleRate: bad})
		var er *sampling.ErrRate
		if !errors.As(err, &er) {
			t.Errorf("SampleRate=%v: err = %v, want *sampling.ErrRate", bad, err)
		}
	}
}

func TestSampledExactModeUntouched(t *testing.T) {
	// SampleRate 0 must not attach an estimate — the exact path is
	// byte-identical to an engine without sampling.
	res, err := Explore(context.Background(), tracegen.Loop(0, 16, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample != nil {
		t.Fatal("exact exploration carries a sampling estimate")
	}
}
