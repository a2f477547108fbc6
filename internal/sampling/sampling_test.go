package sampling

import (
	"errors"
	"io"
	"math"
	"testing"

	"github.com/example/cachedse/internal/trace"
)

func TestThresholdRange(t *testing.T) {
	cases := []struct {
		rate float64
		want uint64
	}{
		{0, 0},
		{-0.5, 0},
		{1, math.MaxUint64},
		{1.5, math.MaxUint64},
		{0.5, 1 << 63},
	}
	for _, c := range cases {
		if got := Threshold(c.rate); got != c.want {
			t.Errorf("Threshold(%v) = %#x, want %#x", c.rate, got, c.want)
		}
	}
	// A quarter-rate threshold keeps about a quarter of uniformly mixed
	// hashes; the splitmix64 finalizer is close enough to uniform that
	// 10k sequential addresses land within a few points of it.
	const n = 10000
	kept := 0
	th := Threshold(0.25)
	for a := uint32(0); a < n; a++ {
		if Keep(a, DefaultSeed, th) {
			kept++
		}
	}
	if frac := float64(kept) / n; frac < 0.22 || frac > 0.28 {
		t.Errorf("Threshold(0.25) kept fraction %v, want ~0.25", frac)
	}
}

func TestNestedThresholdsAreSubsets(t *testing.T) {
	// SHARDS monotonicity: under one seed, the kept set at a lower rate
	// must be a subset of the kept set at any higher rate.
	rates := []float64{0.01, 0.1, 0.3, 0.7, 1.0}
	for a := uint32(0); a < 4096; a++ {
		keptBefore := false
		for _, r := range rates {
			k := Keep(a, DefaultSeed, Threshold(r))
			if keptBefore && !k {
				t.Fatalf("addr %d kept at a lower rate but dropped at %v", a, r)
			}
			keptBefore = k
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []float64{0, -0.1, 1.0001, 2, math.NaN()} {
		err := Config{Rate: bad}.Validate()
		var er *ErrRate
		if !errors.As(err, &er) {
			t.Errorf("Validate(rate=%v) = %v, want *ErrRate", bad, err)
		}
	}
	for _, ok := range []float64{1e-9, 0.01, 0.5, 1} {
		if err := (Config{Rate: ok}).Validate(); err != nil {
			t.Errorf("Validate(rate=%v) = %v, want nil", ok, err)
		}
	}
}

func TestFilterCountsAndSpatialConsistency(t *testing.T) {
	// Build a trace where each address appears 3 times; spatial sampling
	// must keep all 3 occurrences or none.
	var addrs []uint32
	for a := uint32(0); a < 1000; a++ {
		addrs = append(addrs, a, a, a)
	}
	tr := trace.FromAddrs(trace.DataRead, addrs)
	f := NewFilter(trace.NewReader(tr), 0.3, 0)
	perAddr := map[uint32]int{}
	for {
		r, err := f.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		perAddr[r.Addr]++
	}
	for a, n := range perAddr {
		if n != 3 {
			t.Fatalf("addr %d kept %d of 3 occurrences; spatial sampling must be all-or-nothing", a, n)
		}
	}
	if got := f.Kept() + f.Dropped(); got != int64(len(addrs)) {
		t.Errorf("kept+dropped = %d, want %d", got, len(addrs))
	}
	if f.Kept() != int64(3*len(perAddr)) {
		t.Errorf("Kept() = %d, want %d", f.Kept(), 3*len(perAddr))
	}
	th := Threshold(0.3)
	for a := uint32(0); a < 1000; a++ {
		_, sampled := perAddr[a]
		if sampled != Keep(a, DefaultSeed, th) {
			t.Fatalf("addr %d: filter and Keep disagree", a)
		}
	}
}

func TestFilterKeepAllAndAddrBits(t *testing.T) {
	tr := trace.FromAddrs(trace.DataRead, []uint32{1, 9, 5, 9})
	f := NewFilter(trace.NewReader(tr), 1.0, 0)
	n := 0
	for {
		_, err := f.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 || f.Dropped() != 0 {
		t.Fatalf("rate 1.0 kept %d dropped %d, want 4/0", n, f.Dropped())
	}
	if got := f.AddrBits(); got != 4 { // max addr 9 = 0b1001
		t.Errorf("AddrBits() = %d, want 4", got)
	}
}

func TestEstimateExactIdentity(t *testing.T) {
	e := &Estimate{RequestedRate: 1, EffectiveRate: 1, KeptRefs: 100, DroppedRefs: 0}
	e.Calibrate(100, 10)
	if !e.Exact() {
		t.Fatalf("rate-1 estimate not Exact: %+v", e)
	}
	if e.Scale != 1 || e.Stretch != 1 {
		t.Errorf("exact estimate scale=%v stretch=%v, want 1/1", e.Scale, e.Stretch)
	}
	if got := e.RescaleHist([]int{0, 50, 30}, nil); len(got) != 3 || got[1] != 50 || got[2] != 30 {
		t.Errorf("exact RescaleHist = %v, want the input unchanged", got)
	}
}

func TestEstimateCalibrateSHARDSAdj(t *testing.T) {
	// N = 1000; the sampled stream kept 110 refs over 11 uniques at an
	// effective rate of 0.1. SHARDS-adj scale = 1000/110 — the measured
	// ratio, not the nominal 10x; a blind stream's stretch is 1/R.
	e := &Estimate{RequestedRate: 0.1, EffectiveRate: 0.1, KeptRefs: 110, DroppedRefs: 890}
	e.Calibrate(110, 11)
	if want := 1000.0 / 110.0; math.Abs(e.Scale-want) > 1e-12 {
		t.Errorf("Scale = %v, want %v", e.Scale, want)
	}
	if e.Stretch != 10 {
		t.Errorf("Stretch = %v, want 10", e.Stretch)
	}
	if e.Mode != ModeStream || e.KeptUnique != 11 {
		t.Errorf("mode %q kept_unique %d, want %q and 11", e.Mode, e.KeptUnique, ModeStream)
	}
	if e.Exact() {
		t.Error("sampled estimate reports Exact")
	}
}

func TestEstimateStretchAndBinWeight(t *testing.T) {
	e := &Estimate{EffectiveRate: 0.5, KeptRefs: 500, DroppedRefs: 500}
	e.Calibrate(500, 10) // stretch 2, scale 1000/500 = 2
	if e.StretchIndex(0) != 0 {
		t.Error("StretchIndex(0) must stay 0")
	}
	if got := e.StretchIndex(3); got != 6 {
		t.Errorf("StretchIndex(3) = %d, want 6", got)
	}
	// Bin 0 carries the plain mass scale; bin k >= 1 (d̂ = 2k) is
	// inflated by the occupancy correction 1/(1 − (1−q)^d̂), q = 0.5.
	if got := e.BinWeight(0); got != 2 {
		t.Errorf("BinWeight(0) = %v, want 2", got)
	}
	for k, want := range map[int]float64{1: 2 / (1 - 0.25), 2: 2 / (1 - 0.0625)} {
		if got := e.BinWeight(k); math.Abs(got-want) > 1e-12 {
			t.Errorf("BinWeight(%d) = %v, want %v", k, got, want)
		}
	}
}
