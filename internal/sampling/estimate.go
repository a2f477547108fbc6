package sampling

import "math"

// Estimator modes. ModeStream thins the reference stream itself before
// the prelude: memory scales with the sample, but conflict sets are
// thinned too, so distances must be stretched back and small
// cardinalities deconvolved, with the accuracy caveats DESIGN.md §10
// spells out. ModePostlude marks an in-memory source's answer to a
// sampled request, which the engine explores exactly; the name is the
// v1 wire string the mode has always carried.
const (
	ModePostlude = "postlude"
	ModeStream   = "stream"
)

// Estimate carries everything a sampled exploration result needs to
// explain itself: the rates actually used, the measured kept/dropped
// totals the SHARDS-adj correction was calibrated from, and the raw
// (sampled-space) per-level histograms the rescale started from. It is
// attached to core.Result, persisted with cached results and serialized
// into API responses, so every field is exported with a stable JSON
// name.
type Estimate struct {
	// Mode records which estimator produced the result (ModePostlude or
	// ModeStream).
	Mode string `json:"mode"`
	// RequestedRate is the rate the caller asked for.
	RequestedRate float64 `json:"requested_rate"`
	// EffectiveRate is the rate actually applied; 1 means the answer is
	// the exact engine's.
	EffectiveRate float64 `json:"effective_rate"`
	// Seed is the resolved hash seed.
	Seed uint64 `json:"seed"`
	// KeptRefs / DroppedRefs are the filter's measured totals; their sum
	// is the true trace length N.
	KeptRefs    int64 `json:"kept_refs"`
	DroppedRefs int64 `json:"dropped_refs"`
	// KeptUnique is the sampled trace's unique-reference count N'_s.
	KeptUnique int `json:"kept_unique"`
	// Scale is the occurrence-mass multiplier w applied to histogram
	// bins (the SHARDS-adj correction); 1 when exact.
	Scale float64 `json:"scale"`
	// Stretch is the conflict-distance multiplier g mapping sampled
	// intersection cardinalities back to full-trace ones; 1 when exact.
	Stretch float64 `json:"stretch"`
	// RawHist holds, per explored level, the sampled conflict histogram
	// before rescaling (stream mode only).
	RawHist [][]int `json:"raw_hist,omitempty"`
}

// Calibrate fills Scale and Stretch from the measured totals for
// ModeStream, applying the SHARDS-adj rule: prefer ratios of measured
// quantities over the nominal rate. sampledN/sampledUnique are the
// sampled engine's totals (N_s, N'_s); the true N is
// KeptRefs+DroppedRefs.
func (e *Estimate) Calibrate(sampledN, sampledUnique int) {
	e.Mode = ModeStream
	e.KeptUnique = sampledUnique
	trueN := e.KeptRefs + e.DroppedRefs

	// Stretch g: sampled conflict distances are rate-thinned, and a blind
	// stream's full unique count is unknown, so the nominal rate is the
	// inverse shrinkage.
	e.Stretch = 1
	if e.EffectiveRate > 0 {
		e.Stretch = 1 / e.EffectiveRate
	}

	// Scale w: the ratio of the measured total masses, degrading to the
	// nominal rate when nothing was kept.
	switch {
	case sampledN > 0:
		e.Scale = float64(trueN) / float64(sampledN)
	case e.EffectiveRate > 0:
		e.Scale = 1 / e.EffectiveRate
	default:
		e.Scale = 1
	}
	if e.Scale < 1 {
		e.Scale = 1
	}
	if e.Stretch < 1 {
		e.Stretch = 1
	}
}

// Exact reports whether the estimate is degenerate: every reference was
// kept, so the result is the exact engine's answer.
func (e *Estimate) Exact() bool {
	return e.DroppedRefs == 0 && e.Scale <= 1 && e.Stretch <= 1
}

// StretchIndex maps a sampled-space conflict cardinality to its
// full-trace equivalent: d̂ = round(d·g), floored at 1 for d > 0 so a
// conflicting address never rescales into the conflict-free bin.
func (e *Estimate) StretchIndex(d int) int {
	if d <= 0 {
		return 0
	}
	s := int(math.Round(float64(d) * e.Stretch))
	if s < 1 {
		return 1
	}
	return s
}

// memberRate returns q, the survival probability of one conflict-set
// member under the spatial sample: the inverse of Stretch.
func (e *Estimate) memberRate() float64 {
	if e.Stretch <= 1 {
		return 1
	}
	return 1 / e.Stretch
}

// BinWeight returns the Horvitz-Thompson weight of one sampled
// occurrence observed in raw bin k. Beyond the mass scale w, bins k >= 1
// carry an occupancy correction: an occurrence of true cardinality d̂
// surfaces with a non-empty sampled conflict set only with probability
// c = 1 − (1−q)^d̂ (the rest thin to the d=0 bin and disappear from the
// miss tail), so the surviving mass is inflated by 1/c. Without this the
// fixed-rate estimator is biased low at low rates — badly so for
// low-associativity miss counts, where the k=1 bin dominates.
func (e *Estimate) BinWeight(k int) float64 {
	if k <= 0 {
		return e.Scale
	}
	q := e.memberRate()
	if q >= 1 {
		return e.Scale
	}
	c := 1 - math.Pow(1-q, float64(e.StretchIndex(k)))
	if c <= 0 {
		return e.Scale
	}
	return e.Scale / c
}

// RescaleHist maps one level's sampled histogram to full-trace
// magnitude (mass already multiplied by Scale). Levels whose support is
// small enough get the binomial deconvolution — exact inversion of the
// member thinning, which per-bin weights cannot achieve for small
// cardinalities; the rest use occupancy-weighted stretching, accurate
// there because large-cardinality binomials concentrate. In both cases
// the level's total mass is conserved at Scale × sampled mass, with bin
// 0 absorbing the remainder the conflict tail does not claim. The
// deconvolution's work is added to tally when tally is not nil.
func (e *Estimate) RescaleHist(src []int, tally *KernelTally) []float64 {
	q := e.memberRate()
	if d := DeconvolveHist(src, q, DeconvSupport(src, q), tally); d != nil {
		for i := range d {
			d[i] *= e.Scale
		}
		return d
	}

	maxIdx, levelMass := 0, 0
	for k, c := range src {
		levelMass += c
		if c != 0 {
			if s := e.StretchIndex(k); s > maxIdx {
				maxIdx = s
			}
		}
	}
	f := make([]float64, maxIdx+1)
	inflated := 0.0
	for k, c := range src {
		if c != 0 && k >= 1 {
			m := e.BinWeight(k) * float64(c)
			f[e.StretchIndex(k)] += m
			inflated += m
		}
	}
	if rem := e.Scale*float64(levelMass) - inflated; rem > 0 {
		f[0] = rem
	}
	return f
}
