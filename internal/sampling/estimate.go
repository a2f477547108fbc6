package sampling

import "math"

// Estimate carries everything the rescaled exploration result needs to
// explain itself: the rates actually used, the measured kept/dropped
// totals the SHARDS-adj correction was calibrated from, and the raw
// (sampled-space) per-level histograms that standard errors are derived
// from. It is attached to core.Result, persisted with cached results and
// serialized into API responses, so every field is exported with a stable
// JSON name.
// Estimator modes. ModePostlude samples which addresses' occurrences the
// postlude accumulates over exact conflict sets built from the full
// trace — conflict distances are exact, only occurrence mass is scaled,
// and intervals are plain Horvitz-Thompson. ModeStream thins the
// reference stream itself before the prelude — memory scales with the
// sample, but conflict sets are thinned too, so distances must be
// stretched back and small cardinalities deconvolved, with the accuracy
// caveats DESIGN.md §10 spells out.
const (
	ModePostlude = "postlude"
	ModeStream   = "stream"
)

type Estimate struct {
	// Mode records which estimator produced the result (ModePostlude or
	// ModeStream).
	Mode string `json:"mode"`
	// RequestedRate is the rate the caller asked for.
	RequestedRate float64 `json:"requested_rate"`
	// EffectiveRate is the rate actually applied after the MinUnique
	// floor; 1 means the sampled path degenerated to exact.
	EffectiveRate float64 `json:"effective_rate"`
	// Seed is the resolved hash seed.
	Seed uint64 `json:"seed"`
	// KeptRefs / DroppedRefs are the filter's measured totals; their sum
	// is the true trace length N.
	KeptRefs    int64 `json:"kept_refs"`
	DroppedRefs int64 `json:"dropped_refs"`
	// KeptUnique is the sampled trace's unique-reference count N'_s.
	KeptUnique int `json:"kept_unique"`
	// KnownUnique is the full trace's unique-reference count N' when the
	// caller knew it (in-memory trace or stored-trace stats); 0 when the
	// source was a blind stream.
	KnownUnique int `json:"known_unique,omitempty"`
	// Scale is the occurrence-mass multiplier w applied to histogram
	// bins (the SHARDS-adj correction); 1 when exact.
	Scale float64 `json:"scale"`
	// Stretch is the conflict-distance multiplier g mapping sampled
	// intersection cardinalities back to full-trace ones; 1 when exact.
	Stretch float64 `json:"stretch"`
	// RawHist holds, per explored level, the sampled-stratum conflict
	// histogram before rescaling — the counts the standard errors come
	// from.
	RawHist [][]int `json:"raw_hist,omitempty"`
	// CertUnique counts the certainty-stratum identifiers of a postlude
	// plan: addresses heavy enough that the estimator always keeps them
	// (weight 1, zero variance contribution).
	CertUnique int `json:"cert_unique,omitempty"`
	// CertHist holds the certainty stratum's per-level histograms; they
	// enter the rescaled result unscaled.
	CertHist [][]int `json:"cert_hist,omitempty"`
}

// CalibratePostlude fills Scale and Stretch for ModePostlude: conflict
// distances are exact (no stretch), and the occurrence-mass scale is the
// ratio of the sampled stratum's true non-cold mass — the full trace's
// N − N' minus the certainty stratum's — to its measured kept mass. This
// is the SHARDS-adj rule of calibrating against measured totals rather
// than the nominal rate, applied per stratum (the certainty stratum
// needs no scale at all).
func (e *Estimate) CalibratePostlude(certMass, sampledMass int) {
	e.Mode = ModePostlude
	e.Stretch = 1
	stratumTrue := e.KeptRefs + e.DroppedRefs - int64(e.KnownUnique) - int64(certMass)
	switch {
	case sampledMass > 0 && stratumTrue > 0:
		e.Scale = float64(stratumTrue) / float64(sampledMass)
	case e.EffectiveRate > 0:
		e.Scale = 1 / e.EffectiveRate
	default:
		e.Scale = 1
	}
	if e.Scale < 1 {
		e.Scale = 1
	}
}

// RescaleLevel produces one level's full-magnitude histogram in
// ModePostlude: the certainty stratum's histogram enters unscaled, the
// sampled stratum's is mass-scaled (RescaleHist with no stretch).
func (e *Estimate) RescaleLevel(level int) []float64 {
	var cert, samp []int
	if level < len(e.CertHist) {
		cert = e.CertHist[level]
	}
	if level < len(e.RawHist) {
		samp = e.RawHist[level]
	}
	f := e.RescaleHist(samp, nil)
	if len(cert) > len(f) {
		g := make([]float64, len(cert))
		copy(g, f)
		f = g
	}
	for d, c := range cert {
		f[d] += float64(c)
	}
	return f
}

// Calibrate fills Scale and Stretch from the measured totals for
// ModeStream, applying the SHARDS-adj rule: prefer ratios of measured
// quantities over the nominal rate. sampledN/sampledUnique are the
// sampled engine's totals (N_s, N'_s); trueN is KeptRefs+DroppedRefs;
// knownUnique may be 0.
func (e *Estimate) Calibrate(sampledN, sampledUnique int) {
	e.Mode = ModeStream
	e.KeptUnique = sampledUnique
	trueN := e.KeptRefs + e.DroppedRefs

	// Stretch g: sampled conflict distances are rate-thinned, so the
	// inverse of the measured unique-set shrinkage recovers full-trace
	// cardinality; without a known N' fall back to the nominal rate.
	switch {
	case e.KnownUnique > 0 && sampledUnique > 0:
		e.Stretch = float64(e.KnownUnique) / float64(sampledUnique)
	case e.EffectiveRate > 0:
		e.Stretch = 1 / e.EffectiveRate
	default:
		e.Stretch = 1
	}

	// Scale w: histogram mass counts non-cold occurrences (N − N'), so
	// calibrate against that difference when both sides are measurable;
	// degrade to total-mass ratio, then to the nominal rate.
	switch {
	case e.KnownUnique > 0 && sampledN > sampledUnique:
		e.Scale = float64(trueN-int64(e.KnownUnique)) / float64(sampledN-sampledUnique)
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
// kept, so the result is the exact engine's answer and all intervals are
// zero-width.
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
// member under the spatial sample — the measured unique-set shrinkage
// (the inverse of Stretch).
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

// SampledMisses returns the sampled-space occurrence count that backs
// the scaled miss estimate for (level, assoc): the mass of raw bins
// whose stretched cardinality reaches assoc.
func (e *Estimate) SampledMisses(level, assoc int) int {
	if level < 0 || level >= len(e.RawHist) {
		return 0
	}
	n := 0
	for d, c := range e.RawHist[level] {
		if e.StretchIndex(d) >= assoc {
			n += c
		}
	}
	return n
}

// SE returns the standard error of the scaled miss count for
// (level, assoc). Each kept occurrence in bin k is a Horvitz-Thompson
// draw with inclusion probability 1/BinWeight(k), so its variance
// contribution is w_k·(w_k−1) and the tail's variance sums them; exact
// runs (every weight 1) report zero. The derivation treats occurrences
// as independent, which understates clustering within an address —
// DESIGN.md §10 discusses the approximation.
func (e *Estimate) SE(level, assoc int) float64 {
	if e.Scale <= 1 || level < 0 || level >= len(e.RawHist) {
		return 0
	}
	v := 0.0
	for k, n := range e.RawHist[level] {
		if n > 0 && e.StretchIndex(k) >= assoc {
			if w := e.BinWeight(k); w > 1 {
				v += float64(n) * w * (w - 1)
			}
		}
	}
	return math.Sqrt(v)
}

// CI95 returns the two-sided 95% confidence bounds around a scaled miss
// count, clamped at zero.
func (e *Estimate) CI95(level, assoc, scaledMisses int) (lo, hi int) {
	se := e.SE(level, assoc)
	if se == 0 {
		return scaledMisses, scaledMisses
	}
	delta := z95 * se
	lo = int(math.Floor(float64(scaledMisses) - delta))
	if lo < 0 {
		lo = 0
	}
	hi = int(math.Ceil(float64(scaledMisses) + delta))
	return lo, hi
}
