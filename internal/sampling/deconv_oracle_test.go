package sampling

import "math"

// DeconvCostLimit exposes the dense cost gate to the external tests.
const DeconvCostLimit = deconvCostLimit

// DeconvolveDense is the dense Richardson–Lucy deconvolution, the test
// oracle the banded DeconvolveHist is checked against: it materialises
// every kernel row over the whole support 0..maxD.
//
// It estimates the true cardinality histogram underlying a
// sampled one, assuming each true-cardinality-d occurrence was observed
// with its conflict set thinned Binomial(d, q). The returned histogram
// has support 0..maxD and carries the same total mass as hs. It returns
// nil when the problem is too large for the cost cap — callers fall back
// to per-bin occupancy weighting.
func DeconvolveDense(hs []int, q float64, maxD int) []float64 {
	mass := 0
	kmax := 0
	bins := 0
	for k, c := range hs {
		if c > 0 {
			mass += c
			kmax = k
			bins++
		}
	}
	if mass == 0 {
		return make([]float64, 1)
	}
	if q >= 1 || maxD < kmax {
		out := make([]float64, kmax+1)
		for k, c := range hs {
			if c > 0 {
				out[k] = float64(c)
			}
		}
		return out
	}
	if (maxD+1)*bins > deconvCostLimit {
		return nil
	}

	// Precompute the thinning kernel B[i][d] = P(Bin(d, q) = k_i) for the
	// observed bins only, in log space for stability at large d.
	ks := make([]int, 0, bins)
	cs := make([]float64, 0, bins)
	for k, c := range hs {
		if c > 0 {
			ks = append(ks, k)
			cs = append(cs, float64(c))
		}
	}
	lf := make([]float64, maxD+1)
	for i := 2; i <= maxD; i++ {
		lf[i] = lf[i-1] + math.Log(float64(i))
	}
	lq, l1q := math.Log(q), math.Log1p(-q)
	B := make([][]float64, len(ks))
	for i, k := range ks {
		row := make([]float64, maxD+1)
		for d := k; d <= maxD; d++ {
			row[d] = math.Exp(lf[d] - lf[k] - lf[d-k] + float64(k)*lq + float64(d-k)*l1q)
		}
		B[i] = row
	}

	// Initialise from the stretched histogram (the occupancy estimator's
	// support guess) plus uniform smoothing mass, then iterate EM.
	p := make([]float64, maxD+1)
	eps := 1.0 / float64(maxD+1)
	for i := range p {
		p[i] = eps
	}
	stretch := 1.0
	if q > 0 {
		stretch = 1 / q
	}
	for i, k := range ks {
		d := int(math.Round(float64(k) * stretch))
		if d > maxD {
			d = maxD
		}
		p[d] += cs[i] / float64(mass)
	}
	normalize(p)

	next := make([]float64, maxD+1)
	for it := 0; it < deconvIters; it++ {
		for i := range next {
			next[i] = 0
		}
		for i := range ks {
			denom := 0.0
			row := B[i]
			for d, pd := range p {
				if pd > 0 {
					denom += pd * row[d]
				}
			}
			if denom <= 0 {
				continue
			}
			w := cs[i] / denom
			for d, pd := range p {
				if pd > 0 {
					next[d] += pd * row[d] * w
				}
			}
		}
		copy(p, next)
		normalize(p)
	}

	out := make([]float64, maxD+1)
	for d, pd := range p {
		out[d] = pd * float64(mass)
	}
	return out
}
