package sampling

import "math"

// Binomial thinning destroys small conflict-set cardinalities: a true
// cardinality d surfaces in the sampled histogram at k ~ Binomial(d, q),
// and for small d the whole set vanishes into the k=0 bin with
// probability (1−q)^d. The per-bin occupancy weight (BinWeight) is a
// good inverse when d is large — the binomial concentrates and k/q
// estimates d well — but at deep cache levels true cardinalities are
// small integers and no per-bin reweighting is unbiased. There the full
// inverse problem is cheap enough to solve directly: recover the true
// cardinality distribution by expectation-maximisation (Richardson–Lucy
// deconvolution) over the binomial mixture
//
//	P_obs(k) = Σ_d P(d) · C(d,k) q^k (1−q)^{d−k}
//
// which is the maximum-likelihood estimate of P(d) given the observed
// bins, k=0 included.

// deconvCostLimit caps the dense support·bins product a deconvolution
// may take on; above it the occupancy estimator is used instead. The gate
// stays on the dense product even though the kernel is banded, so which
// levels deconvolve does not depend on how the kernel is stored.
const deconvCostLimit = 1 << 22

// deconvIters is the EM iteration budget. RL converges geometrically on
// these small mixtures; early stopping also acts as regularisation for
// the ill-posed large-support cases.
const deconvIters = 120

// bandCut is the natural log of the kernel band's cut: a row keeps the
// entries within 2⁻⁵⁸ of its peak. The cut is the largest on a ladder of
// 2⁻⁵³, 2⁻⁵⁴, 2⁻⁵⁶, 2⁻⁵⁸ for which every bin of every test histogram
// stays within 1e-12 relative of the dense kernel's answer; at 2⁻⁵³ the
// bins that have decayed to ~1e-300 drift by 1.5e-11.
const bandCut = -58 * math.Ln2

// KernelTally counts the deconvolution work behind one answer's levels.
// Levels with an empty histogram or an unthinned rate need no kernel and
// count in neither level tally.
type KernelTally struct {
	// Deconvolved counts the levels solved by EM; Fallback the levels the
	// cost gate left to occupancy weighting.
	Deconvolved, Fallback int
	// Entries counts the banded kernel entries built; DenseEntries the
	// entries the dense kernel would have held for the same levels.
	Entries, DenseEntries int
}

// DeconvolveHist estimates the true cardinality histogram underlying a
// sampled one, assuming each true-cardinality-d occurrence was observed
// with its conflict set thinned Binomial(d, q). The returned histogram
// has support 0..maxD and carries the same total mass as hs. It returns
// nil when the problem is too large for the cost cap — callers fall back
// to per-bin occupancy weighting. The work done is added to tally when
// tally is not nil.
func DeconvolveHist(hs []int, q float64, maxD int, tally *KernelTally) []float64 {
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
		if tally != nil {
			tally.Fallback++
		}
		return nil
	}

	ks := make([]int, 0, bins)
	cs := make([]float64, 0, bins)
	for k, c := range hs {
		if c > 0 {
			ks = append(ks, k)
			cs = append(cs, float64(c))
		}
	}
	kern := newBandKernel(ks, q, maxD)
	if tally != nil {
		tally.Deconvolved++
		tally.Entries += len(kern.slab)
		tally.DenseEntries += (maxD + 1) * bins
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

	// Each row touches only its band, in ascending d; entries beyond it
	// sit below the cut and count as zero.
	next := make([]float64, maxD+1)
	for it := 0; it < deconvIters; it++ {
		clear(next)
		for i := range ks {
			row := kern.row(i)
			lo := kern.lo[i]
			pb := p[lo : lo+len(row)]
			denom := 0.0
			for j, r := range row {
				denom += pb[j] * r
			}
			if denom <= 0 {
				continue
			}
			w := cs[i] / denom
			nb := next[lo : lo+len(row)]
			for j, r := range row {
				nb[j] += pb[j] * r * w
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

// bandKernel is the thinning kernel B[i][d] = P(Bin(d, q) = k_i) for the
// observed bins k_i, stored as one band per row: row i holds d in
// lo[i] .. lo[i]+len−1 at slab[off[i]:off[i+1]].
type bandKernel struct {
	slab []float64
	off  []int
	lo   []int
}

func (b *bandKernel) row(i int) []float64 { return b.slab[b.off[i]:b.off[i+1]] }

// newBandKernel builds each row over the contiguous band where it stays
// within bandCut of its peak. As a function of d, C(d,k)·q^k·(1−q)^(d−k)
// rises while d+1 ≤ k/q and falls after, so its peak is at
// d* = max(k, ⌈k/q⌉−1) and the band is found by walking outward from d*
// in log space; the dense row is never formed. Entries are computed from
// log-factorials, for stability at large d.
func newBandKernel(ks []int, q float64, maxD int) *bandKernel {
	lf := make([]float64, maxD+1)
	for i := 2; i <= maxD; i++ {
		lf[i] = lf[i-1] + math.Log(float64(i))
	}
	lq, l1q := math.Log(q), math.Log1p(-q)
	logB := func(k, d int) float64 {
		return lf[d] - lf[k] - lf[d-k] + float64(k)*lq + float64(d-k)*l1q
	}

	b := &bandKernel{off: make([]int, len(ks)+1), lo: make([]int, len(ks))}
	for i, k := range ks {
		peak := max(k, int(math.Ceil(float64(k)/q))-1)
		peak = min(peak, maxD)
		floor := logB(k, peak) + bandCut
		lo, up := peak, peak
		for lo > k && logB(k, lo-1) >= floor {
			lo--
		}
		for up < maxD && logB(k, up+1) >= floor {
			up++
		}
		b.lo[i] = lo
		b.off[i+1] = b.off[i] + up - lo + 1
	}
	b.slab = make([]float64, b.off[len(ks)])
	for i, k := range ks {
		row := b.row(i)
		for j := range row {
			row[j] = math.Exp(logB(k, b.lo[i]+j))
		}
	}
	return b
}

func normalize(p []float64) {
	s := 0.0
	for _, v := range p {
		s += v
	}
	if s <= 0 {
		return
	}
	for i := range p {
		p[i] /= s
	}
}

// DeconvSupport returns the true-cardinality support bound for a sampled
// histogram: the largest observed bin stretched back by 1/q plus a
// binomial-tail slack, so mass near the upper edge is representable.
func DeconvSupport(hs []int, q float64) int {
	kmax := 0
	for k, c := range hs {
		if c > 0 {
			kmax = k
		}
	}
	if q <= 0 || q >= 1 {
		return kmax
	}
	d := float64(kmax)/q + 4*math.Sqrt(float64(kmax)+1)/q + 4
	return int(d)
}
