package core

import (
	"context"
	"fmt"
	"math"

	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
)

// exploreSampled is the approximate twin of Explore, in one of two modes
// keyed by the source shape:
//
//   - *trace.Trace or *trace.Stripped — postlude sampling
//     (sampling.ModePostlude): a trace is stripped, the full MRCT is built
//     over every reference of the strip, then the postlude
//     accumulates only the spatially-sampled identifiers' occurrences.
//     Conflict distances are exact; only occurrence mass is rescaled.
//     This is the accurate mode, but it buys little time: the full MRCT
//     build is most of an exact pass, so on a 400 000-reference Zipf(1.2)
//     trace (N' = 20 508, MaxDepth 256) it measured only 6–9 % faster
//     than exact (6.9–7.4 s against 7.4–8.1 s), nowhere near 1/R.
//
//   - trace.RefReader — stream thinning (sampling.ModeStream): the
//     filter drops references before the prelude, so memory scales with
//     the sample — the mode for traces too large to materialise. Conflict
//     sets are thinned too; the estimator stretches distances back and
//     deconvolves small cardinalities, trading accuracy for the memory
//     bound.
//
// A Prelude source is rejected; pass its Stripped instead, and the
// sampled path builds the conflict table it filters.
func exploreSampled(ctx context.Context, src Source, opts Options, sc *Scratch) (*Result, error) {
	cfg := sampling.Config{Rate: opts.SampleRate, Seed: opts.SampleSeed, MinUnique: opts.SampleFloor}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := faultinject.Hit("core.sample"); err != nil {
		return nil, err
	}
	switch v := src.(type) {
	case *trace.Trace:
		s, err := stripTrace(ctx, v, sc)
		if err != nil {
			return nil, err
		}
		return explorePostludeSampled(ctx, s, cfg, opts, sc)
	case *trace.Stripped:
		if v == nil {
			return nil, fmt.Errorf("core: Explore given a nil *trace.Stripped")
		}
		return explorePostludeSampled(ctx, v, cfg, opts, sc)
	case trace.RefReader:
		if v == nil {
			return nil, fmt.Errorf("core: Explore given a nil trace.RefReader")
		}
		return exploreStreamSampled(ctx, v, cfg, opts, sc)
	case Prelude:
		return nil, fmt.Errorf("core: sampled exploration needs a raw reference source, not a pre-built Prelude")
	case nil:
		return nil, fmt.Errorf("core: Explore given a nil Source")
	default:
		return nil, fmt.Errorf("core: unsupported Source type %T for sampled exploration (want *trace.Trace, *trace.Stripped or trace.RefReader)", src)
	}
}

// explorePostludeSampled runs the exact MRCT build over the strip and a
// spatially-sampled postlude (sampling.ModePostlude), stratified so that
// heavy addresses — whose all-or-nothing inclusion would dominate the
// estimator's variance — are certainty units while the flat remainder is
// hash-sampled.
func explorePostludeSampled(ctx context.Context, s *trace.Stripped, cfg sampling.Config, opts Options, sc *Scratch) (*Result, error) {
	eff := cfg.EffectiveRate(s.NUnique())
	seed := cfg.SeedValue()

	// Per-identifier non-cold occurrence masses drive the stratum plan.
	cnt := make([]int, s.NUnique())
	for _, id := range s.IDs {
		cnt[id]++
	}
	mass := make([]int, len(cnt))
	for id, c := range cnt {
		mass[id] = c - 1
	}

	est := &sampling.Estimate{
		RequestedRate: cfg.Rate,
		EffectiveRate: eff,
		Seed:          seed,
		KnownUnique:   s.NUnique(),
	}

	if eff >= 1 {
		// Degenerate exact run: the full postlude, with the estimate
		// attached so callers still see rate/CI metadata (all zero-width).
		m, err := buildPreludeMRCT(ctx, s, sc)
		if err != nil {
			return nil, err
		}
		res, err := runPostlude(ctx, s, m, opts, sc)
		if err != nil {
			return nil, err
		}
		est.KeptRefs = int64(s.N())
		est.KeptUnique = s.NUnique()
		est.CertUnique = s.NUnique()
		est.CalibratePostlude(0, 0)
		est.Scale = 1
		est.CertHist = rawHists(res)
		res.Sample = est
		return res, nil
	}

	cert, sampRate := sampling.PlanStrata(mass, eff*float64(s.NUnique()))
	threshold := sampling.Threshold(sampRate)
	keepSamp := make([]bool, s.NUnique())
	certUnique, keptUnique := 0, 0
	var keptRefs int64
	for id := range keepSamp {
		switch {
		case cert[id]:
			certUnique++
			keptUnique++
			keptRefs += int64(cnt[id])
		case sampRate > 0 && sampling.Keep(s.Addr(id), seed, threshold):
			keepSamp[id] = true
			keptUnique++
			keptRefs += int64(cnt[id])
		}
	}
	est.KeptRefs = keptRefs
	est.DroppedRefs = int64(s.N()) - keptRefs
	est.KeptUnique = keptUnique
	est.CertUnique = certUnique

	_, span := obs.StartSpan(ctx, "sample")
	if span != nil {
		span.SetAttr("mode", sampling.ModePostlude)
		span.SetAttr("requested_rate", cfg.Rate)
		span.SetAttr("effective_rate", eff)
		span.SetAttr("sampled_rate", sampRate)
		span.SetAttr("kept", keptRefs)
		span.SetAttr("dropped", int64(s.N())-keptRefs)
		span.SetAttr("kept_unique", keptUnique)
		span.SetAttr("cert_unique", certUnique)
		span.End()
	}

	m, err := buildPreludeMRCT(ctx, s, sc)
	if err != nil {
		return nil, err
	}

	var certMass, sampMass int
	levels := 0
	if certUnique > 0 {
		view, cm := m.FilterOcc(cert)
		certRes, err := runPostlude(ctx, s, view, opts, sc)
		if err != nil {
			return nil, err
		}
		certMass = cm
		est.CertHist = rawHists(certRes)
		levels = len(certRes.Levels)
	}
	{
		view, sm := m.FilterOcc(keepSamp)
		sampRes, err := runPostlude(ctx, s, view, opts, sc)
		if err != nil {
			return nil, err
		}
		sampMass = sm
		est.RawHist = rawHists(sampRes)
		if len(sampRes.Levels) > levels {
			levels = len(sampRes.Levels)
		}
	}
	est.CalibratePostlude(certMass, sampMass)

	r := &Result{
		Levels:  make([]*LevelResult, levels),
		N:       s.N(),
		NUnique: s.NUnique(),
		Sample:  est,
	}
	for i := range r.Levels {
		r.Levels[i] = &LevelResult{Depth: 1 << uint(i), Hist: roundHist(est.RescaleLevel(i))}
	}
	finalize(r)
	return r, nil
}

// exploreStreamSampled thins the reference stream before the prelude
// (sampling.ModeStream).
func exploreStreamSampled(ctx context.Context, rr trace.RefReader, cfg sampling.Config, opts Options, sc *Scratch) (*Result, error) {
	// A blind stream's unique count is unknown up front, so the MinUnique
	// floor cannot engage and the requested rate is used as-is.
	eff := cfg.EffectiveRate(0)
	filter := sampling.NewFilter(rr, eff, cfg.SeedValue())

	// The sample span wraps the filtered strip: filtering happens lazily
	// as the strip pass pulls references through, so kept/dropped totals
	// are only final once the strip completes.
	_, span := obs.StartSpan(ctx, "sample")
	s, err := stripWithSpan(ctx, sc, func(s *trace.Stripped) (*trace.Stripped, error) {
		return trace.StripReaderInto(filter, s)
	})
	if span != nil {
		span.SetAttr("mode", sampling.ModeStream)
		span.SetAttr("requested_rate", cfg.Rate)
		span.SetAttr("effective_rate", eff)
		span.SetAttr("kept", filter.Kept())
		span.SetAttr("dropped", filter.Dropped())
		span.End()
	}
	if err != nil {
		return nil, err
	}

	m, err := buildPreludeMRCT(ctx, s, sc)
	if err != nil {
		return nil, err
	}
	sampled, err := runPostlude(ctx, s, m, opts, sc)
	if err != nil {
		return nil, err
	}

	est := &sampling.Estimate{
		RequestedRate: cfg.Rate,
		EffectiveRate: eff,
		Seed:          cfg.SeedValue(),
		KeptRefs:      filter.Kept(),
		DroppedRefs:   filter.Dropped(),
	}
	est.Calibrate(sampled.N, sampled.NUnique)

	// The estimate span wraps the rescale, whose binomial deconvolution
	// is most of a stream-mode answer's time.
	_, span = obs.StartSpan(ctx, "estimate")
	var tally sampling.KernelTally
	r := rescaleStream(sampled, est, fullLevelCount(filter.AddrBits(), opts), &tally)
	if span != nil {
		span.SetAttr("levels_deconvolved", tally.Deconvolved)
		span.SetAttr("levels_fallback", tally.Fallback)
		span.SetAttr("kernel_entries", tally.Entries)
		span.SetAttr("kernel_dense_entries", tally.DenseEntries)
		span.End()
	}
	return r, nil
}

// fullLevelCount mirrors levelCount but over the full stream's address
// bits (which the filter observed, kept or dropped) instead of the
// sampled strip's: the estimate must cover the same depth range the exact
// engine would have explored, even if sampling dropped the
// highest-addressed block.
func fullLevelCount(addrBits int, opts Options) int {
	levels := addrBits
	if opts.MaxDepth != 0 {
		cap := 0
		for d := opts.MaxDepth; d > 1; d >>= 1 {
			cap++
		}
		if cap < levels {
			levels = cap
		}
	}
	return levels
}

// rescaleStream maps a stream-sampled Result to full-trace magnitude:
// every histogram is rescaled through the estimator (stretch +
// deconvolution/occupancy correction), levels the sampled trace was too
// small to reach are padded with zero-conflict profiles, and N/NUnique
// are restored to (or estimated at) their full-trace values. When the
// rate degenerated to 1 the sampled result is already exact and passes
// through untouched — the bit-identity the R=1 property test pins. The
// deconvolution's work is added to tally.
func rescaleStream(sampled *Result, est *sampling.Estimate, fullLevels int, tally *sampling.KernelTally) *Result {
	est.RawHist = rawHists(sampled)

	if est.Exact() {
		sampled.Sample = est
		return sampled
	}

	levels := len(sampled.Levels)
	if fullLevels+1 > levels {
		levels = fullLevels + 1
	}
	r := &Result{
		Levels: make([]*LevelResult, levels),
		N:      int(est.KeptRefs + est.DroppedRefs),
		Sample: est,
	}
	if est.KnownUnique > 0 {
		r.NUnique = est.KnownUnique
	} else {
		r.NUnique = int(math.Round(float64(est.KeptUnique) * est.Stretch))
	}
	for i := range r.Levels {
		var hist []int
		if i < len(sampled.Levels) {
			hist = roundHist(est.RescaleHist(sampled.Levels[i].Hist, tally))
		}
		r.Levels[i] = &LevelResult{Depth: 1 << uint(i), Hist: hist}
	}
	finalize(r)
	return r
}

// rawHists snapshots a result's per-level histograms for the estimate.
func rawHists(r *Result) [][]int {
	out := make([][]int, len(r.Levels))
	for i, l := range r.Levels {
		out[i] = append([]int(nil), l.Hist...)
	}
	return out
}

func roundHist(f []float64) []int {
	h := make([]int, len(f))
	for d, v := range f {
		h[d] = int(math.Round(v))
	}
	return h
}
