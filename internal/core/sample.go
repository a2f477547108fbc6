package core

import (
	"context"
	"math"

	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
)

// exactEstimate is the estimate an in-memory source's answer to a
// sampled request carries. Such a source is explored exactly, so the
// estimate is the degenerate one: rate 1, every reference kept, no
// rescaling. Its mode keeps the v1 wire string "postlude".
func exactEstimate(cfg sampling.Config, r *Result) *sampling.Estimate {
	return &sampling.Estimate{
		Mode:          sampling.ModePostlude,
		RequestedRate: cfg.Rate,
		EffectiveRate: 1,
		Seed:          cfg.SeedValue(),
		KeptRefs:      int64(r.N),
		KeptUnique:    r.NUnique,
		Scale:         1,
		Stretch:       1,
	}
}

// exploreStreamSampled thins the reference stream before the prelude
// (sampling.ModeStream), so memory scales with the sample: the mode for
// traces too large to materialise. Conflict sets are thinned too; the
// estimator stretches distances back and deconvolves small
// cardinalities, trading accuracy for the memory bound.
func exploreStreamSampled(ctx context.Context, rr trace.RefReader, cfg sampling.Config, opts Options, sc *Scratch) (*Result, error) {
	if err := faultinject.Hit("core.sample"); err != nil {
		return nil, err
	}
	filter := sampling.NewFilter(rr, cfg.Rate, cfg.SeedValue())

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
		span.SetAttr("effective_rate", cfg.Rate)
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
		EffectiveRate: cfg.Rate,
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
// small to reach are padded with zero-conflict profiles, N is restored to
// its full-trace value and NUnique is estimated by the stretch. At rate 1
// the sampled result is already exact and passes through untouched. The
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
		Levels:  make([]*LevelResult, levels),
		N:       int(est.KeptRefs + est.DroppedRefs),
		NUnique: int(math.Round(float64(est.KeptUnique) * est.Stretch)),
		Sample:  est,
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
