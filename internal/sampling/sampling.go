// Package sampling implements SHARDS-style spatial hash sampling for the
// analytical exploration engine: a fixed-rate filter that keeps a
// reference iff a 64-bit mix of its block address falls under a threshold
// T = R·2^64, plus the estimator that rescales the stream-sampled
// engine's per-depth conflict histograms back to full-trace miss counts.
//
// Spatial (address-hash) sampling is the key property: either every
// occurrence of an address is kept or none is, so the kept sub-trace
// preserves reuse structure — each cache row of the sampled trace is the
// rate-R thinning of the corresponding full-trace row, conflict-set
// cardinalities shrink by the same factor, and total occurrence mass
// shrinks by ~R. The estimator inverts both effects (distance stretch and
// occurrence scale) and applies the SHARDS-adj correction: scales are
// calibrated against the measured kept/dropped totals rather than the
// nominal rate, which removes the systematic bias of the fixed-rate
// estimator on small samples (Waldspurger et al., "Efficient MRC
// Construction with SHARDS", FAST'15; see PAPERS.md survey).
//
// Because hash thresholds nest (T(R1) <= T(R2) for R1 <= R2 under the
// same seed), the kept address set at a lower rate is always a subset of
// the kept set at a higher rate — the monotonicity the property tests
// pin.
package sampling

import (
	"fmt"
	"math"

	"github.com/example/cachedse/internal/trace"
)

// DefaultSeed is the hash seed used when a Config leaves Seed zero. Any
// fixed value works; sharing one default keeps CLI, server and tests
// deterministic and lets result caches key on the rate alone.
const DefaultSeed = 0x9e3779b97f4a7c15

// Config parameterises one sampled exploration.
type Config struct {
	// Rate is the requested spatial sampling rate in (0, 1]. 1 keeps
	// every reference.
	Rate float64
	// Seed perturbs the address hash; zero uses DefaultSeed. Distinct
	// seeds draw independent samples of the same trace.
	Seed uint64
}

// ErrRate reports a sampling rate outside (0, 1]. Callers surface it as a
// typed API error (the server's invalid_sample_rate code).
type ErrRate struct{ Rate float64 }

func (e *ErrRate) Error() string {
	return fmt.Sprintf("sampling: rate %v outside (0, 1]", e.Rate)
}

// Validate checks the configured rate.
func (c Config) Validate() error {
	if math.IsNaN(c.Rate) || c.Rate <= 0 || c.Rate > 1 {
		return &ErrRate{Rate: c.Rate}
	}
	return nil
}

// SeedValue resolves the zero-means-default seed.
func (c Config) SeedValue() uint64 {
	if c.Seed == 0 {
		return DefaultSeed
	}
	return c.Seed
}

// Threshold converts a rate to the 64-bit keep threshold T = R·2^64. A
// hash is kept when hash < T; rate 1 is handled by the callers' keep-all
// fast path (a threshold cannot represent 2^64).
func Threshold(rate float64) uint64 {
	if rate >= 1 {
		return math.MaxUint64
	}
	if rate <= 0 {
		return 0
	}
	f := rate * 0x1p64
	if f >= 0x1p64 {
		return math.MaxUint64
	}
	return uint64(f)
}

// splitmix64 is the finalizer of the splitmix64 generator: a cheap,
// well-distributed 64-bit mix (three multiplies and shifts), the hash
// SHARDS-style samplers conventionally use over block addresses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Keep reports whether addr falls in the sample at the given threshold
// and seed. Exported so tests and tools can predict a filter's decisions.
func Keep(addr uint32, seed, threshold uint64) bool {
	return splitmix64(uint64(addr)^seed) < threshold
}

// Filter is a trace.RefReader that passes through only the references
// whose address hashes under the threshold, counting what it kept and
// dropped. It is the streaming plug between a raw reference source and
// the engine's strip phase: one decoder block and O(1) filter state are
// all that is ever resident.
type Filter struct {
	rr        trace.RefReader
	seed      uint64
	threshold uint64
	keepAll   bool
	kept      int64
	dropped   int64
	maxAddr   uint32
}

// NewFilter wraps rr with a spatial sampler at the given rate and seed
// (zero seed uses DefaultSeed).
func NewFilter(rr trace.RefReader, rate float64, seed uint64) *Filter {
	if seed == 0 {
		seed = DefaultSeed
	}
	return &Filter{
		rr:        rr,
		seed:      seed,
		threshold: Threshold(rate),
		keepAll:   rate >= 1,
	}
}

// Next implements trace.RefReader: it consumes the wrapped stream until a
// kept reference (or the stream's end) surfaces.
func (f *Filter) Next() (trace.Ref, error) {
	for {
		r, err := f.rr.Next()
		if err != nil {
			return r, err
		}
		if r.Addr > f.maxAddr {
			f.maxAddr = r.Addr
		}
		if f.keepAll || Keep(r.Addr, f.seed, f.threshold) {
			f.kept++
			return r, nil
		}
		f.dropped++
	}
}

// AddrBits returns the number of significant address bits over every
// reference seen so far — kept or dropped — matching the convention of
// trace.Stripped.AddrBits. The sampled engine uses it to size the
// full-trace depth range even when sampling happened to drop the
// highest-addressed block.
func (f *Filter) AddrBits() int {
	bits := 0
	for a := f.maxAddr; a != 0; a >>= 1 {
		bits++
	}
	return bits
}

// Kept returns how many references passed the filter so far.
func (f *Filter) Kept() int64 { return f.kept }

// Dropped returns how many references the filter discarded so far.
func (f *Filter) Dropped() int64 { return f.dropped }
