// Package tracegen produces synthetic memory reference traces with
// controlled locality structure: loop nests, strided streams, Zipf-skewed
// random access, Markov instruction streams, pointer chasing and the
// hot/cold shape. They supplement the PowerStone
// traces in property tests, ablation benchmarks and the scaling study of
// Figure 4, where trace size and unique-reference count must be swept
// independently.
package tracegen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/example/cachedse/internal/trace"
)

// Loop emits iterations of a fixed loop body touching body consecutive
// addresses starting at base, the dominant pattern of embedded kernels.
func Loop(base uint32, body, iterations int) *trace.Trace {
	t := trace.New(body * iterations)
	for it := 0; it < iterations; it++ {
		for i := 0; i < body; i++ {
			t.Append(trace.Ref{Addr: base + uint32(i), Kind: trace.DataRead})
		}
	}
	return t
}

// Strided emits count references walking from base with the given stride,
// wrapping over span addresses — an array sweep with optional aliasing.
func Strided(base uint32, stride, span, count int) *trace.Trace {
	if span <= 0 {
		span = 1
	}
	t := trace.New(count)
	for i := 0; i < count; i++ {
		off := (i * stride) % span
		t.Append(trace.Ref{Addr: base + uint32(off), Kind: trace.DataRead})
	}
	return t
}

// Uniform emits count references drawn uniformly from unique distinct
// addresses starting at base. The rng seed makes runs reproducible.
func Uniform(rng *rand.Rand, base uint32, unique, count int) *trace.Trace {
	if unique < 1 {
		unique = 1
	}
	t := trace.New(count)
	for i := 0; i < count; i++ {
		t.Append(trace.Ref{Addr: base + uint32(rng.Intn(unique)), Kind: trace.DataRead})
	}
	return t
}

// Zipf emits count references over unique addresses with Zipf(s) popularity
// — a handful of hot references and a long cold tail, the usual shape of
// data streams in control-dominated embedded code.
func Zipf(rng *rand.Rand, base uint32, unique, count int, s float64) *trace.Trace {
	if unique < 1 {
		unique = 1
	}
	if s <= 1 {
		s = 1.07
	}
	z := rand.NewZipf(rng, s, 1, uint64(unique-1))
	t := trace.New(count)
	for i := 0; i < count; i++ {
		t.Append(trace.Ref{Addr: base + uint32(z.Uint64()), Kind: trace.DataRead})
	}
	return t
}

// Markov emits a two-state instruction-like stream: sequential runs
// (PC, PC+1, ...) punctuated by taken branches back to one of a few loop
// heads. p is the per-step branch probability.
func Markov(rng *rand.Rand, base uint32, heads []uint32, count int, p float64) *trace.Trace {
	if len(heads) == 0 {
		heads = []uint32{base}
	}
	if p <= 0 || p >= 1 {
		p = 0.1
	}
	t := trace.New(count)
	pc := heads[0]
	for i := 0; i < count; i++ {
		t.Append(trace.Ref{Addr: pc, Kind: trace.Instr})
		if rng.Float64() < p {
			pc = heads[rng.Intn(len(heads))]
		} else {
			pc++
		}
	}
	return t
}

// Mixed interleaves several traces round-robin until all are exhausted,
// modelling independent access streams sharing one cache.
func Mixed(traces ...*trace.Trace) *trace.Trace {
	total := 0
	for _, t := range traces {
		total += t.Len()
	}
	out := trace.New(total)
	idx := make([]int, len(traces))
	for out.Len() < total {
		for i, t := range traces {
			if idx[i] < t.Len() {
				out.Append(t.Refs[idx[i]])
				idx[i]++
			}
		}
	}
	return out
}

// Sized builds a trace with approximately the requested N and N' — the
// independent knobs of the Figure 4 scaling study. It interleaves a loop
// over most of the unique set with a uniform sprinkle so both targets are
// met closely for n >= nUnique >= 2.
func Sized(rng *rand.Rand, n, nUnique int) (*trace.Trace, error) {
	if nUnique < 1 || n < nUnique {
		return nil, fmt.Errorf("tracegen: need n >= nUnique >= 1, got n=%d nUnique=%d", n, nUnique)
	}
	t := trace.New(n)
	// First touch every unique address once so N' is exact.
	for i := 0; i < nUnique; i++ {
		t.Append(trace.Ref{Addr: uint32(i), Kind: trace.DataRead})
	}
	// Then revisit with a mixture of sequential and skewed random refs.
	for t.Len() < n {
		if rng.Float64() < 0.5 {
			t.Append(trace.Ref{Addr: uint32(rng.Intn(nUnique)), Kind: trace.DataRead})
		} else {
			run := rng.Intn(16) + 1
			start := rng.Intn(nUnique)
			for j := 0; j < run && t.Len() < n; j++ {
				t.Append(trace.Ref{Addr: uint32((start + j) % nUnique), Kind: trace.DataRead})
			}
		}
	}
	return t, nil
}

// WorkingSetPhases emits `phases` phases of `perPhase` references, each
// phase confined to its own working set of wsSize addresses; the classic
// phase-change workload for replacement-policy studies.
func WorkingSetPhases(rng *rand.Rand, phases, perPhase, wsSize int) *trace.Trace {
	t := trace.New(phases * perPhase)
	for p := 0; p < phases; p++ {
		base := uint32(p * wsSize)
		for i := 0; i < perPhase; i++ {
			t.Append(trace.Ref{Addr: base + uint32(rng.Intn(int(math.Max(1, float64(wsSize))))), Kind: trace.DataRead})
		}
	}
	return t
}

// HotCold emits 0,1,0,2,…,0,n: one hot address between n cold ones. LRU
// keeps the hot word in any two-way set, so its A_zero at depth 1 is 2,
// while FIFO evicts it in turn and keeps losing misses well past that —
// the shape that exposed both of the design-space evaluator's cut bugs.
func HotCold(n int) *trace.Trace {
	t := trace.New(2 * max(n, 0))
	for i := 1; i <= n; i++ {
		t.Append(trace.Ref{Addr: 0, Kind: trace.DataRead})
		t.Append(trace.Ref{Addr: uint32(i), Kind: trace.DataRead})
	}
	return t
}

// PointerChase emits steps references walking a linked structure of nodes
// addresses: the successor of each node is fixed by one random cyclic
// permutation, so the walk visits every node once per lap in the same
// scattered order, the access shape of list and tree traversals.
func PointerChase(rng *rand.Rand, nodes, steps int) *trace.Trace {
	if nodes < 1 {
		nodes = 1
	}
	order := rng.Perm(nodes)
	next := make([]uint32, nodes)
	for i, a := range order {
		next[a] = uint32(order[(i+1)%nodes])
	}
	t := trace.New(steps)
	at := uint32(order[0])
	for i := 0; i < steps; i++ {
		t.Append(trace.Ref{Addr: at, Kind: trace.DataRead})
		at = next[at]
	}
	return t
}
