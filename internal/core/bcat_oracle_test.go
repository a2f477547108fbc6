package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// exploreBCAT runs Algorithm 3 over a materialised BCAT, the literal
// formulation of the paper. It is the oracle the crosscheck tests hold
// the production depth-first postlude to: both must produce exactly the
// same Result.
func exploreBCAT(ctx context.Context, s *trace.Stripped, m *MRCT, opts Options) (*Result, error) {
	t := BuildBCAT(s, 0)
	levels, err := levelCount(s, opts)
	if err != nil {
		return nil, err
	}
	if levels > t.Levels {
		levels = t.Levels
	}
	r := newResult(s, m, levels)
	if s.NUnique() > 0 {
		// Depth 1: the single row holding every unique reference.
		root := bitset.New(s.NUnique())
		for id := 0; id < s.NUnique(); id++ {
			root.Add(id)
		}
		var rank bitset.Rank
		accumulate(r.Levels[0], root, m, &rank)
		chk := &ctxCheck{ctx: ctx, every: 64}
		for l := 1; l <= levels; l++ {
			for _, set := range t.LevelSets(l) {
				if chk.stop() {
					return nil, chk.err
				}
				accumulate(r.Levels[l], set, m, &rank)
			}
		}
	}
	finalize(r)
	return r, nil
}

// BenchmarkAblationDFSvsMaterialized compares the linear-space depth-first
// postlude (§2.4) with the literal materialised BCAT of Algorithms 1+3.
func BenchmarkAblationDFSvsMaterialized(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	tr, err := tracegen.Sized(rng, 20000, 500)
	if err != nil {
		b.Fatal(err)
	}
	s := trace.Strip(tr)
	m := BuildMRCT(s)
	b.Run("dfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Explore(context.Background(), Prelude{Stripped: s, MRCT: m}, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exploreBCAT(context.Background(), s, m, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
