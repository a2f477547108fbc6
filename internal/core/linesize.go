package core

import (
	"context"
	"fmt"

	"github.com/example/cachedse/internal/trace"
)

// Line-size exploration: the first of the paper's future-work axes ("our
// future direction of research will focus on incorporating additional
// design flexibility such as cache management policies, line size, ...",
// §4). The analytical machinery is line-size-agnostic — it reasons about
// whatever block addresses the trace carries — so exploring line size L
// reduces to exploring the trace with the low log2(L) word-offset bits
// stripped: two references collide in a (D, A, L) cache exactly when their
// line addresses collide in the corresponding (D, A, 1) cache. Cold misses
// do change with L (fewer, larger lines), so each LineResult carries its
// own cold count and budgets must be interpreted per line size.

// LineResult is the exploration of one line size.
type LineResult struct {
	// LineWords is the line size in words (power of two).
	LineWords int
	// Result explores depth x associativity at this line size; miss
	// counts are non-cold misses of (D, A, LineWords) caches.
	Result *Result
	// Cold is the number of cold misses (distinct lines touched).
	Cold int
}

// LineSizes runs the analytical exploration for each requested line size
// (words, powers of two), exploring the trace's strip at that line size
// under opts.
func LineSizes(ctx context.Context, t *trace.Trace, opts Options, lineWords []int) ([]LineResult, error) {
	out := make([]LineResult, 0, len(lineWords))
	var s *trace.Stripped
	for _, lw := range lineWords {
		if lw < 1 {
			return nil, fmt.Errorf("core: line size %d words is not a power of two >= 1", lw)
		}
		var err error
		if s, err = trace.StripLines(t, lw, s); err != nil {
			return nil, err
		}
		r, err := Explore(ctx, s, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, LineResult{LineWords: lw, Result: r, Cold: s.NUnique()})
	}
	return out, nil
}
