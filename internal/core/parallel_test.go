package core

import (
	"context"
	"testing"

	"github.com/example/cachedse/internal/paperex"
	"github.com/example/cachedse/internal/trace"
)

// The parallel part of an exploration is the prelude: buildMRCT splits
// the trace into chunks built side by side. These tests hold the postlude
// over a table built in k chunks to the one over the serial table. Traces
// this small get one chunk from chunkCount, so the tests force k.

// chunkedPrelude strips tr and builds its table in k chunks.
func chunkedPrelude(t *testing.T, tr *trace.Trace, k int) Prelude {
	t.Helper()
	s := trace.Strip(tr)
	return Prelude{Stripped: s, MRCT: chunkedBuild(t, s, k)}
}

func TestExploreParallelPaperExample(t *testing.T) {
	seq, err := Explore(context.Background(), paperex.Trace(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 16} {
		par, err := Explore(context.Background(), chunkedPrelude(t, paperex.Trace(), k), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(seq, par) {
			t.Fatalf("table built in %d chunks: result differs", k)
		}
	}
}

func TestExploreParallelDegenerate(t *testing.T) {
	// Empty and single-line traces: more chunks than references.
	for _, tr := range []*trace.Trace{
		trace.New(0),
		trace.FromAddrs(trace.DataRead, []uint32{7, 7, 7}),
	} {
		seq, err := Explore(context.Background(), tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Explore(context.Background(), chunkedPrelude(t, tr, 8), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsIdentical(seq, par) {
			t.Fatalf("%d-ref trace: chunk-built result differs", tr.Len())
		}
	}
}

func TestExploreParallelBadOptions(t *testing.T) {
	if _, err := Explore(context.Background(), chunkedPrelude(t, paperex.Trace(), 4), Options{MaxDepth: 3}); err == nil {
		t.Fatal("bad MaxDepth accepted")
	}
}
