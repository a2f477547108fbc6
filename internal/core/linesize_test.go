package core

import (
	"context"
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/trace"
)

func TestExploreLineSizesRejectsBad(t *testing.T) {
	tr := trace.FromAddrs(trace.DataRead, []uint32{1, 2, 3})
	for _, lw := range []int{0, -2, 3, 6} {
		if _, err := LineSizes(context.Background(), tr, Options{}, []int{lw}); err == nil {
			t.Errorf("line size %d accepted", lw)
		}
	}
}

func TestExploreLineSizesSpatialLocality(t *testing.T) {
	// A sequential sweep: with 4-word lines, unique lines (cold misses)
	// shrink 4x and conflict misses at small depths shrink accordingly.
	addrs := make([]uint32, 0, 512)
	for rep := 0; rep < 4; rep++ {
		for i := uint32(0); i < 128; i++ {
			addrs = append(addrs, i)
		}
	}
	tr := trace.FromAddrs(trace.DataRead, addrs)
	lines, err := LineSizes(context.Background(), tr, Options{}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if lines[0].Cold != 128 || lines[1].Cold != 32 {
		t.Fatalf("cold misses = %d, %d; want 128, 32", lines[0].Cold, lines[1].Cold)
	}
	// Depth-16 direct-mapped: the sweep wraps, every line evicted before
	// reuse; misses scale with line count.
	m1 := lines[0].Result.Level(16).Misses(1)
	m4 := lines[1].Result.Level(16).Misses(1)
	if m4 >= m1 {
		t.Fatalf("4-word lines should cut sweep misses: %d vs %d", m4, m1)
	}
}

// Property: line-size exploration matches the simulator configured with
// the same LineWords on the ORIGINAL trace.
func TestQuickLineSizesMatchSimulator(t *testing.T) {
	f := func(bs []uint8, lwPow, depthPow, assocRaw uint8) bool {
		if len(bs) == 0 {
			return true
		}
		tr := trace.New(0)
		for _, b := range bs {
			tr.Append(trace.Ref{Addr: uint32(b), Kind: trace.DataRead})
		}
		lw := 1 << (lwPow % 3) // 1, 2, 4
		lines, err := LineSizes(context.Background(), tr, Options{}, []int{lw})
		if err != nil {
			return false
		}
		r := lines[0].Result
		depth := 1 << (depthPow % uint8(len(r.Levels)))
		assoc := 1 + int(assocRaw%4)
		sim, err := cache.Simulate(cache.Config{Depth: depth, Assoc: assoc, LineWords: lw}, tr)
		if err != nil {
			return false
		}
		return r.Level(depth).Misses(assoc) == sim.Misses &&
			lines[0].Cold == sim.ColdMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// shiftedTrace is t at lineWords-word lines spelled out as a trace: every
// address with its low log2(lineWords) word-offset bits dropped. A line
// strip must equal the one-word strip of this copy.
func shiftedTrace(t *trace.Trace, lineWords int) *trace.Trace {
	shift := uint(bits.TrailingZeros(uint(lineWords)))
	lined := trace.New(t.Len())
	for _, r := range t.Refs {
		lined.Append(trace.Ref{Addr: r.Addr >> shift, Kind: r.Kind})
	}
	return lined
}

// FuzzLineStrip drives line strips with byte traces over a fixed,
// spread-out universe: the first byte picks a line size of 1–16 words.
// The strip must equal the one-word strip of the shifted trace, Explore
// must give the same Result on either source, and
// LineSizes must report the strip's N' as its cold misses.
func FuzzLineStrip(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})
	f.Add([]byte{4, 3, 3, 3, 3})
	f.Add([]byte("\x01the quick brown fox jumps over the lazy dog, the quick brown fox"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1024 {
			b = b[:1024]
		}
		lw := 1
		if len(b) > 0 {
			lw, b = 1<<(b[0]%5), b[1:]
		}
		tr := trace.New(len(b))
		for _, r := range b {
			tr.Append(trace.Ref{Addr: uint32(r%fuzzUniverse) * 13, Kind: trace.DataRead})
		}
		shifted := shiftedTrace(tr, lw)
		s, err := trace.StripLines(tr, lw, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := trace.Strip(shifted)
		if !slices.Equal(s.Unique, want.Unique) || !slices.Equal(s.IDs, want.IDs) || s.NUnique() != want.NUnique() {
			t.Fatalf("lw=%d: strip lines %v ids %v, shifted strip lines %v ids %v", lw, s.Unique, s.IDs, want.Unique, want.IDs)
		}
		ctx := context.Background()
		got, err := Explore(ctx, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		exp, err := Explore(ctx, shifted, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("lw=%d: strip %+v, shifted trace %+v", lw, got, exp)
		}
		lrs, err := LineSizes(ctx, tr, Options{}, []int{lw})
		if err != nil {
			t.Fatal(err)
		}
		if lrs[0].Cold != s.NUnique() {
			t.Fatalf("lw=%d: LineSizes cold %d, strip N' %d", lw, lrs[0].Cold, s.NUnique())
		}
	})
}
