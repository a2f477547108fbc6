package trace_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/example/cachedse/internal/minicbench"
	"github.com/example/cachedse/internal/powerstone"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracegen"
)

// refsOnly hides a decoder's concrete type, so StripReaderInto strips it
// one Next at a time, as it strips any other reader.
type refsOnly struct{ trace.RefReader }

// packAt encodes tr at blockCap references per block.
func packAt(tb testing.TB, tr *trace.Trace, blockCap int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc, err := trace.NewCTZ1Encoder(&buf, blockCap)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range tr.Refs {
		if err := enc.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// namedTrace is one reference stream of a kernel.
type namedTrace struct {
	name string
	tr   *trace.Trace
}

// kernelStreams runs the 12 PowerStone kernels and the compiled engine
// and qurt kernels, and returns their instruction and data streams.
func kernelStreams(tb testing.TB) []namedTrace {
	tb.Helper()
	var out []namedTrace
	for _, name := range powerstone.Names() {
		res, err := powerstone.Get(name).Run()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, namedTrace{name + ".instr", res.Instr}, namedTrace{name + ".data", res.Data})
	}
	for _, name := range []string{"engine", "qurt"} {
		res, err := minicbench.Get(name).Run()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, namedTrace{"minic." + name + ".instr", res.Instr},
			namedTrace{"minic." + name + ".data", res.Data})
	}
	return out
}

// phasedTrace touches a fresh working set in each of its phases, so
// every part of a parallel strip brings addresses no earlier part has,
// and the merge's order decides their identifiers.
func phasedTrace() *trace.Trace {
	return tracegen.WorkingSetPhases(rand.New(rand.NewSource(5)), 24, 8000, 64)
}

// TestParallelCTZ1Streams holds the parallel bytes-mode decode and strip
// to the serial decoder on the paper's 24 PowerStone streams, two
// compiled kernels and a phased trace, each re-encoded at block sizes
// from one reference to the format's maximum and run at GOMAXPROCS 1, 2
// and 4: DecodeBytes must equal ReadCTZ1, and the decoder's strip must
// equal Strip of the decoded trace in Unique, IDs and ID lookups. Images
// of one and three references a block are refused by framing and take
// the serial fallback; FuzzStripCTZ1 splits small-block images.
func TestParallelCTZ1Streams(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 12 benchmark kernels and two compiled ones")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var s trace.Stripped // one pooled strip across every case
	for _, st := range append(kernelStreams(t), namedTrace{"phased", phasedTrace()}) {
		want := trace.Strip(st.tr)
		for _, block := range []int{1, 3, trace.CTZ1DefaultBlock, trace.CTZ1MaxBlock} {
			img := packAt(t, st.tr, block)
			serial, err := trace.ReadCTZ1(bytes.NewReader(img))
			if err != nil {
				t.Fatalf("%s at block %d: ReadCTZ1: %v", st.name, block, err)
			}
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				at := fmt.Sprintf("%s at block %d, GOMAXPROCS %d", st.name, block, procs)
				got, err := trace.DecodeBytes(img, trace.Limits{})
				if err != nil {
					t.Fatalf("%s: DecodeBytes: %v", at, err)
				}
				if !slices.Equal(got.Refs, serial.Refs) {
					t.Fatalf("%s: DecodeBytes differs from ReadCTZ1", at)
				}
				dec, err := trace.NewCTZ1BytesDecoder(img, trace.Limits{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := trace.StripReaderInto(dec, &s); err != nil {
					t.Fatalf("%s: StripReaderInto: %v", at, err)
				}
				if !slices.Equal(s.Unique, want.Unique) || !slices.Equal(s.IDs, want.IDs) {
					t.Fatalf("%s: decoder strip differs from Strip", at)
				}
				for id, line := range want.Unique {
					if got, ok := s.ID(line); !ok || got != id {
						t.Fatalf("%s: ID(%#x) = %d, %v, want %d", at, line, got, ok, id)
					}
				}
			}
		}
	}
}

var (
	compressOnce sync.Once
	compressImgs []namedTrace
	compressErr  error
)

// BenchmarkStripCTZ1 strips the compiled compress kernel's two ctz1
// images, as core.Explore strips a bytes decoder, in ns per reference:
// "next" drains the decoder one Next at a time, the path of every
// reader that is not a fresh bytes-mode decoder, and "parallel" takes
// the parallel decode. Compare the two with -cpu 1 for the single-core
// cost and at the core count for the speed-up.
func BenchmarkStripCTZ1(b *testing.B) {
	compressOnce.Do(func() {
		res, err := minicbench.Get("compress").Run()
		if err != nil {
			compressErr = err
			return
		}
		compressImgs = []namedTrace{{"instr", res.Instr}, {"data", res.Data}}
	})
	if compressErr != nil {
		b.Fatal(compressErr)
	}
	for _, st := range compressImgs {
		img := packAt(b, st.tr, 0)
		for _, mode := range []string{"next", "parallel"} {
			b.Run(st.name+"/"+mode, func(b *testing.B) {
				var s trace.Stripped
				for i := 0; i < b.N; i++ {
					dec, err := trace.NewCTZ1BytesDecoder(img, trace.Limits{})
					if err != nil {
						b.Fatal(err)
					}
					var rr trace.RefReader = dec
					if mode == "next" {
						rr = refsOnly{dec}
					}
					if _, err := trace.StripReaderInto(rr, &s); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*st.tr.Len()), "ns/ref")
			})
		}
	}
}
