package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets guard the codecs against hostile inputs: parsers must
// return errors, never panic or over-allocate, and accepted inputs must
// round-trip. `go test` runs the seed corpus; `go test -fuzz=Fuzz...`
// explores further.

func FuzzReadText(f *testing.F) {
	f.Add("0 10\n1 20\n2 30\n")
	f.Add("# comment\n\n0 ffffffff\n")
	f.Add("2 zz\n")
	f.Add("9 10\n")
	f.Add(strings.Repeat("0 1\n", 100))
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadText(strings.NewReader(in))
		if err != nil {
			return
		}
		// Accepted traces re-encode and re-parse to the same refs.
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatalf("WriteText of accepted trace failed: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Len() != tr.Len() {
			t.Fatalf("round trip changed length %d -> %d", tr.Len(), again.Len())
		}
		for i := range tr.Refs {
			if tr.Refs[i] != again.Refs[i] {
				t.Fatalf("ref %d changed: %v -> %v", i, tr.Refs[i], again.Refs[i])
			}
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	// Seed with a valid encoding and mutations of it.
	var buf bytes.Buffer
	tr := FromAddrs(DataRead, []uint32{1, 5, 5, 1000, 0})
	if err := WriteBinary(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("CTR1"))
	f.Add([]byte{})
	f.Add([]byte("CTR1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, tr); err != nil {
			t.Fatalf("WriteBinary of accepted trace failed: %v", err)
		}
		again, err := ReadBinary(&out)
		if err != nil || again.Len() != tr.Len() {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzCTZ1RoundTrip guards the checksummed block codec: arbitrary input
// must decode cleanly or fail with a typed error (*CorruptError /
// *LimitError — never a panic or an untyped surprise), and any accepted
// input must re-encode and re-parse to the same references.
func FuzzCTZ1RoundTrip(f *testing.F) {
	var small, blocky bytes.Buffer
	if err := WriteCTZ1(&small, FromAddrs(DataRead, []uint32{1, 5, 5, 1000, 0})); err != nil {
		f.Fatal(err)
	}
	enc, err := NewCTZ1Encoder(&blocky, 3)
	if err != nil {
		f.Fatal(err)
	}
	for i := uint32(0); i < 10; i++ {
		if err := enc.Append(Ref{Addr: i * 7, Kind: Kind(i % 3)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(small.Bytes())
	f.Add(blocky.Bytes())
	f.Add([]byte("CTZ1"))
	f.Add([]byte{})
	f.Add([]byte("CTZ1\x01\xff\xff\xff\xff\x0f"))
	f.Add(append(small.Bytes()[:len(small.Bytes())-1], 0xff))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadCTZ1Limits(bytes.NewReader(in), Limits{MaxRefs: 1 << 16, MaxBytes: 1 << 20})
		if err != nil {
			var ce *CorruptError
			var le *LimitError
			if !errors.As(err, &ce) && !errors.As(err, &le) {
				t.Fatalf("untyped ctz1 decode error: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteCTZ1(&out, tr); err != nil {
			t.Fatalf("WriteCTZ1 of accepted trace failed: %v", err)
		}
		again, err := ReadCTZ1(&out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Len() != tr.Len() {
			t.Fatalf("round trip changed length %d -> %d", tr.Len(), again.Len())
		}
		for i := range tr.Refs {
			if tr.Refs[i] != again.Refs[i] {
				t.Fatalf("ref %d changed: %v -> %v", i, tr.Refs[i], again.Refs[i])
			}
		}
	})
}

// FuzzDecodeLimits drives the limit-enforcing entry point the HTTP service
// uses: for arbitrary input and arbitrary small limits, Decode must never
// panic, never decode past the bounds, and classify genuinely oversized
// inputs as *LimitError (so servers answer 413, not 400).
func FuzzDecodeLimits(f *testing.F) {
	var bin bytes.Buffer
	if err := WriteBinary(&bin, FromAddrs(DataRead, []uint32{1, 5, 5, 1000, 0})); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("0 10\n1 20\n2 30\n"), 2, int64(4))
	f.Add([]byte("0 10\n1 20\n2 30\n"), 100, int64(1000))
	f.Add(bin.Bytes(), 3, int64(6))
	f.Add(bin.Bytes(), 0, int64(0))
	f.Add([]byte("CTR1\xff\xff\xff\x7f"), 10, int64(1<<20))
	f.Fuzz(func(t *testing.T, in []byte, maxRefs int, maxBytes int64) {
		if maxRefs < 0 || maxBytes < 0 {
			return
		}
		lim := Limits{MaxRefs: maxRefs, MaxBytes: maxBytes}
		tr, err := Decode(bytes.NewReader(in), lim)
		if err != nil {
			var le *LimitError
			if errors.As(err, &le) && le.What == "bytes" && maxBytes > 0 && int64(len(in)) <= maxBytes {
				t.Fatalf("byte LimitError on %d-byte input with MaxBytes=%d", len(in), maxBytes)
			}
			return
		}
		if maxRefs > 0 && tr.Len() > maxRefs {
			t.Fatalf("decoded %d refs past MaxRefs=%d", tr.Len(), maxRefs)
		}
	})
}

// nextOnly hides a reader's concrete type, so StripReaderInto strips it
// one Next at a time.
type nextOnly struct{ RefReader }

// packCTZ1 encodes tr at blockCap references per block.
func packCTZ1(tb testing.TB, tr *Trace, blockCap int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc, err := NewCTZ1Encoder(&buf, blockCap)
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

// sameError fails t unless got and want are both nil or have the same
// type and message.
func sameError(t *testing.T, what string, got, want error) {
	t.Helper()
	if fmt.Sprintf("%T %v", got, got) != fmt.Sprintf("%T %v", want, want) {
		t.Fatalf("%s: err = %T %v, serial decoder's = %T %v", what, got, got, want, want)
	}
}

// checkParallelCTZ1 holds the parallel decode and strip of data, split
// into parts of at least minRefs references, to the serial bytes-mode
// decoder under lim: the same references, identifiers and drained
// decoder, or the same error, type and message. s is the strip to reuse.
func checkParallelCTZ1(t *testing.T, data []byte, lim Limits, minRefs int, s *Stripped) {
	t.Helper()
	decoder := func() *CTZ1Decoder {
		d, err := NewCTZ1BytesDecoder(data, lim)
		if err != nil {
			return nil
		}
		return d
	}
	if _, err := NewCTZ1BytesDecoder(data, lim); err != nil {
		if bytes.HasPrefix(data, ctz1Magic[:]) {
			_, derr := DecodeBytes(data, lim)
			sameError(t, "DecodeBytes", derr, err)
		}
		return
	}
	want, werr := readAll(decoder())
	d := decoder()
	got, ok := d.decodeParallel(minRefs)
	var err error
	if !ok {
		got, err = readAll(d)
	}
	sameError(t, "decode", err, werr)
	if err == nil {
		if !slices.Equal(got.Refs, want.Refs) {
			t.Fatalf("decode: %d refs, serial decoder %d, or they differ", len(got.Refs), len(want.Refs))
		}
		if ok && cap(got.Refs) != len(got.Refs) {
			t.Fatalf("decode: cap(Refs) = %d, len %d", cap(got.Refs), len(got.Refs))
		}
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("Next after a decode = %v, want io.EOF", err)
		}
	}

	ws, wserr := StripReaderInto(nextOnly{decoder()}, nil)
	d = decoder()
	gs, gserr := stripReader(d, s, minRefs)
	sameError(t, "strip", gserr, wserr)
	if gserr != nil {
		return
	}
	if !slices.Equal(gs.Unique, ws.Unique) || !slices.Equal(gs.IDs, ws.IDs) {
		t.Fatalf("strip: N' %d, N %d; serial strip N' %d, N %d, or they differ",
			gs.NUnique(), gs.N(), ws.NUnique(), ws.N())
	}
	for id, line := range ws.Unique {
		if got, ok := gs.ID(line); !ok || got != id {
			t.Fatalf("strip: ID(%#x) = %d, %v; want %d", line, got, ok, id)
		}
	}
	if _, ok := gs.ID(^uint32(0)); ok != slices.Contains(ws.Unique, ^uint32(0)) {
		t.Fatalf("strip: ID(0xffffffff) found = %v", ok)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next after a strip = %v, want io.EOF", err)
	}
}

// FuzzStripCTZ1 fuzzes the parallel bytes-mode decode and strip with
// arbitrary, often damaged, ctz1 images: every input decodes and strips
// as the serial decoder does, or fails with its error, type and
// message, and nothing panics. Each input runs at the production part
// size and at one reference per part, which splits even a small image
// into up to four parts at GOMAXPROCS 4, into one strip reused across
// both runs.
func FuzzStripCTZ1(f *testing.F) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const maxRefs = 128
	lim := Limits{MaxRefs: maxRefs}
	loop := func(n int) *Trace {
		tr := New(n)
		for i := 0; tr.Len() < n; i++ {
			tr.Append(Ref{Addr: uint32(0x100 + i%37), Kind: Instr})
			tr.Append(Ref{Addr: uint32(0x8000 + (i*7)%53), Kind: Kind(i % 2)})
		}
		return tr
	}
	valid := packCTZ1(f, loop(120), 16)
	f.Add(valid)
	f.Add(packCTZ1(f, loop(30), 1))
	f.Add(packCTZ1(f, randomTrace(41, 40), 3))
	f.Add(packCTZ1(f, randomTrace(43, 40), CTZ1MaxBlock))
	f.Add(packCTZ1(f, New(0), 0))
	f.Add(packCTZ1(f, loop(maxRefs+2), 32)) // over MaxRefs
	// One flipped checksum byte in the second block.
	d, err := NewCTZ1BytesDecoder(valid, Limits{})
	if err != nil {
		f.Fatal(err)
	}
	frames, _, _, ok := d.frame(nil, minPartRefs)
	if !ok || len(frames) < 2 {
		f.Fatalf("framing the valid seed: ok = %v, %d blocks", ok, len(frames))
	}
	flipped := bytes.Clone(valid)
	flipped[frames[1].end+3] ^= 0x10
	f.Add(flipped)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	// A trailer one reference over the blocks' total.
	trailer := binary.AppendUvarint(nil, 120)
	f.Add(binary.AppendUvarint(bytes.Clone(valid[:len(valid)-len(trailer)]), 121))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Stripped
		checkParallelCTZ1(t, data, lim, minPartRefs, &s)
		checkParallelCTZ1(t, data, lim, 1, &s)
	})
}
