package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
)

func encodeCTZ1(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCTZ1(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func randomTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := New(n)
	for i := 0; i < n; i++ {
		tr.Append(Ref{Addr: rng.Uint32() >> 4, Kind: Kind(rng.Intn(3))})
	}
	return tr
}

func TestCTZ1BytesDecoderMatchesStream(t *testing.T) {
	tr := randomTrace(3, 10_000)
	data := encodeCTZ1(t, tr)
	ds, err := NewCTZ1Decoder(bytes.NewReader(data), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewCTZ1BytesDecoder(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		rs, errS := ds.Next()
		rb, errB := db.Next()
		if (errS == nil) != (errB == nil) {
			t.Fatalf("ref %d: stream err %v, bytes err %v", i, errS, errB)
		}
		if errS != nil {
			if errS != io.EOF || errB != io.EOF {
				t.Fatalf("ref %d: %v / %v", i, errS, errB)
			}
			break
		}
		if rs != rb {
			t.Fatalf("ref %d: stream %+v, bytes %+v", i, rs, rb)
		}
	}
}

func TestCTZ1BytesDecoderMaxBytes(t *testing.T) {
	data := encodeCTZ1(t, randomTrace(5, 1000))
	_, err := NewCTZ1BytesDecoder(data, Limits{MaxBytes: int64(len(data)) - 1})
	var le *LimitError
	if !errors.As(err, &le) || le.What != "bytes" {
		t.Fatalf("err = %v, want *LimitError{What: bytes}", err)
	}
	if _, err := NewCTZ1BytesDecoder(data, Limits{MaxBytes: int64(len(data))}); err != nil {
		t.Fatalf("exact-size input rejected: %v", err)
	}
}

// DecodeBytes parses a ctz1 image straight into its destination, so the
// trace it returns holds exactly N references with no spare capacity,
// at trace lengths under, at and over one block and over several parts.
func TestDecodeBytesExactlySized(t *testing.T) {
	for i, n := range []int{0, 1, 50, 4096, 9000, 12_000, 200_000} {
		tr := randomTrace(int64(20+i), n)
		got, err := DecodeBytes(encodeCTZ1(t, tr), Limits{})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if len(got.Refs) != n || cap(got.Refs) != n {
			t.Fatalf("N=%d: len(Refs) = %d, cap(Refs) = %d", n, len(got.Refs), cap(got.Refs))
		}
		if !tracesEqual(got, tr) {
			t.Fatalf("N=%d: trace differs", n)
		}
	}
}

// An image packed at one reference per block would cost more in frames
// than in decoded references, so framing refuses it within its first
// blocks, and it decodes and strips serially, to the same answer.
func TestCTZ1SmallBlocksDecodeSerially(t *testing.T) {
	tr := randomTrace(31, 200_000)
	img := packCTZ1(t, tr, 1)
	d, err := NewCTZ1BytesDecoder(img, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if frames, _, _, ok := d.frame(nil, minPartRefs); ok || len(frames) > framedBlocks {
		t.Fatalf("framing a block-1 image: ok = %v after %d frames, want a refusal by %d", ok, len(frames), framedBlocks)
	}
	got, err := DecodeBytes(img, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(got, tr) {
		t.Fatal("DecodeBytes of a block-1 image differs from its trace")
	}
	if d, err = NewCTZ1BytesDecoder(img, Limits{}); err != nil {
		t.Fatal(err)
	}
	s, err := StripReaderInto(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Strip(tr)
	if !slices.Equal(s.Unique, want.Unique) || !slices.Equal(s.IDs, want.IDs) {
		t.Fatal("strip of a block-1 image differs from Strip")
	}
	if blocks, workers := s.Decoded(); blocks != 0 || workers != 0 || cap(s.frames) > framedBlocks {
		t.Fatalf("block-1 strip: Decoded() = %d, %d, %d pooled frames; want a serial strip", blocks, workers, cap(s.frames))
	}
}

func TestDecodeBytesAllFormats(t *testing.T) {
	tr := randomTrace(9, 2000)
	encoders := map[string]func(*testing.T) []byte{
		"ctz1": func(t *testing.T) []byte { return encodeCTZ1(t, tr) },
		"ctr": func(t *testing.T) []byte {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, tr); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		"din": func(t *testing.T) []byte {
			var buf bytes.Buffer
			if err := WriteText(&buf, tr); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
	}
	for name, enc := range encoders {
		got, err := DecodeBytes(enc(t), Limits{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tracesEqual(got, tr) {
			t.Fatalf("%s: decoded trace differs", name)
		}
	}
}

// A corrupt image through the bytes decoder must fail typed, exactly as
// the streaming decoder does.
func TestCTZ1BytesDecoderCorrupt(t *testing.T) {
	data := encodeCTZ1(t, randomTrace(31, 5000))
	for pos := 4; pos < len(data); pos += 101 {
		mut := bytes.Clone(data)
		mut[pos] ^= 0xff
		d, err := NewCTZ1BytesDecoder(mut, Limits{})
		if err == nil {
			_, err = readAll(d)
		}
		if err == nil {
			continue // mutation landed somewhere self-consistent? not for ctz1: checksummed
		}
		var ce *CorruptError
		var le *LimitError
		if !errors.As(err, &ce) && !errors.As(err, &le) {
			t.Fatalf("pos %d: untyped error %T %v", pos, err, err)
		}
	}
}

// A bytes-mode decoder already read from is stripped one Next at a time
// from where it stands, and a drained one strips to nothing.
func TestStripReaderIntoReadDecoder(t *testing.T) {
	tr := randomTrace(53, 70_000)
	data := encodeCTZ1(t, tr)
	d, err := NewCTZ1BytesDecoder(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	got, err := StripReaderInto(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Strip(&Trace{Refs: tr.Refs[1:]})
	if !slices.Equal(got.Unique, want.Unique) || !slices.Equal(got.IDs, want.IDs) {
		t.Fatal("strip of a decoder read once differs from the strip of the references it had left")
	}
	if blocks, workers := got.Decoded(); blocks != 0 || workers != 0 {
		t.Fatalf("Decoded() = %d, %d after a reference-at-a-time strip", blocks, workers)
	}
	if got, err = StripReaderInto(d, got); err != nil || got.N() != 0 {
		t.Fatalf("strip of a drained decoder: N = %d, err %v", got.N(), err)
	}
}
