package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// ctz1TestTraces covers the codec's interesting shapes: empty, single-ref,
// single-kind runs, adversarial kind interleavings, address jumps in both
// directions, and block-boundary-straddling lengths.
func ctz1TestTraces() map[string]*Trace {
	rng := rand.New(rand.NewSource(99))
	mixed := New(0)
	for i := 0; i < 3*CTZ1DefaultBlock+17; i++ {
		k := Kind(rng.Intn(3))
		mixed.Append(Ref{Addr: rng.Uint32(), Kind: k})
	}
	loop := New(0)
	for rep := 0; rep < 50; rep++ {
		for i := uint32(0); i < 64; i++ {
			loop.Append(Ref{Addr: 0x1000 + i, Kind: Instr})
			if i%4 == 0 {
				loop.Append(Ref{Addr: 0x8000 + i*2, Kind: DataRead})
			}
			if i%16 == 0 {
				loop.Append(Ref{Addr: 0x8100, Kind: DataWrite})
			}
		}
	}
	return map[string]*Trace{
		"empty":     New(0),
		"single":    FromAddrs(DataWrite, []uint32{0xdeadbeef}),
		"extremes":  FromAddrs(DataRead, []uint32{0, ^uint32(0), 0, ^uint32(0), 1}),
		"loop":      loop,
		"randmixed": mixed,
	}
}

func TestCTZ1RoundTrip(t *testing.T) {
	for name, tr := range ctz1TestTraces() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteCTZ1(&buf, tr); err != nil {
				t.Fatal(err)
			}
			got, err := ReadCTZ1(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != tr.Len() {
				t.Fatalf("round trip changed length %d -> %d", tr.Len(), got.Len())
			}
			for i := range tr.Refs {
				if tr.Refs[i] != got.Refs[i] {
					t.Fatalf("ref %d changed: %v -> %v", i, tr.Refs[i], got.Refs[i])
				}
			}
			// Decode auto-detects ctz1 by magic.
			auto, err := Decode(bytes.NewReader(buf.Bytes()), Limits{})
			if err != nil || auto.Len() != tr.Len() {
				t.Fatalf("Decode auto-detect: %v, len %d", err, auto.Len())
			}
		})
	}
}

// The encoder is deterministic: encoding the decode of an encoding is
// byte-identical (the property the store's content addressing leans on).
func TestCTZ1Deterministic(t *testing.T) {
	for name, tr := range ctz1TestTraces() {
		var a, b bytes.Buffer
		if err := WriteCTZ1(&a, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCTZ1(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteCTZ1(&b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: re-encode is not byte-identical (%d vs %d bytes)", name, a.Len(), b.Len())
		}
	}
}

// Truncating an encoding anywhere must yield a typed error (or, for a cut
// that lands exactly between whole blocks, at worst a missing-terminator
// CorruptError) — never a silently short trace.
func TestCTZ1Truncation(t *testing.T) {
	tr := ctz1TestTraces()["loop"]
	var buf bytes.Buffer
	if err := WriteCTZ1(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for _, cut := range []int{0, 1, 3, 4, 5, 7, len(enc) / 3, len(enc) / 2, len(enc) - 9, len(enc) - 1} {
		_, err := ReadCTZ1(bytes.NewReader(enc[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(enc))
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation at %d: error %v is not a *CorruptError", cut, err)
		}
	}
}

// Flipping any single bit of the payload or framing must be detected by
// the checksum or the structural validation, again as a typed error.
func TestCTZ1BitFlip(t *testing.T) {
	tr := ctz1TestTraces()["loop"]
	var buf bytes.Buffer
	if err := WriteCTZ1(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	rng := rand.New(rand.NewSource(7))
	flips := 0
	for try := 0; try < 300; try++ {
		pos := rng.Intn(len(enc))
		bit := byte(1) << rng.Intn(8)
		bad := append([]byte(nil), enc...)
		bad[pos] ^= bit
		got, err := ReadCTZ1(bytes.NewReader(bad))
		if err == nil {
			// A flip can only be accepted if it decodes to a different
			// ref sequence being declared valid — which the checksum
			// forbids for payload bytes. Header/trailer flips that
			// happen to produce another valid stream of the same refs
			// are impossible (magic/version/count all pinned), so any
			// acceptance must reproduce the original refs exactly.
			if got.Len() != tr.Len() {
				t.Fatalf("bit flip at %d accepted with different length", pos)
			}
			for i := range tr.Refs {
				if got.Refs[i] != tr.Refs[i] {
					t.Fatalf("bit flip at %d accepted with different refs", pos)
				}
			}
			continue
		}
		flips++
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("bit flip at byte %d: error %v is not a *CorruptError", pos, err)
		}
	}
	if flips == 0 {
		t.Fatal("no bit flip was ever detected")
	}
}

// A crafted block with a correct (unkeyed, attacker-computable) checksum
// whose second kind run declares a length near 2^64 must fail the run
// validation as corruption, not wrap `at+runLen` past nrefs and panic
// indexing the kind-fill loop. The checksum is valid, so only the
// structural validation stands between this block and the fill loop —
// the fuzzer cannot reach it by mutation.
func TestCTZ1RunLengthOverflow(t *testing.T) {
	var payload []byte
	payload = binary.AppendUvarint(payload, 2) // nrefs
	payload = binary.AppendUvarint(payload, 2) // nruns
	payload = append(payload, byte(DataRead))
	payload = binary.AppendUvarint(payload, 1) // run 0: len 1
	payload = append(payload, byte(DataRead))
	payload = binary.AppendUvarint(payload, ^uint64(0)) // run 1: 1 + (2^64-1) wraps to 0

	var enc []byte
	enc = append(enc, ctz1Magic[:]...)
	enc = binary.AppendUvarint(enc, ctz1Version)
	enc = binary.AppendUvarint(enc, CTZ1DefaultBlock)
	enc = binary.AppendUvarint(enc, uint64(len(payload)))
	enc = append(enc, payload...)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], xxh64(payload))
	enc = append(enc, sum[:]...)

	_, err := ReadCTZ1(bytes.NewReader(enc))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("overflowing run length: err = %v, want *CorruptError", err)
	}
}

// A lying trailer count is corruption.
func TestCTZ1TrailerMismatch(t *testing.T) {
	var buf bytes.Buffer
	tr := FromAddrs(DataRead, []uint32{1, 2, 3})
	if err := WriteCTZ1(&buf, tr); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	enc[len(enc)-1]++ // trailer uvarint: 3 -> 4
	if _, err := ReadCTZ1(bytes.NewReader(enc)); err == nil {
		t.Fatal("lying trailer accepted")
	}
}

// MaxRefs trips a *LimitError mid-stream, before the decoder allocates for
// the oversized remainder; MaxBytes (via the limit-wrapped reader) yields
// its own typed error rather than a confusing corruption report.
func TestCTZ1Limits(t *testing.T) {
	tr := New(0)
	for i := 0; i < 10_000; i++ {
		tr.Append(Ref{Addr: uint32(i), Kind: DataRead})
	}
	var buf bytes.Buffer
	if err := WriteCTZ1(&buf, tr); err != nil {
		t.Fatal(err)
	}

	var le *LimitError
	_, err := ReadCTZ1Limits(bytes.NewReader(buf.Bytes()), Limits{MaxRefs: 100})
	if !errors.As(err, &le) || le.What != "references" {
		t.Fatalf("MaxRefs: err = %v, want references LimitError", err)
	}
	_, err = ReadCTZ1Limits(bytes.NewReader(buf.Bytes()), Limits{MaxBytes: 64})
	if !errors.As(err, &le) || le.What != "bytes" {
		t.Fatalf("MaxBytes: err = %v, want bytes LimitError", err)
	}
	if _, err := ReadCTZ1Limits(bytes.NewReader(buf.Bytes()), Limits{
		MaxRefs: tr.Len(), MaxBytes: int64(buf.Len()),
	}); err != nil {
		t.Fatalf("exact limits rejected: %v", err)
	}
}

// The streaming halves compose without a *Trace in the middle: encoder
// fed one ref at a time, decoder drained through StripReaderInto, and the
// result matches Strip of the original.
func TestCTZ1StreamingPrelude(t *testing.T) {
	tr := ctz1TestTraces()["loop"]
	var buf bytes.Buffer
	enc, err := NewCTZ1Encoder(&buf, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr.Refs {
		if err := enc.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}

	dec, err := NewCTZ1Decoder(bytes.NewReader(buf.Bytes()), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := StripReaderInto(dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Strip(tr)
	if got.N() != want.N() || got.NUnique() != want.NUnique() {
		t.Fatalf("streamed strip N=%d N'=%d, want N=%d N'=%d", got.N(), got.NUnique(), want.N(), want.NUnique())
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("IDs[%d] = %d, want %d", i, got.IDs[i], want.IDs[i])
		}
	}
	for id := range want.Unique {
		if got.Unique[id] != want.Unique[id] {
			t.Fatalf("Unique[%d] = %x, want %x", id, got.Unique[id], want.Unique[id])
		}
	}
}

// Appending after Close and encoding invalid kinds fail loudly.
func TestCTZ1EncoderMisuse(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewCTZ1Encoder(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Append(Ref{Addr: 1, Kind: Kind(9)}); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Append(Ref{Addr: 1, Kind: DataRead}); err == nil {
		t.Fatal("append after Close accepted")
	}
	if err := enc.Close(); err != nil {
		t.Fatal("second Close should be a no-op")
	}
}

// xxh64 matches the reference vectors from the xxHash specification
// (seed 0), pinning the checksum so ctz1 files stay portable across
// implementations.
func TestXXH64Vectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"message digest", 0x066ed728fceeb3be},
		{"abcdefghijklmnopqrstuvwxyz", 0xcfe1f278fa89835c},
		{"12345678901234567890123456789012345678901234567890123456789012345678901234567890", 0xe04a477f19ee145d},
	}
	for _, c := range cases {
		if got := xxh64([]byte(c.in)); got != c.want {
			t.Errorf("xxh64(%q) = %016x, want %016x", c.in, got, c.want)
		}
	}
}
