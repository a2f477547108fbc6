package tracestore

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"github.com/example/cachedse/internal/trace"
)

// validCTZ1 encodes a small trace as ctz1 bytes for the fuzz corpus.
func validCTZ1(tb testing.TB) []byte {
	tb.Helper()
	tr := trace.New(0)
	for i := 0; i < 300; i++ {
		tr.Append(trace.Ref{Addr: uint32(i%7) * 64, Kind: trace.Kind(i % 3)})
	}
	var buf bytes.Buffer
	if err := trace.WriteCTZ1(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// ctz1Corpus is the seed corpus: a valid image, the bare magic, nothing,
// the valid image with one byte flipped every 37 bytes, and its first
// half.
func ctz1Corpus(tb testing.TB) [][]byte {
	valid := validCTZ1(tb)
	cases := [][]byte{valid, []byte("CTZ1"), {}}
	for i := 0; i < len(valid); i += 37 {
		mut := bytes.Clone(valid)
		mut[i] ^= 0x5a
		cases = append(cases, mut)
	}
	return append(cases, valid[:len(valid)/2])
}

// checkStoredDecode stores data, reads it back with Get — the read a
// server makes when it revives a persisted trace — and holds the bytes to
// checkDecode. The store digest is computed over those exact bytes, so
// verification passes and any damage reaches the decoder.
func checkStoredDecode(t *testing.T, data []byte) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("trace/fuzz", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("trace/fuzz")
	if err != nil {
		t.Fatalf("Get over freshly put bytes: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get returned %d bytes, put %d", len(got), len(data))
	}
	checkDecode(t, got)
}

// checkDecode decodes data with trace.DecodeBytes, as a server decodes a
// stored or peer-fetched trace. The contract: an input
// carrying the ctz1 magic decodes cleanly or fails with a typed
// *trace.CorruptError / *trace.LimitError; every input decodes to exactly
// what the streaming trace.Decode yields, or fails where it fails;
// nothing panics.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	lim := trace.Limits{MaxRefs: 1 << 16}
	tr, err := trace.DecodeBytes(data, lim)
	if err != nil && bytes.HasPrefix(data, []byte("CTZ1")) {
		var ce *trace.CorruptError
		var le *trace.LimitError
		if !errors.As(err, &ce) && !errors.As(err, &le) {
			t.Fatalf("untyped ctz1 decode error: %T %v", err, err)
		}
	}
	want, werr := trace.Decode(bytes.NewReader(data), lim)
	if (err == nil) != (werr == nil) {
		t.Fatalf("DecodeBytes err = %v, streaming Decode err = %v", err, werr)
	}
	if err == nil && !slices.Equal(tr.Refs, want.Refs) {
		t.Fatalf("DecodeBytes decoded %d refs, streaming Decode %d, or they differ",
			len(tr.Refs), len(want.Refs))
	}
}

// FuzzMappedCTZ1 fuzzes the stored-trace decode (trace.DecodeBytes) over
// arbitrary, often corrupted, ctz1 images. The store
// round trip in front of it is left to TestFuzzMappedCTZ1Seeds: an fsync'd
// Put per exec would leave the fuzzer almost no execs.
func FuzzMappedCTZ1(f *testing.F) {
	for _, data := range ctz1Corpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// TestFuzzMappedCTZ1Seeds puts each seed in a store, reads it back with
// Get and runs the fuzz check over the bytes, so the corrupt-block,
// truncation and valid cases run in every `go test`, not only under
// -fuzz.
func TestFuzzMappedCTZ1Seeds(t *testing.T) {
	for _, data := range ctz1Corpus(t) {
		checkStoredDecode(t, data)
	}
}
