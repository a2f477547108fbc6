package trace

import "io"

// RefReader is the streaming source of references: Next returns one
// reference at a time and io.EOF after the last. CTZ1Decoder implements it,
// and the prelude consumers below accept it, so a packed trace can flow
// from disk into the analytical engine without a materialized *Trace in
// between — the paper's prelude is linear in N, and for stored traces N no
// longer has to fit in memory twice.
type RefReader interface {
	Next() (Ref, error)
}

// Reader adapts an in-memory trace to the RefReader interface.
type Reader struct {
	t   *Trace
	pos int
}

// NewReader returns a RefReader over t.
func NewReader(t *Trace) *Reader { return &Reader{t: t} }

// Next implements RefReader.
func (r *Reader) Next() (Ref, error) {
	if r.pos >= len(r.t.Refs) {
		return Ref{}, io.EOF
	}
	ref := r.t.Refs[r.pos]
	r.pos++
	return ref, nil
}

// StripReaderInto builds the stripped form (Table 2) directly from a
// reference stream, the streaming twin of StripInto: only the Stripped
// structures themselves are allocated — the O(N) identifier sequence and
// the O(N') unique-address table — never the raw trace. s is reset and
// its storage reused; nil allocates fresh.
//
// A fresh bytes-mode *CTZ1Decoder is stripped in parallel: its image is
// decoded on up to GOMAXPROCS goroutines straight into s.IDs (see
// stripCTZ1), with the identifiers, error and drained decoder the
// reference-at-a-time loop below gives. Any other reader, and an image
// that fails anywhere, takes that loop.
func StripReaderInto(rr RefReader, s *Stripped) (*Stripped, error) {
	return stripReader(rr, s, minPartRefs)
}

// stripReader is StripReaderInto with a ctz1 image split into parts of
// at least minRefs references.
func stripReader(rr RefReader, s *Stripped, minRefs int) (*Stripped, error) {
	s, _, _ = s.reset(1, 0) // one-word lines are always valid
	if d, ok := rr.(*CTZ1Decoder); ok {
		if s.stripCTZ1(d, minRefs) {
			return s, nil
		}
		s.reset(1, 0)
	}
	for {
		r, err := rr.Next()
		if err == io.EOF {
			return s, checkIDs(len(s.IDs))
		}
		if err != nil {
			return nil, err
		}
		s.IDs = append(s.IDs, s.id(r.Addr))
	}
}
