package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"time"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/trace"
)

// TraceEntry is one stored trace, held as its ctz1 image alone (about one
// byte per reference on the paper's streams, against eight decoded), with
// its digest and the figures newTraceEntry derives, and the lazily built,
// memoized prelude structures (stripped trace + MRCT) every exploration
// of the trace shares. The prelude is the expensive half of the paper's
// algorithm; memoizing it is what makes repeated (D, A) queries at
// different budgets cheap.
type TraceEntry struct {
	Digest   string
	Stats    trace.Stats
	Kind     string // "instr", "data" or "mixed" (see classifyTrace)
	AddrBits int
	Uploaded time.Time

	image []byte // never modified

	mu       sync.Mutex
	stripped *trace.Stripped
	mrct     *core.MRCT
}

// newTraceEntry makes the entry for trace t, whose digest is digest and
// whose ctz1 image is image. The entry keeps the image, not t.
func newTraceEntry(digest string, t *trace.Trace, image []byte) *TraceEntry {
	return &TraceEntry{
		Digest:   digest,
		Stats:    trace.ComputeStats(t),
		Kind:     classifyTrace(t),
		AddrBits: t.AddrBits(),
		Uploaded: time.Now(),
		image:    image,
	}
}

// decode returns the trace's references, decoded in parallel from the
// image, for one simulate, verify or space job to hold while it runs.
func (e *TraceEntry) decode() (*trace.Trace, error) {
	return trace.DecodeBytes(e.image, trace.Limits{})
}

// Prelude returns the stripped trace and conflict table, building them on
// first use. Concurrent callers for the same trace serialize so the work
// happens once; only successful builds are memoized, so a cancelled or
// failed builder fails just its own request. The build strips the image
// as it decodes it (core.BuildPrelude) and records the engine's "prelude"
// span, with "strip" and "mrct" children; a memoized return records
// nothing — the job paid nothing, so its trace shows nothing.
func (e *TraceEntry) Prelude(ctx context.Context) (*trace.Stripped, *core.MRCT, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mrct == nil {
		d, err := trace.NewCTZ1BytesDecoder(e.image, trace.Limits{})
		var p core.Prelude
		if err == nil {
			p, err = core.BuildPrelude(ctx, d)
		}
		if err != nil {
			return nil, nil, err
		}
		e.stripped, e.mrct = p.Stripped, p.MRCT
	}
	return e.stripped, e.mrct, nil
}

// classifyTrace buckets a trace by its reference kinds: "instr" when
// every reference is an instruction fetch, "data" when none is, "mixed"
// otherwise. The label backs the ?kind filter on GET /v1/traces.
func classifyTrace(t *trace.Trace) string {
	instr, data := false, false
	for _, r := range t.Refs {
		if r.Kind == trace.Instr {
			instr = true
		} else {
			data = true
		}
		if instr && data {
			return "mixed"
		}
	}
	if instr {
		return "instr"
	}
	return "data"
}

// TraceDigest returns the content digest of a trace: SHA-256 over the
// canonical (kind, little-endian address) byte stream of its references,
// truncated to 128 bits and hex encoded. The digest depends only on the
// reference sequence, so the same trace uploaded as .din text or .ctr
// binary keys identically.
func TraceDigest(t *trace.Trace) string {
	h := sha256.New()
	buf := make([]byte, 0, 5*4096)
	for i, r := range t.Refs {
		buf = append(buf, byte(r.Kind), 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(buf[len(buf)-4:], r.Addr)
		if len(buf) == cap(buf) || i == len(t.Refs)-1 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// keepTrace stores e in the trace LRU unless its digest has an entry
// already, returning the stored entry and whether it was there: uploads
// are idempotent by content, and racing arrivals share one prelude.
func (s *Server) keepTrace(e *TraceEntry) (*TraceEntry, bool) {
	return s.store.GetOrPut(e.Digest, func() *TraceEntry { return e })
}
