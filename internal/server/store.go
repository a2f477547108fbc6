package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"time"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// TraceEntry is one uploaded trace: its content digest, the decoded
// references, the Table 5/6 statistics, and the lazily built, memoized
// prelude structures (stripped trace + MRCT) every exploration of the
// trace shares. The prelude is the expensive half of the paper's
// algorithm; memoizing it is what makes repeated (D, A) queries at
// different budgets cheap.
type TraceEntry struct {
	Digest   string
	Trace    *trace.Trace
	Stats    trace.Stats
	Kind     string // "instr", "data" or "mixed" (see classifyTrace)
	Uploaded time.Time

	mu       sync.Mutex
	stripped *trace.Stripped
	mrct     *core.MRCT
}

// Prelude returns the stripped trace and conflict table, building them on
// first use. Concurrent callers for the same trace serialize so the work
// happens once; only successful builds are memoized, so a cancelled
// builder fails just its own request. A build records a "prelude" span
// with "strip" and "mrct" children; a memoized return records nothing —
// the job paid nothing, so its trace shows nothing.
func (e *TraceEntry) Prelude(ctx context.Context) (*trace.Stripped, *core.MRCT, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mrct == nil {
		pctx, span := obs.StartSpan(ctx, "prelude")
		_, sspan := obs.StartSpan(pctx, "strip")
		s, err := trace.StripLines(e.Trace, 1, nil)
		if err != nil {
			return nil, nil, err
		}
		if sspan != nil {
			sspan.SetAttr("n", s.N())
			sspan.SetAttr("n_unique", s.NUnique())
			sspan.End()
		}
		m, err := core.BuildMRCTContext(pctx, s)
		if err != nil {
			return nil, nil, err
		}
		if span != nil {
			span.SetAttr("n", s.N())
			span.SetAttr("n_unique", s.NUnique())
			span.End()
		}
		e.stripped, e.mrct = s, m
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

// TraceStore holds uploaded traces by digest with LRU eviction past a
// configured bound, so a long-lived daemon cannot accumulate traces
// without limit.
type TraceStore struct {
	lru *lru[*TraceEntry]
}

// NewTraceStore returns a store retaining at most max traces (minimum 1).
func NewTraceStore(max int) *TraceStore {
	return &TraceStore{lru: newLRU[*TraceEntry](max)}
}

// Add registers a trace, returning its entry and whether it was already
// present (uploads are idempotent by content).
func (s *TraceStore) Add(t *trace.Trace) (entry *TraceEntry, existed bool) {
	digest := TraceDigest(t)
	return s.lru.GetOrPut(digest, func() *TraceEntry {
		return &TraceEntry{
			Digest:   digest,
			Trace:    t,
			Stats:    trace.ComputeStats(t),
			Kind:     classifyTrace(t),
			Uploaded: time.Now(),
		}
	})
}

// Get returns the entry for digest, marking it most recently used.
func (s *TraceStore) Get(digest string) (*TraceEntry, bool) { return s.lru.Get(digest) }

// Remove deletes the entry for digest, reporting whether it existed.
func (s *TraceStore) Remove(digest string) bool { return s.lru.Remove(digest) }

// List returns every entry, most recently used first.
func (s *TraceStore) List() []*TraceEntry { return s.lru.Values() }

// Len returns the number of stored traces.
func (s *TraceStore) Len() int { return s.lru.Len() }
