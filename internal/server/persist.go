package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracestore"
	"github.com/example/cachedse/pkg/client"
)

// Persistence: when Config.StoreDir is set, the server writes every upload
// and every computed exploration/simulation result through to a
// content-addressed tracestore, and warm-starts its in-memory LRUs from it
// on boot — so a restart (crash or deploy) serves the same traces and
// answers repeat queries from cache instead of recomputing. Traces are
// stored in the compact ctz1 binary format under "trace/<digest>"; results
// are JSON envelopes under "result/<cache key>", keyed exactly like the
// in-memory result cache so the two tiers never disagree about identity.
const (
	traceKeyPrefix  = "trace/"
	resultKeyPrefix = "result/"
)

// persistedResult is the on-disk envelope for one memoized answer. Exactly
// one of the payload fields is set, selected by Kind.
type persistedResult struct {
	Kind     string                   `json:"kind"` // "explore" | "simulate"
	Explore  *core.Result             `json:"explore,omitempty"`
	Simulate *client.SimulateResponse `json:"simulate,omitempty"`
}

// value returns the envelope's payload, the value the result LRU holds.
func (e persistedResult) value() (any, error) {
	switch {
	case e.Kind == "explore" && e.Explore != nil:
		return e.Explore, nil
	case e.Kind == "simulate" && e.Simulate != nil:
		return e.Simulate, nil
	}
	return nil, fmt.Errorf("result envelope of kind %q carries no payload", e.Kind)
}

// warmStart reloads persisted traces and results into the in-memory
// stores. Entries list oldest-first, so the newest end up most recently
// used and LRU bounds evict the stalest state first. Damaged objects are
// deleted and skipped — a corrupt entry costs a recompute, not a refusal
// to boot.
func (s *Server) warmStart() {
	if s.persist == nil {
		return
	}
	for _, e := range s.persist.List(traceKeyPrefix) {
		tr, err := s.loadPersistedTrace(e.Key)
		if err != nil {
			s.cfg.Logger.Warn("dropping persisted entry", "key", e.Key, "err", err)
			_, _ = s.persist.Delete(e.Key)
			continue
		}
		s.store.Add(tr)
	}
	for _, e := range s.persist.List(resultKeyPrefix) {
		key := strings.TrimPrefix(e.Key, resultKeyPrefix)
		v, err := s.loadResult(context.Background(), key)
		if err != nil {
			s.cfg.Logger.Warn("dropping persisted entry", "key", e.Key, "err", err)
			_, _ = s.persist.Delete(e.Key)
			continue
		}
		s.results.Put(key, v)
	}
	if n := s.store.Len(); n > 0 || s.results.Len() > 0 {
		s.cfg.Logger.Info("warm start restored persisted state",
			"traces", n, "results", s.results.Len())
	}
}

// persistTrace writes an uploaded trace through to disk as ctz1. Failures
// degrade durability, not availability: the upload already succeeded in
// memory, so errors are logged and the request proceeds.
func (s *Server) persistTrace(ctx context.Context, entry *TraceEntry) {
	if s.persist == nil {
		return
	}
	var buf bytes.Buffer
	if err := trace.WriteCTZ1(&buf, entry.Trace); err != nil {
		s.cfg.Logger.ErrorContext(ctx, "encoding trace for persistence",
			"digest", entry.Digest, "err", err)
		return
	}
	if _, err := s.persist.PutContext(ctx, traceKeyPrefix+entry.Digest, &buf); err != nil {
		s.cfg.Logger.ErrorContext(ctx, "persisting trace",
			"digest", entry.Digest, "err", err)
	}
}

// persistResult writes one memoized answer (a depth profile or a
// simulation) through to disk under the in-memory cache key.
func (s *Server) persistResult(ctx context.Context, key string, v any) {
	if s.persist == nil {
		return
	}
	var env persistedResult
	switch x := v.(type) {
	case *core.Result:
		env = persistedResult{Kind: "explore", Explore: x}
	case *client.SimulateResponse:
		env = persistedResult{Kind: "simulate", Simulate: x}
	default:
		return
	}
	data, err := json.Marshal(env)
	if err != nil {
		s.cfg.Logger.ErrorContext(ctx, "encoding result for persistence",
			"key", key, "err", err)
		return
	}
	if _, err := s.persist.PutContext(ctx, resultKeyPrefix+key, bytes.NewReader(data)); err != nil {
		s.cfg.Logger.ErrorContext(ctx, "persisting result", "key", key, "err", err)
	}
}

// lookupTrace finds a trace in memory, falling back to the persistent
// store for entries the MaxTraces LRU evicted: the ctz1 bytes are
// re-decoded and re-promoted into the LRU, so anything durable stays
// servable — disk is the trace cache's backing tier, exactly as it is for
// results via loadResult.
func (s *Server) lookupTrace(digest string) (*TraceEntry, bool) {
	if e, ok := s.store.Get(digest); ok {
		return e, true
	}
	if s.persist == nil {
		// Purely in-memory node in a cluster: the trace may live on a
		// peer replica (this node joined after the upload, or its LRU
		// dropped the entry), pulled directly since there is no
		// tracestore read-repair fallback to ride, as disk-backed nodes
		// do below.
		if s.peers == nil {
			return nil, false
		}
		_, tr, err := s.fetchObjectFromPeers(digest)
		if err != nil {
			return nil, false
		}
		s.memRepairs.Add(1)
		e, _ := s.store.Add(tr)
		return e, true
	}
	tr, err := s.loadPersistedTrace(traceKeyPrefix + digest)
	if err != nil {
		if !errors.Is(err, tracestore.ErrNotFound) {
			s.cfg.Logger.Warn("dropping undecodable entry", "key", traceKeyPrefix+digest, "err", err)
			_, _ = s.persist.Delete(traceKeyPrefix + digest)
		}
		return nil, false
	}
	e, _ := s.store.Add(tr)
	return e, true
}

// loadPersistedTrace reads one persisted trace with Get — digest-verified,
// read-repaired from a replica on a miss or a corrupt object — and
// decodes the ctz1 bytes in place (DecodeBytes parses block payloads
// zero-copy, in parallel, into one exactly-sized trace), so reviving an
// evicted trace holds its stored bytes, about one per reference, only
// while the decoded references are built.
func (s *Server) loadPersistedTrace(key string) (*trace.Trace, error) {
	data, err := s.persist.Get(key)
	if err != nil {
		return nil, err
	}
	return trace.DecodeBytes(data, trace.Limits{
		MaxRefs:  s.cfg.MaxRefs,
		MaxBytes: s.cfg.MaxUploadBytes,
	})
}

// loadResult reads back a result the LRU evicted but disk still holds.
func (s *Server) loadResult(ctx context.Context, key string) (any, error) {
	if s.persist == nil {
		return nil, tracestore.ErrNotFound
	}
	data, err := s.persist.GetContext(ctx, resultKeyPrefix+key)
	if err != nil {
		return nil, err
	}
	var env persistedResult
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	return env.value()
}

// forgetTrace removes a trace and every result derived from it from disk,
// reporting whether the trace object itself was persisted. Result cache
// keys embed the digest between pipes ("explore|<digest>|...",
// "simulate|<digest>|..."), which is what ties a result to its trace.
func (s *Server) forgetTrace(digest string) bool {
	if s.persist == nil {
		return false
	}
	had, err := s.persist.Delete(traceKeyPrefix + digest)
	if err != nil {
		s.cfg.Logger.Error("deleting persisted trace", "digest", digest, "err", err)
	}
	for _, e := range s.persist.List(resultKeyPrefix) {
		if strings.Contains(e.Key, "|"+digest+"|") {
			if _, err := s.persist.Delete(e.Key); err != nil {
				s.cfg.Logger.Error("deleting persisted result", "key", e.Key, "err", err)
			}
		}
	}
	return had
}

// activeTraces refcounts traces bound to queued or running jobs, so DELETE
// /v1/traces/{digest} can refuse (409) to pull a trace out from under live
// work instead of letting the job finish against freed state.
type activeTraces struct {
	mu   sync.Mutex
	refs map[string]int
}

func newActiveTraces() *activeTraces {
	return &activeTraces{refs: make(map[string]int)}
}

// retainIf takes a reference only if present reports the trace still
// exists, with both under the table lock — so a concurrent deleteIfIdle
// cannot remove the trace between the existence check and the retain.
func (a *activeTraces) retainIf(digest string, present func() bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !present() {
		return false
	}
	a.refs[digest]++
	return true
}

// deleteIfIdle runs del only while no job references digest, holding the
// table lock across both so a concurrent retainIf cannot slip between the
// busy check and the removal. idle is false when a job held a reference
// (del did not run); removed is del's result otherwise.
func (a *activeTraces) deleteIfIdle(digest string, del func() bool) (removed, idle bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.refs[digest] > 0 {
		return false, false
	}
	return del(), true
}

func (a *activeTraces) release(digest string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.refs[digest]--; a.refs[digest] <= 0 {
		delete(a.refs, digest)
	}
}

func (a *activeTraces) busy(digest string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.refs[digest] > 0
}
