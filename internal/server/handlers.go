package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/obs/profiler"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
)

// traceInfo is the JSON view of a stored trace.
type traceInfo struct {
	Digest    string    `json:"digest"`
	N         int       `json:"n"`
	NUnique   int       `json:"n_unique"`
	MaxMisses int       `json:"max_misses"`
	AddrBits  int       `json:"addr_bits"`
	Kind      string    `json:"kind"`
	Uploaded  time.Time `json:"uploaded"`
}

func infoOf(e *TraceEntry) traceInfo {
	return traceInfo{
		Digest:    e.Digest,
		N:         e.Stats.N,
		NUnique:   e.Stats.NUnique,
		MaxMisses: e.Stats.MaxMisses,
		AddrBits:  e.Trace.AddrBits(),
		Kind:      e.Kind,
		Uploaded:  e.Uploaded,
	}
}

// handleUpload reads a .din or .ctr body through the size-limited
// decoder and registers the trace under its content digest. Uploads are
// idempotent: re-posting the same trace returns 200 with the existing
// digest instead of 201. The body is buffered rather than streamed so a
// cluster ingress can replay the exact bytes to each owner replica.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	var tr *trace.Trace
	if err == nil {
		tr, err = trace.Decode(bytes.NewReader(raw), trace.Limits{
			MaxRefs:  s.cfg.MaxRefs,
			MaxBytes: s.cfg.MaxUploadBytes,
		})
	}
	var maxErr *http.MaxBytesError
	var limErr *trace.LimitError
	switch {
	case errors.As(err, &maxErr) || errors.As(err, &limErr):
		httpError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if tr.Len() == 0 {
		httpError(w, http.StatusBadRequest, codeBadRequest, "empty trace")
		return
	}
	if s.clusterIngress(r) && s.uploadWriteThrough(w, r, TraceDigest(tr), raw) {
		return
	}
	entry, existed := s.store.Add(tr)
	if !existed {
		s.persistTrace(r.Context(), entry)
	} else if s.persist != nil {
		// A deduplicated upload may still need persisting: an earlier
		// persistTrace can have failed (errors only degrade durability),
		// or the trace may predate -store. The re-upload is the client's
		// bytes in hand, so make the trace durable now.
		if _, ok := s.persist.Stat(traceKeyPrefix + entry.Digest); !ok {
			s.persistTrace(r.Context(), entry)
		}
	}
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, infoOf(entry))
}

// listTracesDefaultLimit and listTracesMaxLimit bound one page of
// GET /v1/traces.
const (
	listTracesDefaultLimit = 100
	listTracesMaxLimit     = 1000
)

// handleListTraces pages through the stored traces in ascending digest
// order — a total order that is stable across requests regardless of LRU
// activity, so a client walking pages sees each trace at most once.
// ?limit bounds the page (default 100, max 1000), ?cursor resumes after
// the given digest (use the previous page's next_cursor), and ?kind
// filters to "instr", "data" or "mixed" traces.
func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := listTracesDefaultLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, codeBadRequest, "limit %q must be a positive integer", raw)
			return
		}
		limit = min(n, listTracesMaxLimit)
	}
	kind := q.Get("kind")
	switch kind {
	case "", "instr", "data", "mixed":
	default:
		httpError(w, http.StatusBadRequest, codeBadRequest,
			`kind %q must be "instr", "data" or "mixed"`, kind)
		return
	}
	cursor := q.Get("cursor")

	entries := s.store.List()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Digest < entries[j].Digest })
	out := make([]traceInfo, 0, limit)
	next := ""
	for _, e := range entries {
		if cursor != "" && e.Digest <= cursor {
			continue
		}
		if kind != "" && e.Kind != kind {
			continue
		}
		if len(out) == limit {
			// One past the page: tell the client where to resume.
			next = out[len(out)-1].Digest
			break
		}
		out = append(out, infoOf(e))
	}
	resp := map[string]any{"traces": out}
	if next != "" {
		resp["next_cursor"] = next
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	if s.proxyCompute(w, r, "traces_get", r.PathValue("digest"), nil) {
		return
	}
	entry, ok := s.lookupTrace(r.PathValue("digest"))
	if !ok {
		httpError(w, http.StatusNotFound, codeTraceNotFound, "unknown trace %q", r.PathValue("digest"))
		return
	}
	writeJSON(w, http.StatusOK, infoOf(entry))
}

// handleDeleteTrace removes a trace from memory and disk. A trace a
// queued or running job still references is not deletable: pulling it out
// from under live work would make the job's eventual answer describe a
// trace the server no longer admits to having, so the request gets 409
// and the client retries once the job drains. A cluster ingress also fans
// the deletion out to every owner (dropping any local copy, owner or
// not): busy anywhere wins over deleted, and an unreachable owner makes
// the delete incomplete, reported as 503 rather than pretending the
// replica is gone.
func (s *Server) handleDeleteTrace(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	removed, busy := s.deleteTraceLocal(digest)
	unreachable := 0
	if s.clusterIngress(r) {
		for _, peer := range s.peers.OwnerTargets(digest) {
			resp, err := s.peers.Forward(r.Context(), peer, http.MethodDelete, r.URL.RequestURI(), proxyHeader(r), nil)
			if err != nil {
				unreachable++
				continue
			}
			s.proxied.With("traces_delete").Inc()
			removed = removed || resp.StatusCode == http.StatusOK
			busy = busy || resp.StatusCode == http.StatusConflict
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	switch {
	case busy:
		httpError(w, http.StatusConflict, codeTraceBusy,
			"trace %q is referenced by a queued or running job; retry when it finishes", digest)
	case unreachable > 0:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, codeUnavailable,
			"%d owner(s) of trace %q unreachable; replica may survive, retry the delete", unreachable, digest)
	case removed:
		writeJSON(w, http.StatusOK, map[string]string{"deleted": digest})
	default:
		httpError(w, http.StatusNotFound, codeTraceNotFound, "unknown trace %q", digest)
	}
}

// deleteTraceLocal removes this node's copy of a trace from memory and
// disk. The busy check and the removal run atomically against dispatch's
// retain: without the shared lock a dispatch could pass its lookup, lose
// the race to this removal, and run its job against a trace the store
// had already forgotten.
func (s *Server) deleteTraceLocal(digest string) (removed, busy bool) {
	removed, idle := s.active.deleteIfIdle(digest, func() bool {
		removed := s.store.Remove(digest)
		if s.forgetTrace(digest) {
			removed = true
		}
		return removed
	})
	return removed, !idle
}

// instanceJSON is one emitted (D, A) pair with its derived columns. The
// misses_* interval fields appear only on sampled (approximate)
// explorations that did not degenerate to exact.
type instanceJSON struct {
	Depth     int `json:"depth"`
	Assoc     int `json:"assoc"`
	SizeWords int `json:"size_words"`
	Misses    int `json:"misses"`
	// MissesSE is the standard error of the estimated miss count;
	// MissesLo/MissesHi bracket it at the estimator's confidence level.
	MissesSE float64 `json:"misses_se,omitempty"`
	MissesLo int     `json:"misses_lo,omitempty"`
	MissesHi int     `json:"misses_hi,omitempty"`
}

type exploreRequest struct {
	addressed
	K        *int     `json:"k,omitempty"`
	KPct     *float64 `json:"kpct,omitempty"`
	MaxDepth int      `json:"max_depth,omitempty"`
	Pareto   bool     `json:"pareto,omitempty"`
	Parallel bool     `json:"parallel,omitempty"`
	Verify   bool     `json:"verify,omitempty"`
	// SampleRate, when non-zero, runs the spatially-sampled approximate
	// engine at that rate (0 < rate <= 1); the ?sample= query parameter
	// overrides it.
	SampleRate float64 `json:"sample_rate,omitempty"`
	// Space, when present, switches the request to a design-space
	// exploration: the answer is the Pareto front of the space instead of
	// the budget-K instance list, "k" becomes optional, and sampling and
	// verify are rejected (the space evaluator is exact end to end).
	Space *spaceJSON `json:"space,omitempty"`
}

// sampleJSON summarises the sampling estimate attached to an approximate
// exploration: rates, measured totals and the confidence level of the
// per-instance intervals.
type sampleJSON struct {
	Mode          string  `json:"mode"`
	RequestedRate float64 `json:"requested_rate"`
	EffectiveRate float64 `json:"effective_rate"`
	Confidence    float64 `json:"confidence"`
	KeptRefs      int64   `json:"kept_refs"`
	DroppedRefs   int64   `json:"dropped_refs"`
	// Exact marks a sampled request that degenerated to the exact engine
	// (rate 1, or the MinUnique floor clamped it): intervals are
	// zero-width and the miss counts are not estimates.
	Exact bool `json:"exact,omitempty"`
}

type exploreResponse struct {
	Trace     string         `json:"trace"`
	K         int            `json:"k"`
	MaxMisses int            `json:"max_misses"`
	Instances []instanceJSON `json:"instances"`
	Table     string         `json:"table"`
	Cached    bool           `json:"cached"`
	Verified  bool           `json:"verified,omitempty"`
	// Degraded marks a response served from a cached depth profile
	// because the worker pool was saturated; the answer is exact (the
	// profile is deterministic) but any requested verify step was skipped.
	Degraded bool `json:"degraded,omitempty"`
	// Sample is present iff the exploration was sampled.
	Sample *sampleJSON `json:"sample,omitempty"`
	// Space echoes the canonical key of the explored design space; Pareto
	// and Prune carry its front and pruning tally. All three are present
	// iff the request carried a space block (additive to the v1 shape).
	Space  string            `json:"space,omitempty"`
	Pareto []paretoPointJSON `json:"pareto,omitempty"`
	Prune  *pruneJSON        `json:"prune,omitempty"`
}

// budget resolves the CLI's -k / -kpct convention against a trace's max
// misses: an absolute budget wins; otherwise kpct percent of maxMisses.
// ok is false when the request gives neither.
func (r *exploreRequest) budget(maxMisses int) (k int, ok bool) {
	if r.K != nil && *r.K >= 0 {
		return *r.K, true
	}
	if r.KPct != nil && *r.KPct >= 0 {
		return int(float64(maxMisses) * *r.KPct / 100), true
	}
	return 0, false
}

// response starts the explore response both explore answers share.
func (r *exploreRequest) response(entry *TraceEntry, cached, degraded bool) *exploreResponse {
	budget, _ := r.budget(entry.Stats.MaxMisses)
	return &exploreResponse{Trace: entry.Digest, K: budget, MaxMisses: entry.Stats.MaxMisses, Cached: cached, Degraded: degraded}
}

// parseExplore is the explore verb's parse stage. A space block makes
// the request a design-space exploration (spaceQuery); otherwise it asks
// for the budget-K view of the trace's depth profile (exploreQuery).
func parseExplore(body []byte, query url.Values) (computeRequest, *apiError) {
	q := &exploreQuery{}
	if err := decodeJSONBytes(body, &q.exploreRequest); err != nil {
		return nil, badRequest(codeBadRequest, "%v", err)
	}
	var space *core.Space
	if q.Space != nil {
		sp, perr := parseSpace(q.Space)
		if perr != nil {
			return q, perr
		}
		space = &sp
	}
	// A design-space request needs no miss budget: K only selects rows of
	// the instance view, which a space answer replaces with its front.
	if space == nil || q.K != nil || q.KPct != nil {
		if _, ok := q.budget(0); !ok {
			return q, badRequest(codeBadRequest, `explore needs "k" or "kpct"`)
		}
	}
	if q.MaxDepth != 0 && (q.MaxDepth < 1 || q.MaxDepth&(q.MaxDepth-1) != 0) {
		return q, badRequest(codeBadRequest, "max_depth %d is not a power of two >= 1", q.MaxDepth)
	}
	// ?sample= overrides the body's sample_rate (the curl-friendly form).
	if raw := query.Get("sample"); raw != "" {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return q, badRequest(codeInvalidSampleRate, "sample %q is not a number", raw)
		}
		q.SampleRate = f
	}
	if q.SampleRate != 0 {
		if err := (sampling.Config{Rate: q.SampleRate}).Validate(); err != nil {
			return q, badRequest(codeInvalidSampleRate, "%v", err)
		}
		if q.Verify {
			return q, badRequest(codeBadRequest,
				"verify needs exact miss counts; drop sample_rate or verify the chosen instances separately")
		}
	}
	if space == nil {
		return q, nil
	}
	if q.SampleRate != 0 {
		return q, badRequest(codeBadRequest, "a space exploration is exact end to end; drop sample_rate")
	}
	if q.Verify {
		return q, badRequest(codeBadRequest,
			"a space exploration has no budget to verify against; simulate chosen points instead")
	}
	return &spaceQuery{exploreRequest: q.exploreRequest, space: *space}, nil
}

// exploreQuery asks for the instances that meet a miss budget. The answer
// memoizes the trace's depth profile, not the instance list: K only
// selects rows of the profile, so exploring at a different K is a cache
// hit.
type exploreQuery struct{ exploreRequest }

// memo keys one depth profile. Sampled profiles are keyed separately per
// rate — an approximate answer must never be served where an exact one
// was asked for (or vice versa), and the default seed makes a given rate
// deterministic.
func (q *exploreQuery) memo(digest string) (string, bool) {
	key := fmt.Sprintf("explore|%s|d=%d", digest, q.MaxDepth)
	if q.SampleRate != 0 {
		key = fmt.Sprintf("%s|sample=%g", key, q.SampleRate)
	}
	return key, true
}

func (q *exploreQuery) compute(ctx context.Context, entry *TraceEntry) (any, error) {
	opts := core.Options{MaxDepth: q.MaxDepth, SampleRate: q.SampleRate}
	if q.Parallel {
		opts.Workers = -1
	}
	if q.SampleRate != 0 {
		// The sampled engine needs the raw trace, not the memoized
		// prelude: its stratification plan reads per-address occurrence
		// masses and its estimate calibrates against the occurrence
		// counts a stripped prelude no longer carries.
		return core.Explore(ctx, entry.Trace, opts)
	}
	stripped, mrct, err := entry.Prelude(ctx)
	if err != nil {
		return nil, err
	}
	obs.CurrentSpan(ctx).SetAttr("dedup_hit_rate", mrct.DedupHitRate())
	return core.Explore(ctx, core.Prelude{Stripped: stripped, MRCT: mrct}, opts)
}

// render projects a depth profile into the budget-K response rows.
// Sampled profiles additionally carry the estimate summary and, unless
// the sample degenerated to exact, per-instance standard errors and
// confidence bounds derived from the estimator's raw histograms.
func (q *exploreQuery) render(entry *TraceEntry, v any, cached, degraded bool) any {
	res := v.(*core.Result)
	resp := q.response(entry, cached, degraded)
	instances, tab := dse.InstanceTable(res, resp.K, resp.MaxMisses, q.Pareto)
	resp.Instances = make([]instanceJSON, len(instances))
	resp.Table = tab.Render()
	for i, ins := range instances {
		resp.Instances[i] = instanceJSON{
			Depth:     ins.Depth,
			Assoc:     ins.Assoc,
			SizeWords: ins.SizeWords(),
			Misses:    res.Level(ins.Depth).Misses(ins.Assoc),
		}
	}
	if est := res.Sample; est != nil {
		resp.Sample = &sampleJSON{
			Mode:          est.Mode,
			RequestedRate: est.RequestedRate,
			EffectiveRate: est.EffectiveRate,
			Confidence:    sampling.ConfidenceLevel,
			KeptRefs:      est.KeptRefs,
			DroppedRefs:   est.DroppedRefs,
			Exact:         est.Exact(),
		}
		if !est.Exact() {
			for i := range resp.Instances {
				lvl := bits.TrailingZeros(uint(resp.Instances[i].Depth))
				resp.Instances[i].MissesSE = est.SE(lvl, resp.Instances[i].Assoc)
				resp.Instances[i].MissesLo, resp.Instances[i].MissesHi =
					est.CI95(lvl, resp.Instances[i].Assoc, resp.Instances[i].Misses)
			}
		}
	}
	return resp
}

// check runs the cross-check "verify": true asks for: every emitted
// instance must meet the budget under simulation.
func (q *exploreQuery) check(ctx context.Context, entry *TraceEntry, v any) (bool, error) {
	if !q.Verify {
		return false, nil
	}
	resp := v.(*exploreResponse)
	instances := make([]core.Instance, len(resp.Instances))
	for i, ins := range resp.Instances {
		instances[i] = core.Instance{Depth: ins.Depth, Assoc: ins.Assoc}
	}
	if err := verifyInstances(ctx, entry, instances, resp.K); err != nil {
		return true, err
	}
	resp.Verified = true
	return true, nil
}

// verifyInstances simulates each instance on the trace under a "verify"
// span and fails on the first that misses more than k times.
func verifyInstances(ctx context.Context, entry *TraceEntry, instances []core.Instance, k int) error {
	_, span := obs.StartSpan(ctx, "verify")
	err := dse.VerifyContext(ctx, entry.Trace, instances, k)
	span.SetAttr("instances", len(instances))
	span.SetAttr("ok", err == nil)
	span.End()
	return err
}

// simulateRequest asks for one configuration's simulated hit/miss counts.
type simulateRequest struct {
	addressed
	Depth        int    `json:"depth"`
	Assoc        int    `json:"assoc,omitempty"`
	LineWords    int    `json:"line_words,omitempty"`
	Repl         string `json:"repl,omitempty"`
	WriteThrough bool   `json:"write_through,omitempty"`
	cfg          cache.Config
}

type simulateResponse struct {
	Trace      string  `json:"trace"`
	Config     string  `json:"config"`
	Accesses   int     `json:"accesses"`
	Hits       int     `json:"hits"`
	ColdMisses int     `json:"cold_misses"`
	Misses     int     `json:"misses"`
	Writebacks int     `json:"writebacks"`
	MissRate   float64 `json:"miss_rate"`
	Cached     bool    `json:"cached"`
	Degraded   bool    `json:"degraded,omitempty"`
}

func replFromName(name string) (cache.Replacement, error) {
	switch strings.ToLower(name) {
	case "", "lru":
		return cache.LRU, nil
	case "fifo":
		return cache.FIFO, nil
	case "random":
		return cache.Random, nil
	case "plru":
		return cache.PLRU, nil
	}
	return 0, fmt.Errorf("unknown replacement policy %q", name)
}

// parseSimulate is the simulate verb's parse stage: the body's geometry
// becomes a cache.Config that cache.Simulate accepts.
func parseSimulate(body []byte, _ url.Values) (computeRequest, *apiError) {
	q := &simulateRequest{}
	if err := decodeJSONBytes(body, q); err != nil {
		return nil, badRequest(codeBadRequest, "%v", err)
	}
	repl, err := replFromName(q.Repl)
	if err != nil {
		return q, badRequest(codeBadRequest, "%v", err)
	}
	q.cfg = cache.Config{Depth: q.Depth, Assoc: q.Assoc, LineWords: q.LineWords, Repl: repl, Allocate: true}
	if q.Assoc == 0 {
		q.cfg.Assoc = 1
	}
	if q.LineWords == 0 {
		q.cfg.LineWords = 1
	}
	if q.WriteThrough {
		q.cfg.Write = cache.WriteThrough
	}
	if err := q.cfg.Validate(); err != nil {
		return q, badRequest(codeBadRequest, "%v", err)
	}
	if !within(q.cfg.Depth, q.cfg.Assoc, maxCacheLines) {
		return q, badRequest(codeBadRequest, "depth %d x assoc %d exceeds %d cache lines", q.cfg.Depth, q.cfg.Assoc, maxCacheLines)
	}
	return q, nil
}

// The parse stages bound what a request may have a job allocate: a
// simulated cache holds depth·assoc lines, and a policy sweep of one
// space level holds max_depth·A(A+1)/2 ways for max_assoc A.
const (
	maxCacheLines = 1 << 22
	maxSweepWays  = 1 << 24
)

// within reports whether a·b <= limit for a, b >= 1, without overflow.
func within(a, b, limit int) bool { return b <= limit && a <= limit/b }

func (q *simulateRequest) memo(digest string) (string, bool) {
	return fmt.Sprintf("simulate|%s|%v|lw=%d|wt=%v", digest, q.cfg, q.cfg.LineWords, q.WriteThrough), true
}

func (q *simulateRequest) compute(ctx context.Context, entry *TraceEntry) (any, error) {
	_, span := obs.StartSpan(ctx, "simulate")
	res, err := cache.Simulate(q.cfg, entry.Trace)
	span.SetAttr("config", fmt.Sprint(q.cfg))
	span.End()
	if err != nil {
		return nil, err
	}
	return &simulateResponse{
		Trace:      entry.Digest,
		Config:     fmt.Sprint(q.cfg),
		Accesses:   res.Accesses,
		Hits:       res.Hits,
		ColdMisses: res.ColdMisses,
		Misses:     res.Misses,
		Writebacks: res.Writebacks,
		MissRate:   res.MissRate(),
	}, nil
}

func (q *simulateRequest) render(_ *TraceEntry, v any, cached, degraded bool) any {
	resp := *v.(*simulateResponse)
	resp.Cached, resp.Degraded = cached, degraded
	return &resp
}

// verifyRequest asks whether every listed instance meets the budget under
// simulation. The answer is not memoized.
type verifyRequest struct {
	addressed
	K         int             `json:"k"`
	Instances []core.Instance `json:"instances"` // keys "depth", "assoc"
}

type verifyResponse struct {
	Trace  string `json:"trace"`
	K      int    `json:"k"`
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// parseVerify is the verify verb's parse stage.
func parseVerify(body []byte, _ url.Values) (computeRequest, *apiError) {
	q := &verifyRequest{}
	if err := decodeJSONBytes(body, q); err != nil {
		return nil, badRequest(codeBadRequest, "%v", err)
	}
	if len(q.Instances) == 0 {
		return q, badRequest(codeBadRequest, "verify needs at least one instance")
	}
	for i, ins := range q.Instances {
		if ins.Depth < 1 || ins.Depth&(ins.Depth-1) != 0 || ins.Assoc < 1 {
			return q, badRequest(codeBadRequest,
				"instance %d: depth must be a power of two >= 1 and assoc >= 1", i)
		}
		if !within(ins.Depth, ins.Assoc, maxCacheLines) {
			return q, badRequest(codeBadRequest,
				"instance %d: depth %d x assoc %d exceeds %d cache lines", i, ins.Depth, ins.Assoc, maxCacheLines)
		}
	}
	return q, nil
}

func (q *verifyRequest) memo(string) (string, bool) { return "", false }

// compute answers a budget miss as ok=false with the reason; only a
// cancelled or timed-out verification fails the job.
func (q *verifyRequest) compute(ctx context.Context, entry *TraceEntry) (any, error) {
	err := verifyInstances(ctx, entry, q.Instances, q.K)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return nil, err
	}
	resp := &verifyResponse{Trace: entry.Digest, K: q.K, OK: err == nil}
	if err != nil {
		resp.Reason = err.Error()
	}
	return resp, nil
}

func (q *verifyRequest) render(_ *TraceEntry, v any, _, _ bool) any { return v }

// localJob finds the job a /v1/jobs/{id} request names. Job IDs carry no
// placement: an async job submitted through another node lives wherever
// it was dispatched, so a local miss scatters to the peers before giving
// up. ok is false when the response is already written.
func (s *Server) localJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok && !s.proxyJobMiss(w, r) {
		httpError(w, http.StatusNotFound, codeJobNotFound, "unknown job %q", r.PathValue("id"))
	}
	return job, ok
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.localJob(w, r); ok {
		writeJSON(w, http.StatusOK, job.Snapshot())
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.localJob(w, r); ok {
		s.queue.Cancel(job.ID())
		writeJSON(w, http.StatusOK, job.Snapshot())
	}
}

// handleJobTrace serves the job's full span tree in nested form. Spans
// appear as the job runs, so polling the endpoint on a running job shows
// the phases completed so far. With ?cluster=1 the response is the
// cluster-wide trace: the job's local spans merged with every node's
// fragments of the same trace ID (the ingress proxy span, co-owner
// write-through spans), stitched into one tree by parent pointers.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.localJob(w, r)
	if !ok {
		return
	}
	tr, ok := job.TraceExport()
	if !ok {
		httpError(w, http.StatusNotFound, codeJobNotFound, "job %q has no trace recorded", job.ID())
		return
	}
	if r.URL.Query().Get("cluster") == "1" {
		tr = s.stitchTrace(r.Context(), tr)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job":      job.ID(),
		"state":    job.Snapshot().State,
		"trace_id": tr.TraceID,
		"nodes":    tr.Nodes(),
		"spans":    tr.Tree(),
		"dropped":  tr.Dropped,
	})
}

// stitchTrace gathers every cluster member's fragments of tr's trace ID
// and merges them with the local view. Peer reads are strictly local on
// the far side (/v1/cluster/spans never forwards), so the scatter
// terminates in one hop; an unreachable peer just means its fragment is
// missing from the stitched tree.
func (s *Server) stitchTrace(ctx context.Context, tr obs.Trace) obs.Trace {
	fragments := []obs.Trace{tr}
	if local, ok := s.frags.Get(tr.TraceID); ok {
		fragments = append(fragments, local)
	}
	if s.peers != nil && tr.TraceID != "" {
		path := "/v1/cluster/spans?trace_id=" + url.QueryEscape(tr.TraceID)
		for _, peer := range s.peers.Nodes() {
			if peer.ID == s.peers.Self().ID {
				continue
			}
			resp, err := s.peers.Forward(ctx, peer, http.MethodGet, path, nil, nil)
			if err != nil {
				continue
			}
			var frag obs.Trace
			err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&frag)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil {
				fragments = append(fragments, frag)
			}
		}
	}
	return obs.Merge(fragments...)
}

// handleClusterSpans serves this node's local span fragments for one
// trace ID to a stitching peer. Strictly local: no fallback, no
// forwarding, so scatter-gather traffic terminates here. An unknown
// trace ID answers an empty fragment rather than 404 — "this node saw
// nothing" is a normal part of a stitched trace.
func (s *Server) handleClusterSpans(w http.ResponseWriter, r *http.Request) {
	traceID := r.URL.Query().Get("trace_id")
	if traceID == "" {
		httpError(w, http.StatusBadRequest, codeBadRequest, "missing ?trace_id=")
		return
	}
	frag, ok := s.frags.Get(traceID)
	if !ok {
		frag = obs.Trace{TraceID: traceID}
	}
	writeJSON(w, http.StatusOK, frag)
}

// handleDebugSlow serves the slow-request tail: the N slowest finished
// span trees of the current and previous sampling windows, slowest
// first, each naming the trace ID an exemplar or a log line can be
// joined against.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.Snapshot()
	out := make([]map[string]any, 0, len(entries))
	for _, e := range entries {
		out = append(out, map[string]any{
			"job":         e.Job,
			"trace_id":    e.TraceID,
			"root":        e.Root,
			"duration_ns": e.DurationNS,
			"finished":    e.Finished,
			"spans":       e.Trace.Tree(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"slow": out})
}

// handleDebugProfiles lists the continuous profiler's snapshot ring.
// With the profiler off the list is empty and enabled=false — a scrape
// target, not an error.
func (s *Server) handleDebugProfiles(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"enabled": s.prof != nil, "profiles": []profiler.Snapshot{}}
	if s.prof != nil {
		snaps, err := s.prof.Snapshots()
		if err != nil {
			httpError(w, http.StatusInternalServerError, codeInternal, "%v", err)
			return
		}
		if snaps != nil {
			resp["profiles"] = snaps
		}
		resp["dir"] = s.prof.Dir()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDebugProfile serves one pprof snapshot by its listed name,
// consumable directly by `go tool pprof`.
func (s *Server) handleDebugProfile(w http.ResponseWriter, r *http.Request) {
	if s.prof == nil {
		httpError(w, http.StatusNotFound, codeJobNotFound, "continuous profiler is not enabled (-profile-dir)")
		return
	}
	rc, err := s.prof.Open(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, codeJobNotFound, "no profile %q", r.PathValue("name"))
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = io.Copy(w, rc)
}

// handleMetrics negotiates the exposition format: an Accept header
// naming application/openmetrics-text gets OpenMetrics with exemplars
// and the # EOF terminator; everything else gets the classic Prometheus
// text format, where exemplars would be a syntax error.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		s.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queue_depth": s.queue.Depth(),
		"traces":      s.store.Len(),
	})
}

// handleReadyz is the readiness probe: traffic-worthy means the
// persistent store (when configured) opened and the job queue still
// accepts work. During drain the queue closes first, so readiness drops
// before liveness — the conventional signal to pull the instance from
// rotation while it flushes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	storeReady := s.cfg.StoreDir == "" || s.persist != nil
	queueReady := s.queue.Accepting()
	if !storeReady || !queueReady {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unavailable", "store": storeReady, "queue": queueReady,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "store": storeReady, "queue": queueReady,
	})
}
