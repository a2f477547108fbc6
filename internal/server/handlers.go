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
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			httpError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge, "%v", err)
			return
		}
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	tr, err := trace.Decode(bytes.NewReader(raw), trace.Limits{
		MaxRefs:  s.cfg.MaxRefs,
		MaxBytes: s.cfg.MaxUploadBytes,
	})
	if err != nil {
		var limErr *trace.LimitError
		if errors.As(err, &limErr) {
			httpError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge, "%v", err)
			return
		}
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
// and the client retries once the job drains.
func (s *Server) handleDeleteTrace(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if s.clusterIngress(r) {
		s.clusterDelete(w, r, digest)
		return
	}
	removed, busy := s.deleteTraceLocal(digest)
	if busy {
		httpError(w, http.StatusConflict, codeTraceBusy,
			"trace %q is referenced by a queued or running job; retry when it finishes", digest)
		return
	}
	if !removed {
		httpError(w, http.StatusNotFound, codeTraceNotFound, "unknown trace %q", digest)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": digest})
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
	Trace    string   `json:"trace"`
	K        *int     `json:"k,omitempty"`
	KPct     *float64 `json:"kpct,omitempty"`
	MaxDepth int      `json:"max_depth,omitempty"`
	Pareto   bool     `json:"pareto,omitempty"`
	Parallel bool     `json:"parallel,omitempty"`
	Verify   bool     `json:"verify,omitempty"`
	Async    bool     `json:"async,omitempty"`
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

// budgetFor resolves the CLI's -k / -kpct convention: an absolute budget
// wins; otherwise kpct percent of the trace's max misses.
func budgetFor(e *TraceEntry, k *int, kpct *float64) (int, error) {
	if k != nil && *k >= 0 {
		return *k, nil
	}
	if kpct != nil && *kpct >= 0 {
		return int(float64(e.Stats.MaxMisses) * *kpct / 100), nil
	}
	return 0, errors.New(`explore needs "k" or "kpct"`)
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	var req exploreRequest
	if err := decodeJSONBytes(raw, &req); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if s.proxyCompute(w, r, "explore", req.Trace, raw) {
		return
	}
	entry, ok := s.lookupTrace(req.Trace)
	if !ok {
		httpError(w, http.StatusNotFound, codeTraceNotFound, "unknown trace %q", req.Trace)
		return
	}
	var space *core.Space
	if req.Space != nil {
		sp, code, serr := parseSpace(req.Space)
		if serr != nil {
			httpError(w, http.StatusBadRequest, code, "%v", serr)
			return
		}
		space = &sp
	}
	// A design-space request needs no miss budget: K only selects rows of
	// the instance view, which a space answer replaces with its front.
	budget := 0
	if space == nil || req.K != nil || req.KPct != nil {
		budget, err = budgetFor(entry, req.K, req.KPct)
		if err != nil {
			httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return
		}
	}
	if req.MaxDepth != 0 && (req.MaxDepth < 1 || req.MaxDepth&(req.MaxDepth-1) != 0) {
		httpError(w, http.StatusBadRequest, codeBadRequest, "max_depth %d is not a power of two >= 1", req.MaxDepth)
		return
	}
	// ?sample= overrides the body's sample_rate (the curl-friendly form).
	if raw := r.URL.Query().Get("sample"); raw != "" {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, codeInvalidSampleRate, "sample %q is not a number", raw)
			return
		}
		req.SampleRate = f
	}
	if req.SampleRate != 0 {
		if err := (sampling.Config{Rate: req.SampleRate}).Validate(); err != nil {
			httpError(w, http.StatusBadRequest, codeInvalidSampleRate, "%v", err)
			return
		}
		if req.Verify {
			httpError(w, http.StatusBadRequest, codeBadRequest,
				"verify needs exact miss counts; drop sample_rate or verify the chosen instances separately")
			return
		}
	}
	if space != nil {
		if req.SampleRate != 0 {
			httpError(w, http.StatusBadRequest, codeBadRequest,
				"a space exploration is exact end to end; drop sample_rate")
			return
		}
		if req.Verify {
			httpError(w, http.StatusBadRequest, codeBadRequest,
				"a space exploration has no budget to verify against; simulate chosen points instead")
			return
		}
	}
	s.dispatch(w, r, "explore", entry.Digest, req.Async, func(ctx context.Context) (any, error) {
		if space != nil {
			return s.runExploreSpace(ctx, entry, budget, *space)
		}
		return s.runExplore(ctx, entry, budget, req)
	}, func() (any, bool) {
		// Degraded read: the worker pool is saturated, but the answer may
		// already be cached. For a space request that means the memoized
		// front; otherwise the depth profile (in memory or on disk), which
		// K merely selects rows of.
		if space != nil {
			v, ok := s.results.Get(spaceExploreKey(entry.Digest, *space))
			if !ok {
				return nil, false
			}
			resp := renderExploreSpace(entry, budget, *space, v.(*core.Front), true)
			resp.Degraded = true
			return resp, true
		}
		res, ok := s.cachedExplore(r.Context(), exploreKey(entry.Digest, req))
		if !ok {
			return nil, false
		}
		resp := renderExplore(entry, budget, req, res, true)
		resp.Degraded = true
		return resp, true
	})
}

// exploreKey is the memoization key of one depth profile. Sampled
// profiles are keyed separately per rate — an approximate answer must
// never be served where an exact one was asked for (or vice versa), and
// the default seed makes a given rate deterministic.
func exploreKey(digest string, req exploreRequest) string {
	key := fmt.Sprintf("explore|%s|d=%d", digest, req.MaxDepth)
	if req.SampleRate != 0 {
		key = fmt.Sprintf("%s|sample=%g", key, req.SampleRate)
	}
	return key
}

// cachedExplore fetches a memoized depth profile from the result LRU or
// the persistent store without running any pool work.
func (s *Server) cachedExplore(ctx context.Context, key string) (*core.Result, bool) {
	if v, ok := s.results.Get(key); ok {
		return v.(*core.Result), true
	}
	if v, ok := s.loadResult(ctx, key); ok {
		return v.(*core.Result), true
	}
	return nil, false
}

// renderExplore projects a depth profile into the budget-K response rows.
// Sampled profiles additionally carry the estimate summary and, unless
// the sample degenerated to exact, per-instance standard errors and
// confidence bounds derived from the estimator's raw histograms.
func renderExplore(entry *TraceEntry, budget int, req exploreRequest, res *core.Result, cached bool) *exploreResponse {
	instances, tab := dse.InstanceTable(res, budget, entry.Stats.MaxMisses, req.Pareto)
	resp := &exploreResponse{
		Trace:     entry.Digest,
		K:         budget,
		MaxMisses: entry.Stats.MaxMisses,
		Instances: make([]instanceJSON, len(instances)),
		Table:     tab.Render(),
		Cached:    cached,
	}
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

// runExplore answers one exploration, serving the depth profile from the
// result cache when the same trace has been explored with the same
// MaxDepth before — the budget K only selects rows from the profile, so
// exploring at a different K is a pure cache hit.
func (s *Server) runExplore(ctx context.Context, entry *TraceEntry, budget int, req exploreRequest) (*exploreResponse, error) {
	if root := obs.CurrentSpan(ctx); root != nil {
		root.SetAttr("n", entry.Stats.N)
		root.SetAttr("n_unique", entry.Stats.NUnique)
	}
	key := exploreKey(entry.Digest, req)
	var res *core.Result
	cached := false
	lookupCtx, lookupSpan := obs.StartSpan(ctx, "lookup")
	if v, ok := s.results.Get(key); ok {
		res = v.(*core.Result)
		cached = true
	} else if v, ok := s.loadResult(lookupCtx, key); ok {
		// LRU-evicted but still on disk: promote instead of recomputing.
		res = v.(*core.Result)
		cached = true
	}
	if lookupSpan != nil {
		lookupSpan.SetAttr("hit", cached)
		lookupSpan.End()
	}
	if !cached {
		opts := core.Options{MaxDepth: req.MaxDepth, SampleRate: req.SampleRate}
		if req.Parallel {
			opts.Workers = -1
		}
		var err error
		if req.SampleRate != 0 {
			// The sampled engine needs the raw trace, not the memoized
			// prelude: its stratification plan reads per-address occurrence
			// masses and its estimate calibrates against the occurrence
			// counts a stripped prelude no longer carries.
			res, err = core.Explore(ctx, entry.Trace, opts)
		} else {
			stripped, mrct, perr := entry.Prelude(ctx)
			if perr != nil {
				return nil, perr
			}
			if root := obs.CurrentSpan(ctx); root != nil {
				root.SetAttr("dedup_hit_rate", mrct.DedupHitRate())
			}
			res, err = core.Explore(ctx, core.Prelude{Stripped: stripped, MRCT: mrct}, opts)
		}
		if err != nil {
			return nil, err
		}
		s.results.Put(key, res)
		s.persistResult(ctx, key, persistedResult{Kind: "explore", Explore: res})
	}
	_, emitSpan := obs.StartSpan(ctx, "emit")
	resp := renderExplore(entry, budget, req, res, cached)
	if emitSpan != nil {
		emitSpan.SetAttr("instances", len(resp.Instances))
		emitSpan.SetAttr("cached", cached)
		emitSpan.End()
	}
	if req.Verify {
		instances := make([]core.Instance, len(resp.Instances))
		for i, ins := range resp.Instances {
			instances[i] = core.Instance{Depth: ins.Depth, Assoc: ins.Assoc}
		}
		_, verifySpan := obs.StartSpan(ctx, "verify")
		err := dse.VerifyContext(ctx, entry.Trace, instances, budget)
		if verifySpan != nil {
			verifySpan.SetAttr("instances", len(instances))
			verifySpan.SetAttr("ok", err == nil)
			verifySpan.End()
		}
		if err != nil {
			return nil, err
		}
		resp.Verified = true
	}
	return resp, nil
}

type simulateRequest struct {
	Trace        string `json:"trace"`
	Depth        int    `json:"depth"`
	Assoc        int    `json:"assoc,omitempty"`
	LineWords    int    `json:"line_words,omitempty"`
	Repl         string `json:"repl,omitempty"`
	WriteThrough bool   `json:"write_through,omitempty"`
	Async        bool   `json:"async,omitempty"`
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

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	var req simulateRequest
	if err := decodeJSONBytes(raw, &req); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if s.proxyCompute(w, r, "simulate", req.Trace, raw) {
		return
	}
	entry, ok := s.lookupTrace(req.Trace)
	if !ok {
		httpError(w, http.StatusNotFound, codeTraceNotFound, "unknown trace %q", req.Trace)
		return
	}
	repl, err := replFromName(req.Repl)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if req.Depth < 1 || req.Depth&(req.Depth-1) != 0 {
		httpError(w, http.StatusBadRequest, codeBadRequest, "depth %d is not a power of two >= 1", req.Depth)
		return
	}
	if req.Assoc == 0 {
		req.Assoc = 1
	}
	if req.LineWords == 0 {
		req.LineWords = 1
	}
	cfg := cache.Config{
		Depth: req.Depth, Assoc: req.Assoc, LineWords: req.LineWords,
		Repl: repl, Allocate: true,
	}
	if req.WriteThrough {
		cfg.Write = cache.WriteThrough
	}
	key := fmt.Sprintf("simulate|%s|%v|wt=%v", entry.Digest, cfg, req.WriteThrough)
	s.dispatch(w, r, "simulate", entry.Digest, req.Async, func(ctx context.Context) (any, error) {
		if v, ok := s.results.Get(key); ok {
			resp := *v.(*simulateResponse)
			resp.Cached = true
			return &resp, nil
		}
		if v, ok := s.loadResult(ctx, key); ok {
			resp := *v.(*simulateResponse)
			resp.Cached = true
			return &resp, nil
		}
		_, span := obs.StartSpan(ctx, "simulate")
		res, err := cache.Simulate(cfg, entry.Trace)
		if span != nil {
			span.SetAttr("config", fmt.Sprint(cfg))
			span.End()
		}
		if err != nil {
			return nil, err
		}
		resp := &simulateResponse{
			Trace:      entry.Digest,
			Config:     fmt.Sprint(cfg),
			Accesses:   res.Accesses,
			Hits:       res.Hits,
			ColdMisses: res.ColdMisses,
			Misses:     res.Misses,
			Writebacks: res.Writebacks,
			MissRate:   res.MissRate(),
		}
		s.results.Put(key, resp)
		s.persistResult(ctx, key, persistedResult{Kind: "simulate", Simulate: resp})
		return resp, nil
	}, func() (any, bool) {
		v, ok := s.results.Get(key)
		if !ok {
			v, ok = s.loadResult(r.Context(), key)
		}
		if !ok {
			return nil, false
		}
		resp := *v.(*simulateResponse)
		resp.Cached = true
		resp.Degraded = true
		return &resp, true
	})
}

type verifyRequest struct {
	Trace     string `json:"trace"`
	K         int    `json:"k"`
	Instances []struct {
		Depth int `json:"depth"`
		Assoc int `json:"assoc"`
	} `json:"instances"`
	Async bool `json:"async,omitempty"`
}

type verifyResponse struct {
	Trace  string `json:"trace"`
	K      int    `json:"k"`
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	var req verifyRequest
	if err := decodeJSONBytes(raw, &req); err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	if s.proxyCompute(w, r, "verify", req.Trace, raw) {
		return
	}
	entry, ok := s.lookupTrace(req.Trace)
	if !ok {
		httpError(w, http.StatusNotFound, codeTraceNotFound, "unknown trace %q", req.Trace)
		return
	}
	if len(req.Instances) == 0 {
		httpError(w, http.StatusBadRequest, codeBadRequest, "verify needs at least one instance")
		return
	}
	instances := make([]core.Instance, len(req.Instances))
	for i, ins := range req.Instances {
		if ins.Depth < 1 || ins.Depth&(ins.Depth-1) != 0 || ins.Assoc < 1 {
			httpError(w, http.StatusBadRequest, codeBadRequest,
				"instance %d: depth must be a power of two >= 1 and assoc >= 1", i)
			return
		}
		instances[i] = core.Instance{Depth: ins.Depth, Assoc: ins.Assoc}
	}
	s.dispatch(w, r, "verify", entry.Digest, req.Async, func(ctx context.Context) (any, error) {
		err := dse.VerifyContext(ctx, entry.Trace, instances, req.K)
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return nil, err
		}
		resp := &verifyResponse{Trace: entry.Digest, K: req.K, OK: err == nil}
		if err != nil {
			resp.Reason = err.Error()
		}
		return resp, nil
	}, nil)
}

// dispatch runs fn through the worker pool. Async requests get 202 with
// the job's status for later polling; synchronous requests wait for the
// job (bounded by RequestTimeout and the client connection) and return
// its result inline. Either way the work itself runs on the pool, so
// compute concurrency stays bounded by the configured worker count. The
// job's trace stays retained (DELETE returns 409) from submission until
// the job reaches a terminal state, including cancelled-while-queued. The
// retain re-checks that the trace still exists under the same lock DELETE
// removes it under, closing the window where a DELETE lands between the
// handler's lookup and the retain and the job would run against (and
// re-persist results for) a trace the server already purged.
// fallback, when non-nil, is tried if the queue sheds the request: a
// degraded read that answers from cached/persisted results without pool
// work. It runs on the request goroutine and must be cheap.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind, digest string, async bool, fn func(context.Context) (any, error), fallback func() (any, bool)) {
	retained := s.active.retainIf(digest, func() bool {
		if _, ok := s.store.Get(digest); ok {
			return true
		}
		if s.persist != nil {
			// LRU-evicted but durable counts as present: lookupTrace
			// serves it, so a job may run against it too.
			if _, ok := s.persist.Stat(traceKeyPrefix + digest); ok {
				return true
			}
		}
		return false
	})
	if !retained {
		httpError(w, http.StatusNotFound, codeTraceNotFound, "unknown trace %q", digest)
		return
	}
	// Every job records its own span tree: a root "job" span wrapping fn,
	// with the engine phases (prelude, postlude, ...) nesting beneath it.
	// The recorder rides the job so GET /v1/jobs/{id}/trace can serve the
	// tree after the fact. The recorder joins the request's distributed
	// trace: it adopts the inbound trace ID (minted by the middleware or
	// honored from a traceparent hop) and the job root span parents under
	// the remote caller's span, so a cluster-forwarded job stitches under
	// the ingress node's proxy span.
	rec := obs.NewRecorder(0)
	rec.SetNode(s.nodeID)
	remote := obs.SpanContextFrom(r.Context())
	if remote.Valid() {
		rec.SetTraceID(remote.TraceID)
	}
	reqID := obs.RequestID(r.Context())
	var submitOpts []SubmitOption
	if dl, ok := r.Context().Deadline(); ok {
		// An X-Request-Deadline (or any upstream context deadline) bounds
		// the job itself, not just the handler's wait: async jobs honor it
		// too, and a queued job past its deadline fails instead of running.
		submitOpts = append(submitOpts, WithJobDeadline(dl))
	}
	job, err := s.queue.Submit(kind, func(ctx context.Context) (any, error) {
		ctx = obs.WithRecorder(ctx, rec)
		ctx = obs.WithSpanContext(ctx, remote)
		if reqID != "" {
			ctx = obs.WithRequestID(ctx, reqID)
		}
		ctx, span := obs.StartSpan(ctx, "job")
		span.SetAttr("kind", kind)
		span.SetAttr("trace", digest)
		if s.prof != nil {
			if name := s.prof.ActiveCPUProfile(); name != "" {
				// Cross-link the trace to the CPU profile sampling right
				// now: a slow span names the profile that covers it.
				span.SetAttr("cpu_profile", name)
			}
		}
		res, err := fn(ctx)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
		return res, err
	}, submitOpts...)
	if err != nil {
		s.active.release(digest)
		if errors.Is(err, ErrQueueFull) {
			s.shedTotal.With("queue_full").Inc()
			if fallback != nil {
				if v, ok := fallback(); ok {
					s.degradedReads.Inc()
					w.Header().Set("X-Degraded", "true")
					writeJSON(w, http.StatusOK, v)
					return
				}
			}
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, codeQueueFull, "%v", err)
			return
		}
		// The queue is closed (drain in progress) or otherwise refusing
		// work: this instance is going away, tell the client to go
		// elsewhere rather than retry here.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, codeUnavailable, "%v", err)
		return
	}
	job.SetRecorder(rec)
	w.Header().Set("X-Job-ID", job.ID())
	go func() {
		<-job.Done()
		s.active.release(digest)
		// Deposit the finished tree into the fragment store (the local
		// shard of cluster-wide stitching) and offer it to the slow tail.
		tr := rec.Export()
		s.frags.Add(tr)
		s.slow.Offer(job.ID(), tr)
	}()
	if async {
		writeJSON(w, http.StatusAccepted, job.Snapshot())
		return
	}
	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// Client went away: stop the worker and report the abandonment
		// (the write usually goes nowhere, but tests can observe it).
		s.queue.Cancel(job.ID())
		<-job.Done()
	case <-timer.C:
		s.queue.Cancel(job.ID())
		<-job.Done()
	}
	st := job.Snapshot()
	switch st.State {
	case JobDone:
		writeJSON(w, http.StatusOK, st.Result)
	case JobCanceled:
		// A cancellation driven by the request's own deadline is a
		// timeout, not a client disconnect.
		if errors.Is(r.Context().Err(), context.DeadlineExceeded) {
			httpError(w, http.StatusGatewayTimeout, codeDeadlineExceeded,
				"request deadline exceeded: %s", st.Error)
			return
		}
		httpError(w, httpStatusClientClosedRequest, codeCanceled, "exploration cancelled: %s", st.Error)
	default:
		if strings.Contains(st.Error, context.DeadlineExceeded.Error()) {
			httpError(w, http.StatusGatewayTimeout, codeDeadlineExceeded, "%s", st.Error)
			return
		}
		httpError(w, http.StatusInternalServerError, codeInternal, "%s", st.Error)
	}
}

// httpStatusClientClosedRequest is nginx's conventional 499 for requests
// abandoned by the client; stdlib has no constant for it.
const httpStatusClientClosedRequest = 499

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		// Job IDs carry no placement: an async job submitted through
		// another node lives wherever it was dispatched, so a local miss
		// scatters to the peers before giving up.
		if s.proxyJobMiss(w, r) {
			return
		}
		httpError(w, http.StatusNotFound, codeJobNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		if s.proxyJobMiss(w, r) {
			return
		}
		httpError(w, http.StatusNotFound, codeJobNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.queue.Cancel(job.ID())
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// handleJobTrace serves the job's full span tree in nested form. Spans
// appear as the job runs, so polling the endpoint on a running job shows
// the phases completed so far. With ?cluster=1 the response is the
// cluster-wide trace: the job's local spans merged with every node's
// fragments of the same trace ID (the ingress proxy span, co-owner
// write-through spans), stitched into one tree by parent pointers.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		if s.proxyJobMiss(w, r) {
			return
		}
		httpError(w, http.StatusNotFound, codeJobNotFound, "unknown job %q", r.PathValue("id"))
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
