package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/obs/profiler"
	"github.com/example/cachedse/internal/sampling"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// infoOf is the wire view of a stored trace.
func infoOf(e *TraceEntry) client.TraceInfo {
	return client.TraceInfo{
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
		httpError(w, http.StatusRequestEntityTooLarge, client.ErrPayloadTooLarge, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, client.ErrBadRequest, "%v", err)
		return
	}
	if tr.Len() == 0 {
		httpError(w, http.StatusBadRequest, client.ErrBadRequest, "empty trace")
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
			httpError(w, http.StatusBadRequest, client.ErrBadRequest, "limit %q must be a positive integer", raw)
			return
		}
		limit = min(n, listTracesMaxLimit)
	}
	kind := q.Get("kind")
	switch kind {
	case "", "instr", "data", "mixed":
	default:
		httpError(w, http.StatusBadRequest, client.ErrBadRequest,
			`kind %q must be "instr", "data" or "mixed"`, kind)
		return
	}
	cursor := q.Get("cursor")

	entries := s.store.List()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Digest < entries[j].Digest })
	page := client.TracePage{Traces: make([]client.TraceInfo, 0, limit)}
	for _, e := range entries {
		if cursor != "" && e.Digest <= cursor {
			continue
		}
		if kind != "" && e.Kind != kind {
			continue
		}
		if len(page.Traces) == limit {
			// One past the page: tell the client where to resume.
			page.NextCursor = page.Traces[limit-1].Digest
			break
		}
		page.Traces = append(page.Traces, infoOf(e))
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	if s.proxyCompute(w, r, "traces_get", r.PathValue("digest"), nil) {
		return
	}
	entry, ok := s.lookupTrace(r.PathValue("digest"))
	if !ok {
		httpError(w, http.StatusNotFound, client.ErrTraceNotFound, "unknown trace %q", r.PathValue("digest"))
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
		httpError(w, http.StatusConflict, client.ErrTraceBusy,
			"trace %q is referenced by a queued or running job; retry when it finishes", digest)
	case unreachable > 0:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, client.ErrUnavailable,
			"%d owner(s) of trace %q unreachable; replica may survive, retry the delete", unreachable, digest)
	case removed:
		writeJSON(w, http.StatusOK, map[string]string{"deleted": digest})
	default:
		httpError(w, http.StatusNotFound, client.ErrTraceNotFound, "unknown trace %q", digest)
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

// exploreRequest is the explore verb's body: the v1 wire request and the
// server-side async flag. Async stays off client.ExploreRequest so
// Client.Explore never decodes a 202 job status as an answer.
type exploreRequest struct {
	client.ExploreRequest
	Async bool `json:"async,omitempty"`
}

func (r *exploreRequest) target() (string, bool) { return r.Trace, r.Async }

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
func (r *exploreRequest) response(entry *TraceEntry, cached, degraded bool) *client.ExploreResponse {
	budget, _ := r.budget(entry.Stats.MaxMisses)
	return &client.ExploreResponse{Trace: entry.Digest, K: budget, MaxMisses: entry.Stats.MaxMisses, Cached: cached, Degraded: degraded}
}

// parseExplore is the explore verb's parse stage. A space block makes
// the request a design-space exploration (spaceQuery); otherwise it asks
// for the budget-K view of the trace's depth profile (exploreQuery).
func parseExplore(body []byte, query url.Values) (computeRequest, *apiError) {
	q := &exploreQuery{}
	if err := decodeJSONBytes(body, &q.exploreRequest); err != nil {
		return nil, badRequest(client.ErrBadRequest, "%v", err)
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
			return q, badRequest(client.ErrBadRequest, `explore needs "k" or "kpct"`)
		}
	}
	if q.MaxDepth != 0 && (q.MaxDepth < 1 || q.MaxDepth&(q.MaxDepth-1) != 0) {
		return q, badRequest(client.ErrBadRequest, "max_depth %d is not a power of two >= 1", q.MaxDepth)
	}
	// ?sample= overrides the body's sample_rate (the curl-friendly form).
	if raw := query.Get("sample"); raw != "" {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return q, badRequest(client.ErrInvalidSampleRate, "sample %q is not a number", raw)
		}
		q.SampleRate = f
	}
	if q.SampleRate != 0 {
		if err := (sampling.Config{Rate: q.SampleRate}).Validate(); err != nil {
			return q, badRequest(client.ErrInvalidSampleRate, "%v", err)
		}
		if q.Verify {
			return q, badRequest(client.ErrBadRequest,
				"verify needs exact miss counts; drop sample_rate or verify the chosen instances separately")
		}
	}
	if space == nil {
		return q, nil
	}
	if q.SampleRate != 0 {
		return q, badRequest(client.ErrBadRequest, "a space exploration is exact end to end; drop sample_rate")
	}
	if q.Verify {
		return q, badRequest(client.ErrBadRequest,
			"a space exploration has no budget to verify against; simulate chosen points instead")
	}
	return &spaceQuery{exploreRequest: q.exploreRequest, space: *space}, nil
}

// exploreQuery asks for the instances that meet a miss budget. The answer
// memoizes the trace's depth profile, not the instance list: K only
// selects rows of the profile, so exploring at a different K is a cache
// hit.
type exploreQuery struct{ exploreRequest }

// memo keys one depth profile. A sampled request keeps its own key per
// rate, spelled "|rate=": its profile carries a sample summary the exact
// one does not. The spelling also retires every "|sample=" key an older
// server persisted, whose profiles may be approximate, so warm start
// never serves one.
func (q *exploreQuery) memo(digest string) (string, bool) {
	key := fmt.Sprintf("explore|%s|d=%d", digest, q.MaxDepth)
	if q.SampleRate != 0 {
		key = fmt.Sprintf("%s|rate=%g", key, q.SampleRate)
	}
	return key, true
}

// compute explores the trace's memoized prelude. A sampled request runs
// the same exact exploration: core.Explore answers an in-memory source
// exactly and attaches the degenerate rate-1 estimate.
func (q *exploreQuery) compute(ctx context.Context, entry *TraceEntry) (any, error) {
	opts := core.Options{MaxDepth: q.MaxDepth, SampleRate: q.SampleRate}
	stripped, mrct, err := entry.Prelude(ctx)
	if err != nil {
		return nil, err
	}
	obs.CurrentSpan(ctx).SetAttr("dedup_hit_rate", mrct.DedupHitRate())
	return core.Explore(ctx, core.Prelude{Stripped: stripped, MRCT: mrct}, opts)
}

// render projects a depth profile into the budget-K response rows.
// Sampled profiles additionally carry the estimate summary.
func (q *exploreQuery) render(entry *TraceEntry, v any, cached, degraded bool) any {
	res := v.(*core.Result)
	resp := q.response(entry, cached, degraded)
	instances, tab := dse.InstanceTable(res, resp.K, resp.MaxMisses, q.Pareto)
	resp.Instances = make([]client.Instance, len(instances))
	resp.Table = tab.Render()
	for i, ins := range instances {
		resp.Instances[i] = client.Instance{
			Depth:     ins.Depth,
			Assoc:     ins.Assoc,
			SizeWords: ins.SizeWords(),
			Misses:    res.Level(ins.Depth).Misses(ins.Assoc),
		}
	}
	if est := res.Sample; est != nil {
		resp.Sample = &client.SampleInfo{
			Mode:          est.Mode,
			RequestedRate: est.RequestedRate,
			EffectiveRate: est.EffectiveRate,
			Confidence:    0.95, // the v1 field's constant value
			KeptRefs:      est.KeptRefs,
			DroppedRefs:   est.DroppedRefs,
			Exact:         est.Exact(),
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
	resp := v.(*client.ExploreResponse)
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
	err := dse.Verify(ctx, entry.Trace, instances, k)
	span.SetAttr("instances", len(instances))
	span.SetAttr("ok", err == nil)
	span.End()
	return err
}

// simulateRequest asks for one configuration's simulated hit/miss
// counts; cfg is its geometry as cache.Simulate takes it.
type simulateRequest struct {
	client.SimulateRequest
	Async bool `json:"async,omitempty"`
	cfg   cache.Config
}

func (q *simulateRequest) target() (string, bool) { return q.Trace, q.Async }

// parseSimulate is the simulate verb's parse stage: the body's geometry
// becomes a cache.Config that cache.Simulate accepts.
func parseSimulate(body []byte, _ url.Values) (computeRequest, *apiError) {
	q := &simulateRequest{}
	if err := decodeJSONBytes(body, q); err != nil {
		return nil, badRequest(client.ErrBadRequest, "%v", err)
	}
	// The policy names are a design space's: one parser for both verbs.
	policy, err := core.ParsePolicy(q.Repl)
	if err != nil {
		return q, badRequest(client.ErrBadRequest, "%v", err)
	}
	q.cfg = cache.Config{Depth: q.Depth, Assoc: q.Assoc, LineWords: q.LineWords, Repl: dse.ReplOf(policy), Allocate: true}
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
		return q, badRequest(client.ErrBadRequest, "%v", err)
	}
	if !within(q.cfg.Depth, q.cfg.Assoc, maxCacheLines) {
		return q, badRequest(client.ErrBadRequest, "depth %d x assoc %d exceeds %d cache lines", q.cfg.Depth, q.cfg.Assoc, maxCacheLines)
	}
	return q, nil
}

// The parse stages bound what a request may have a job allocate: a
// simulated cache holds depth·assoc lines, and a policy sweep of one
// space level holds max_depth·A(A+1)/2 ways for max_assoc A, at most
// dse.MaxSweepWays, which also bounds the space job's sweepers together.
const maxCacheLines = 1 << 22

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
	return &client.SimulateResponse{
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
	resp := *v.(*client.SimulateResponse)
	resp.Cached, resp.Degraded = cached, degraded
	return &resp
}

// verifyRequest asks whether every listed instance meets the budget under
// simulation; instances are the wire's, checked and converted at parse.
// The answer is not memoized.
type verifyRequest struct {
	client.VerifyRequest
	Async     bool `json:"async,omitempty"`
	instances []core.Instance
}

func (q *verifyRequest) target() (string, bool) { return q.Trace, q.Async }

// parseVerify is the verify verb's parse stage.
func parseVerify(body []byte, _ url.Values) (computeRequest, *apiError) {
	q := &verifyRequest{}
	if err := decodeJSONBytes(body, q); err != nil {
		return nil, badRequest(client.ErrBadRequest, "%v", err)
	}
	if len(q.Instances) == 0 {
		return q, badRequest(client.ErrBadRequest, "verify needs at least one instance")
	}
	for i, ins := range q.Instances {
		if ins.Depth < 1 || ins.Depth&(ins.Depth-1) != 0 || ins.Assoc < 1 {
			return q, badRequest(client.ErrBadRequest,
				"instance %d: depth must be a power of two >= 1 and assoc >= 1", i)
		}
		if !within(ins.Depth, ins.Assoc, maxCacheLines) {
			return q, badRequest(client.ErrBadRequest,
				"instance %d: depth %d x assoc %d exceeds %d cache lines", i, ins.Depth, ins.Assoc, maxCacheLines)
		}
		q.instances = append(q.instances, core.Instance{Depth: ins.Depth, Assoc: ins.Assoc})
	}
	return q, nil
}

func (q *verifyRequest) memo(string) (string, bool) { return "", false }

// compute answers a budget miss as ok=false with the reason; only a
// cancelled or timed-out verification fails the job.
func (q *verifyRequest) compute(ctx context.Context, entry *TraceEntry) (any, error) {
	err := verifyInstances(ctx, entry, q.instances, q.K)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return nil, err
	}
	resp := &client.VerifyResponse{Trace: entry.Digest, K: q.K, OK: err == nil}
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
		httpError(w, http.StatusNotFound, client.ErrJobNotFound, "unknown job %q", r.PathValue("id"))
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
		httpError(w, http.StatusNotFound, client.ErrJobNotFound, "job %q has no trace recorded", job.ID())
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
		httpError(w, http.StatusBadRequest, client.ErrBadRequest, "missing ?trace_id=")
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
			httpError(w, http.StatusInternalServerError, client.ErrInternal, "%v", err)
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
		httpError(w, http.StatusNotFound, client.ErrJobNotFound, "continuous profiler is not enabled (-profile-dir)")
		return
	}
	rc, err := s.prof.Open(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, client.ErrJobNotFound, "no profile %q", r.PathValue("name"))
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
