package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/pkg/client"
)

// The compute pipeline: every verb runs parse → route → lookup → compute
// → emit. A verb supplies only its parse function, and the request it
// returns supplies the memo key, the compute and the render; the pipeline
// owns the cluster hop, the trace lookup, the walk of the result tiers,
// the job and the degraded read, which is the lookup stage run on the
// request goroutine.

// apiError is a stage's rejection: the HTTP status, the locked error
// code and the message of the error envelope.
type apiError struct {
	status int
	code   client.ErrorCode
	msg    string
}

func badRequest(code client.ErrorCode, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

func (e *apiError) write(w http.ResponseWriter) { httpError(w, e.status, e.code, "%s", e.msg) }

// computeRequest is what a verb's parse stage hands the pipeline.
type computeRequest interface {
	// target names the trace the request reads and whether the client
	// polls for the answer (202) instead of waiting for it.
	target() (digest string, async bool)
	// memo names where the answer is memoized: its result-cache key (""
	// when it is not memoized) and whether it is also written to disk.
	memo(digest string) (key string, durable bool)
	// compute produces the value memo's key caches (or, unmemoized, the
	// response itself) on a lookup miss.
	compute(ctx context.Context, entry *TraceEntry) (any, error)
	// render projects a computed or cached value into the response body.
	render(entry *TraceEntry, v any, cached, degraded bool) any
}

// checker is a request that may ask for its rendered answer to be
// cross-checked by simulation after emit (explore's "verify": true); ran
// reports whether it asked.
type checker interface {
	check(ctx context.Context, entry *TraceEntry, resp any) (ran bool, err error)
}

// stageBuckets are the stage histogram's bounds in seconds: a decade per
// bucket from a 10 µs LRU hit to a 10 s exploration.
var stageBuckets = []float64{.00001, .0001, .001, .01, .1, 1, 10}

// stageTimer clocks one request's pipeline stages back to back: a stage
// starts at the instant its predecessor ended, so the stages tile the
// time they cover. Ending a stage observes
// cachedse_stage_duration_seconds{verb,stage} with the request's trace ID
// as exemplar and, for a stage run inside a job, ends its span.
type stageTimer struct {
	hist    *HistogramVec
	verb    string
	traceID string
	last    time.Time
}

func (t *stageTimer) end(stage string, span *obs.Span) {
	now := time.Now()
	span.EndAt(now)
	t.hist.With(t.verb, stage).ObserveWithExemplar(now.Sub(t.last).Seconds(), t.traceID)
	t.last = now
}

// serve is the pipeline's HTTP entry point for one verb. Parse and route
// run on the request goroutine; dispatch hands the rest to a job. A body
// that decodes but fails validation parses to its request beside the
// error, which is written after route: an unknown trace outranks a bad
// field, the precedence clients have always seen.
func (s *Server) serve(verb string, parse func(body []byte, query url.Values) (computeRequest, *apiError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := stageTimer{
			hist:    s.stageLatency,
			verb:    verb,
			traceID: obs.SpanContextFrom(r.Context()).TraceID.String(),
			last:    time.Now(),
		}
		var req computeRequest
		var perr *apiError
		raw, err := readBody(r)
		if err != nil {
			perr = badRequest(client.ErrBadRequest, "%v", err)
		} else {
			req, perr = parse(raw, r.URL.Query())
		}
		t.end("parse", nil)
		if req == nil {
			perr.write(w)
			return
		}
		digest, async := req.target()
		if s.proxyCompute(w, r, verb, digest, raw) {
			t.end("route", nil)
			return
		}
		entry, ok := s.lookupTrace(digest)
		t.end("route", nil)
		switch {
		case !ok:
			httpError(w, http.StatusNotFound, client.ErrTraceNotFound, "unknown trace %q", digest)
		case perr != nil:
			perr.write(w)
		default:
			s.dispatch(w, r, t, req, entry, async)
		}
	}
}

// lookup is the pipeline's lookup stage: the result LRU, then — for a
// durable answer — the persistent store, whose hit is promoted back into
// the LRU. An unmemoized request (empty key) has no lookup stage.
func (s *Server) lookup(ctx context.Context, t *stageTimer, key string, durable bool) (any, bool) {
	if key == "" {
		return nil, false
	}
	ctx, span := obs.StartSpanAt(ctx, "lookup", t.last)
	v, ok := s.results.Get(key)
	if !ok && durable {
		var err error
		if v, err = s.loadResult(ctx, key); err == nil {
			ok = true
			s.memoize(ctx, key, v, false)
		}
	}
	span.SetAttr("hit", ok)
	t.end("lookup", span)
	return v, ok
}

// memoize files a value in the result LRU and, when write is set, through
// to disk under the same key.
func (s *Server) memoize(ctx context.Context, key string, v any, write bool) {
	s.results.Put(key, v)
	if write {
		s.persistResult(ctx, key, v)
	}
}

// emit is the pipeline's emit stage: the request renders the value.
func (s *Server) emit(ctx context.Context, t *stageTimer, req computeRequest, entry *TraceEntry, v any, cached, degraded bool) any {
	_, span := obs.StartSpanAt(ctx, "emit", t.last)
	resp := req.render(entry, v, cached, degraded)
	span.SetAttr("cached", cached)
	t.end("emit", span)
	return resp
}

// answer runs a job's stages: lookup, compute on a miss (memoizing what
// it computed under a "memoize" span), emit, and the cross-check the
// request may ask for.
func (s *Server) answer(ctx context.Context, t *stageTimer, req computeRequest, entry *TraceEntry) (any, error) {
	key, durable := req.memo(entry.Digest)
	v, cached := s.lookup(ctx, t, key, durable)
	if !cached {
		var err error
		v, err = req.compute(ctx, entry)
		// Filing the answer ends the compute stage: an LRU insert and, for
		// a durable answer, its encoding and store write. Its span keeps
		// that time inside the job's phases.
		var span *obs.Span
		if err == nil && key != "" {
			var mctx context.Context
			mctx, span = obs.StartSpan(ctx, "memoize")
			s.memoize(mctx, key, v, durable)
		}
		t.end("compute", span)
		if err != nil {
			return nil, err
		}
	}
	resp := s.emit(ctx, t, req, entry, v, cached, false)
	if c, ok := req.(checker); ok {
		ran, err := c.check(ctx, entry, resp)
		if ran {
			t.end("verify", nil)
		}
		if err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// dispatch runs the job stages through the worker pool. Async requests
// get 202 with the job's status for later polling; synchronous requests
// wait for the job (bounded by RequestTimeout and the client connection)
// and return its result inline, so compute concurrency stays bounded by
// the worker count. The job's trace stays retained (DELETE returns 409)
// from submission until the job is terminal, including
// cancelled-while-queued; the retain re-checks under DELETE's lock that
// the trace still exists, so no job runs against (and re-persists results
// for) a trace purged since route. When the queue sheds the request,
// lookup and emit run on the request goroutine instead: a degraded read
// from cached or persisted results.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, t stageTimer, req computeRequest, entry *TraceEntry, async bool) {
	digest := entry.Digest
	retained := s.active.retainIf(digest, func() bool {
		_, ok := s.store.Get(digest)
		if !ok && s.persist != nil {
			// LRU-evicted but durable counts as present: lookupTrace
			// serves it, so a job may run against it too.
			_, ok = s.persist.Stat(traceKeyPrefix + digest)
		}
		return ok
	})
	if !retained {
		httpError(w, http.StatusNotFound, client.ErrTraceNotFound, "unknown trace %q", digest)
		return
	}
	// Every job records its own span tree: a root "job" span whose
	// children are the stages, with the engine phases (prelude, postlude,
	// ...) nesting beneath them. The recorder rides the job so GET
	// /v1/jobs/{id}/trace can serve the tree after the fact. The recorder
	// joins the request's distributed trace: it adopts the inbound trace
	// ID (minted by the middleware or honored from a traceparent hop) and
	// the job root span parents under the remote caller's span, so a
	// cluster-forwarded job stitches under the ingress node's proxy span.
	remote := obs.SpanContextFrom(r.Context())
	rec := s.newRecorder(remote)
	reqID := obs.RequestID(r.Context())
	var submitOpts []SubmitOption
	if dl, ok := r.Context().Deadline(); ok {
		// An X-Request-Deadline (or any upstream context deadline) bounds
		// the job itself, not just the handler's wait: async jobs honor it
		// too, and a queued job past its deadline fails instead of running.
		submitOpts = append(submitOpts, WithJobDeadline(dl))
	}
	kind := t.verb
	job, err := s.queue.Submit(kind, func(ctx context.Context) (any, error) {
		ctx = obs.WithRecorder(ctx, rec)
		ctx = obs.WithSpanContext(ctx, remote)
		if reqID != "" {
			ctx = obs.WithRequestID(ctx, reqID)
		}
		ctx, span := obs.StartSpan(ctx, "job")
		span.SetAttr("kind", kind)
		span.SetAttr("trace", digest)
		span.SetAttr("n", entry.Stats.N)
		span.SetAttr("n_unique", entry.Stats.NUnique)
		if s.prof != nil {
			if name := s.prof.ActiveCPUProfile(); name != "" {
				// Cross-link the trace to the CPU profile sampling right
				// now: a slow span names the profile that covers it.
				span.SetAttr("cpu_profile", name)
			}
		}
		// The job's stages tile its span: the first starts with the job
		// and the job ends with the last.
		jt := t
		jt.last = span.Start()
		res, err := s.answer(ctx, &jt, req, entry)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.EndAt(jt.last)
		return res, err
	}, submitOpts...)
	if err != nil {
		s.active.release(digest)
		if errors.Is(err, ErrQueueFull) {
			s.shedTotal.With("queue_full").Inc()
			key, durable := req.memo(digest)
			if v, ok := s.lookup(r.Context(), &t, key, durable); ok {
				s.degradedReads.Inc()
				w.Header().Set("X-Degraded", "true")
				writeJSON(w, http.StatusOK, s.emit(r.Context(), &t, req, entry, v, true, true))
				return
			}
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, client.ErrQueueFull, "%v", err)
			return
		}
		// The queue is closed (drain in progress) or otherwise refusing
		// work: this instance is going away, tell the client to go
		// elsewhere rather than retry here.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, client.ErrUnavailable, "%v", err)
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
			httpError(w, http.StatusGatewayTimeout, client.ErrDeadlineExceeded,
				"request deadline exceeded: %s", st.Error)
			return
		}
		httpError(w, httpStatusClientClosedRequest, client.ErrCanceled, "exploration cancelled: %s", st.Error)
	default:
		if strings.Contains(st.Error, context.DeadlineExceeded.Error()) {
			httpError(w, http.StatusGatewayTimeout, client.ErrDeadlineExceeded, "%s", st.Error)
			return
		}
		httpError(w, http.StatusInternalServerError, client.ErrInternal, "%s", st.Error)
	}
}

// httpStatusClientClosedRequest is nginx's conventional 499 for requests
// abandoned by the client; stdlib has no constant for it.
const httpStatusClientClosedRequest = 499
