// Package server turns the analytical explorer into a long-lived HTTP
// service: clients upload traces once, then issue stats / explore /
// simulate / verify queries against them. Explorations run through a
// bounded worker pool fed by an async job queue (submit → poll → fetch),
// per-trace prelude work (strip + MRCT) is memoized, and exploration
// results are memoized in a sharded LRU keyed by trace digest + options,
// so answering the same trace at a different budget K is a cache hit.
// Cancellation flows from the HTTP request down into the exploration
// loops, and /metrics exposes request, latency, queue and cache counters
// in the Prometheus text format — all stdlib only.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/example/cachedse/internal/cluster"
	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/obs/profiler"
	"github.com/example/cachedse/internal/tracestore"
	"github.com/example/cachedse/pkg/client"
)

// Config tunes the service. The zero value gets sensible defaults from
// withDefaults.
type Config struct {
	// MaxUploadBytes caps a trace upload's size; oversized uploads get 413.
	MaxUploadBytes int64
	// MaxRefs caps the number of references in one uploaded trace.
	MaxRefs int
	// Workers is the exploration worker pool size; <= 0 uses GOMAXPROCS.
	Workers int
	// QueueDepth bounds the job backlog; a full queue returns 503.
	QueueDepth int
	// CacheEntries bounds the exploration result cache.
	CacheEntries int
	// MaxTraces bounds the uploaded-trace store (LRU eviction).
	MaxTraces int
	// JobTimeout bounds one job's run time; 0 means no timeout.
	JobTimeout time.Duration
	// RequestTimeout bounds a synchronous request's wait for its job.
	RequestTimeout time.Duration
	// StoreDir, when non-empty, persists uploaded traces and memoized
	// results to a content-addressed store rooted there, surviving
	// restarts. Empty keeps the server purely in-memory.
	StoreDir string
	// EndpointInflight caps concurrently executing requests per compute
	// endpoint (explore / simulate / verify / traces_upload). Excess
	// requests are shed with 429 and a Retry-After hint instead of piling
	// onto the queue. <= 0 derives a cap from the worker pool.
	EndpointInflight int
	// Logger receives structured server events; every record carries the
	// request and job IDs found in its context. Nil logs text to stderr.
	Logger *slog.Logger
	// Cluster, when its NodeID is set, joins this server to a static
	// multi-node topology: traces are placed on their rendezvous-hash
	// owner replicas, non-owner nodes proxy requests to an owner, and
	// lost or corrupted replicas heal from the co-owner on first read.
	// The zero value keeps the server single-node.
	Cluster cluster.Config
	// ProfileDir, when non-empty, turns on the continuous profiler: CPU
	// and heap pprof snapshots captured on a jittered interval into a
	// bounded ring there, listed and served by /v1/debug/profiles.
	ProfileDir string
	// ProfileInterval is the mean time between profile captures (only
	// meaningful with ProfileDir set; <= 0 uses the profiler's default).
	ProfileInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxRefs <= 0 {
		c.MaxRefs = 16 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxTraces <= 0 {
		c.MaxTraces = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = time.Minute
	}
	if c.EndpointInflight <= 0 {
		// Enough headroom that a full queue, not the gate, is the usual
		// shedding signal; the gate exists to bound per-endpoint pile-up
		// of synchronous waiters.
		c.EndpointInflight = 2 * (c.Workers + c.QueueDepth)
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(os.Stderr, "text", slog.LevelInfo)
	}
	return c
}

// Server is the cache-DSE exploration service.
type Server struct {
	cfg     Config
	store   *TraceStore
	results *lru[any]
	queue   *Queue
	reg     *Registry
	mux     *http.ServeMux
	persist *tracestore.Store // nil when StoreDir is unset
	active  *activeTraces
	gates   map[string]chan struct{} // per-endpoint admission gates
	peers   *cluster.Peers           // nil when clustering is off
	// frags holds this node's finished span fragments by trace ID, the
	// local shard of cluster-wide trace stitching; slow keeps the N
	// slowest finished trees per window; prof is the continuous profiler
	// (nil unless ProfileDir is set).
	frags *obs.FragmentStore
	slow  *obs.SlowTail
	prof  *profiler.Profiler
	// nodeID names this node in span records ("single" off-cluster).
	nodeID string

	reqTotal      *CounterVec
	latency       *HistogramVec
	stageLatency  *HistogramVec
	shedTotal     *CounterVec
	degradedReads *Counter
	proxied       *CounterVec
	// memRepairs counts trace replicas healed from a peer without a
	// persistent store to ride (the tracestore counts its own repairs).
	memRepairs atomic.Int64
}

// New builds a Server ready to serve via Handler. With Config.StoreDir set
// it opens (repairing if needed) the persistent store there and reloads
// surviving traces and results before taking traffic; the only error New
// can return is a store that cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   NewTraceStore(cfg.MaxTraces),
		results: newLRU[any](cfg.CacheEntries),
		queue:   NewQueue(cfg.Workers, cfg.QueueDepth, cfg.JobTimeout, 4*cfg.QueueDepth),
		reg:     NewRegistry(),
		mux:     http.NewServeMux(),
		active:  newActiveTraces(),
		gates:   make(map[string]chan struct{}),
		frags:   obs.NewFragmentStore(0),
		slow:    obs.NewSlowTail(0, 0),
		nodeID:  "single",
	}
	if cfg.Cluster.NodeID != "" {
		s.nodeID = cfg.Cluster.NodeID
	}
	if cfg.ProfileDir != "" {
		p, err := profiler.New(profiler.Config{
			Dir:      cfg.ProfileDir,
			Interval: cfg.ProfileInterval,
			Logger:   cfg.Logger,
		})
		if err != nil {
			return nil, err
		}
		s.prof = p
		s.prof.Start()
	}
	for _, ep := range []string{"explore", "simulate", "verify", "traces_upload"} {
		s.gates[ep] = make(chan struct{}, cfg.EndpointInflight)
	}
	if cfg.StoreDir != "" {
		st, err := tracestore.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		s.persist = st
	}
	peers, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	s.peers = peers
	if s.peers != nil && s.persist != nil {
		// Install read-repair before warm start, so a node rebooting with
		// a corrupted or missing object heals it from the co-owner while
		// reloading rather than dropping it.
		s.persist.SetFallback(s.clusterFallback)
	}
	s.warmStart()
	s.registerMetrics()
	s.routes()
	return s, nil
}

func (s *Server) registerMetrics() {
	s.reqTotal = s.reg.CounterVec("cachedse_requests_total",
		"HTTP requests served, by endpoint and status code.", "endpoint", "code")
	s.latency = s.reg.HistogramVec("cachedse_request_duration_seconds",
		"HTTP request latency in seconds, by endpoint.", nil, "endpoint")
	s.stageLatency = s.reg.HistogramVec("cachedse_stage_duration_seconds",
		"Compute pipeline stage latency in seconds, by verb and stage (parse, route, lookup, compute, emit, verify).",
		stageBuckets, "verb", "stage")
	s.reg.CounterFunc("cachedse_result_cache_hits_total",
		"Exploration result cache hits.", func() float64 {
			h, _, _ := s.results.Stats()
			return float64(h)
		})
	s.reg.CounterFunc("cachedse_result_cache_misses_total",
		"Exploration result cache misses.", func() float64 {
			_, m, _ := s.results.Stats()
			return float64(m)
		})
	s.reg.CounterFunc("cachedse_result_cache_evictions_total",
		"Exploration result cache evictions.", func() float64 {
			_, _, e := s.results.Stats()
			return float64(e)
		})
	s.reg.GaugeFunc("cachedse_job_queue_depth",
		"Jobs waiting in the backlog.", func() float64 { return float64(s.queue.Depth()) })
	s.reg.GaugeFunc("cachedse_jobs_running",
		"Jobs currently executing.", func() float64 { return float64(s.queue.Running()) })
	s.reg.CounterFunc("cachedse_jobs_done_total",
		"Jobs finished successfully.", func() float64 { return float64(s.queue.Finished(JobDone)) })
	s.reg.CounterFunc("cachedse_jobs_failed_total",
		"Jobs finished in error.", func() float64 { return float64(s.queue.Finished(JobFailed)) })
	s.reg.CounterFunc("cachedse_jobs_canceled_total",
		"Jobs cancelled before completing.", func() float64 { return float64(s.queue.Finished(JobCanceled)) })
	s.reg.GaugeFunc("cachedse_traces_stored",
		"Uploaded traces currently retained.", func() float64 { return float64(s.store.Len()) })
	s.reg.GaugeFunc("cachedse_result_cache_entries",
		"Exploration results currently cached.", func() float64 { return float64(s.results.Len()) })
	s.shedTotal = s.reg.CounterVec("cachedse_shed_total",
		"Requests shed by admission control, by reason (gate, queue_full, deadline).", "reason")
	s.degradedReads = s.reg.Counter("cachedse_degraded_reads_total",
		"Requests answered from cached/persisted results because the pool was saturated.")
	s.reg.CounterFunc("cachedse_obs_spans_dropped_total",
		"Spans dropped by bounded recorders and fragment stores process-wide.", func() float64 {
			return float64(obs.DroppedTotal())
		})
	s.reg.CounterFunc("cachedse_faults_injected_total",
		"Faults fired by the failpoint registry (0 unless fault injection is armed).", func() float64 {
			return float64(faultinject.TotalFires())
		})
	s.reg.GaugeFunc("cachedse_persisted_entries",
		"Keys held by the persistent store (0 when persistence is off).", func() float64 {
			if s.persist == nil {
				return 0
			}
			return float64(s.persist.Len())
		})
	s.proxied = s.reg.CounterVec("cachedse_cluster_proxied_total",
		"Requests forwarded to a peer node, by verb (0 unless clustering is on).", "verb")
	s.reg.CounterFunc("cachedse_cluster_read_repairs_total",
		"Trace replicas healed from a peer after a local miss or digest mismatch.", func() float64 {
			n := s.memRepairs.Load()
			if s.persist != nil {
				n += s.persist.Repairs()
			}
			return float64(n)
		})
	s.reg.GaugeFunc("cachedse_cluster_peer_unhealthy",
		"Peers this node currently considers unreachable.", func() float64 {
			if s.peers == nil {
				return 0
			}
			return float64(s.peers.Health().Unhealthy())
		})
}

func (s *Server) routes() {
	s.mux.Handle("POST /v1/traces", s.instrument("traces_upload", s.handleUpload))
	s.mux.Handle("GET /v1/traces", s.instrument("traces_list", s.handleListTraces))
	s.mux.Handle("GET /v1/traces/{digest}", s.instrument("traces_get", s.handleGetTrace))
	s.mux.Handle("DELETE /v1/traces/{digest}", s.instrument("traces_delete", s.handleDeleteTrace))
	s.mux.Handle("POST /v1/explore", s.instrument("explore", s.serve("explore", parseExplore)))
	s.mux.Handle("POST /v1/simulate", s.instrument("simulate", s.serve("simulate", parseSimulate)))
	s.mux.Handle("POST /v1/verify", s.instrument("verify", s.serve("verify", parseVerify)))
	s.mux.Handle("GET /v1/jobs/{id}", s.instrument("jobs_get", s.handleGetJob))
	s.mux.Handle("GET /v1/jobs/{id}/trace", s.instrument("jobs_trace", s.handleJobTrace))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.instrument("jobs_cancel", s.handleCancelJob))
	s.mux.Handle("GET /v1/cluster", s.instrument("cluster", s.handleCluster))
	s.mux.Handle("GET /v1/cluster/objects", s.instrument("cluster_objects", s.handleClusterObject))
	s.mux.Handle("GET /v1/cluster/spans", s.instrument("cluster_spans", s.handleClusterSpans))
	s.mux.Handle("GET /v1/debug/slow", s.instrument("debug_slow", s.handleDebugSlow))
	s.mux.Handle("GET /v1/debug/profiles", s.instrument("debug_profiles", s.handleDebugProfiles))
	s.mux.Handle("GET /v1/debug/profiles/{name}", s.instrument("debug_profiles", s.handleDebugProfile))
	s.mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	// Probes get counted under their own endpoint labels but skip the
	// latency histogram and the request log: a 1 s kubelet poll would
	// otherwise dominate both with noise.
	s.mux.Handle("GET /healthz", s.instrumentProbe("healthz", s.handleHealthz))
	s.mux.Handle("GET /readyz", s.instrumentProbe("readyz", s.handleReadyz))
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metric registry (for embedding callers).
func (s *Server) Metrics() *Registry { return s.reg }

// Close drains the job queue and flushes in-flight jobs; past ctx's
// deadline running jobs are cancelled instead, and each force-cancelled
// job is logged with its ID and elapsed runtime.
func (s *Server) Close(ctx context.Context) error {
	if s.prof != nil {
		s.prof.Stop()
	}
	err := s.queue.Shutdown(ctx)
	for _, f := range s.queue.ForceCanceled() {
		s.cfg.Logger.Warn("job force-cancelled at drain deadline",
			"job_id", f.ID, "kind", f.Kind, "elapsed", f.Elapsed.String())
	}
	return err
}

// statusWriter records the status code written to a response.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// requestDeadline parses the X-Request-Deadline header: either a Go
// duration ("2s", "150ms") relative to now, or an absolute RFC 3339
// timestamp. The zero time means no deadline was requested.
func requestDeadline(r *http.Request, now time.Time) (time.Time, error) {
	raw := r.Header.Get("X-Request-Deadline")
	if raw == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(raw); err == nil {
		if d <= 0 {
			return time.Time{}, fmt.Errorf("deadline %q is not positive", raw)
		}
		return now.Add(d), nil
	}
	if t, err := time.Parse(time.RFC3339Nano, raw); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("X-Request-Deadline %q is neither a duration nor RFC 3339", raw)
}

// instrument wraps a handler with panic recovery, a request counter, a
// latency histogram, request-ID and trace-context propagation, deadline
// propagation, per-endpoint admission and a structured access log. An
// inbound X-Request-ID is honored (so traces correlate across a proxy);
// otherwise one is minted. Either way it is echoed in the response header
// and carried in the request context, where the logger picks it up.
// Likewise a W3C traceparent header: honored when parseable (the request
// joins the caller's distributed trace), minted fresh otherwise, echoed
// as X-Trace-ID, and observed as the latency histogram's exemplar. An
// X-Request-Deadline header (duration or RFC 3339) becomes the request
// context's deadline, flowing into the job the handler submits.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewID()
		}
		w.Header().Set("X-Request-ID", reqID)
		sc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			sc = obs.SpanContext{TraceID: obs.NewTraceID()}
		}
		w.Header().Set("X-Trace-ID", sc.TraceID.String())
		ctx := obs.WithRequestID(r.Context(), reqID)
		ctx = obs.WithSpanContext(ctx, sc)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		logAndCount := func() {
			if p := recover(); p != nil {
				s.cfg.Logger.ErrorContext(ctx, "panic in handler",
					"endpoint", endpoint, "panic", fmt.Sprint(p))
				httpError(sw, http.StatusInternalServerError, client.ErrInternal, "internal error")
			}
			elapsed := time.Since(start)
			s.reqTotal.With(endpoint, fmt.Sprintf("%d", sw.code)).Inc()
			s.latency.With(endpoint).ObserveWithExemplar(elapsed.Seconds(), sc.TraceID.String())
			s.cfg.Logger.InfoContext(ctx, "request",
				"endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
				"code", sw.code, "duration", elapsed.String())
		}
		defer logAndCount()
		deadline, err := requestDeadline(r, start)
		if err != nil {
			httpError(sw, http.StatusBadRequest, client.ErrBadRequest, "%v", err)
			return
		}
		if !deadline.IsZero() {
			if !deadline.After(start) {
				s.shedTotal.With("deadline").Inc()
				httpError(sw, http.StatusGatewayTimeout, client.ErrDeadlineExceeded,
					"request deadline already passed")
				return
			}
			dctx, cancel := context.WithDeadline(ctx, deadline)
			defer cancel()
			ctx = dctx
		}
		// Per-endpoint admission: a gate slot is held for the request's
		// duration; when the endpoint is saturated the request is shed
		// immediately with a retry hint rather than queued.
		if gate, ok := s.gates[endpoint]; ok {
			select {
			case gate <- struct{}{}:
				defer func() { <-gate }()
			default:
				s.shedTotal.With("gate").Inc()
				sw.Header().Set("Retry-After", "1")
				httpError(sw, http.StatusTooManyRequests, client.ErrOverloaded,
					"endpoint %q is at its concurrency limit; retry shortly", endpoint)
				return
			}
		}
		h(sw, r.WithContext(ctx))
	})
}

// instrumentProbe wraps a liveness/readiness handler: requests count into
// the request counter under the probe's own endpoint label, but stay out
// of the latency histogram and the access log.
func (s *Server) instrumentProbe(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				httpError(sw, http.StatusInternalServerError, client.ErrInternal, "internal error")
			}
			s.reqTotal.With(endpoint, fmt.Sprintf("%d", sw.code)).Inc()
		}()
		h(sw, r)
	})
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// readBody buffers a small JSON request body so it can be both decoded
// locally and replayed verbatim across a cluster hop.
func readBody(r *http.Request) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	return data, nil
}

// decodeJSONBytes strictly parses a buffered JSON request body into v.
func decodeJSONBytes(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}
