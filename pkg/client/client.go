// Package client is the Go SDK for the cachedse exploration service. It
// wraps the v1 HTTP API with:
//
//   - automatic retries with exponential backoff and full jitter on
//     transport failures and server back-pressure (429/500/503),
//     honouring Retry-After hints;
//   - safe replay: every request body is buffered, and uploads are
//     idempotent by content digest on the server side, so a retry after
//     a mid-flight failure cannot double-register a trace or corrupt a
//     result;
//   - context deadlines forwarded to the server via X-Request-Deadline,
//     so a saturated server sheds work the client has already given up
//     on;
//   - typed errors: every non-2xx response carries the server's stable
//     error code, matchable with errors.Is against ErrTraceNotFound,
//     ErrQueueFull, and friends.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/example/cachedse/internal/obs"
)

// RetryPolicy tunes the retry loop. The zero value gets defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// <= 0 uses 4.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff. <= 0 uses 100 ms.
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep (Retry-After hints included).
	// <= 0 uses 5 s.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// Client talks to one cachedse server. In a cluster that server may be
// any member: it forwards a digest-addressed request to the trace's
// owners itself.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
	// sleep is swapped out by tests to avoid real waiting.
	sleep func(context.Context, time.Duration) error
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient uses hc instead of a default http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry replaces the default retry policy.
func WithRetry(p RetryPolicy) Option { return func(c *Client) { c.retry = p.withDefaults() } }

// New returns a Client for the server at baseURL (e.g.
// "http://localhost:8080"). A trailing slash is trimmed.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:  strings.TrimRight(baseURL, "/"),
		hc:    &http.Client{Timeout: 2 * time.Minute},
		retry: RetryPolicy{}.withDefaults(),
		sleep: sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff computes the sleep before attempt n (0-based), preferring the
// server's Retry-After hint and otherwise using exponential backoff with
// full jitter, both capped at MaxDelay.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return min(retryAfter, c.retry.MaxDelay)
	}
	d := c.retry.BaseDelay << uint(attempt)
	if d > c.retry.MaxDelay || d <= 0 {
		d = c.retry.MaxDelay
	}
	// Full jitter: uniform in [d/2, d] keeps retries spread out without
	// collapsing the backoff's growth.
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(half)+1))
}

// parseRetryAfter reads a Retry-After header: either delta-seconds or an
// HTTP-date. Zero means absent/unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// do issues one API request with retries against the configured base.
// body is replayed verbatim on every attempt; out, when non-nil,
// receives the decoded 2xx JSON body.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	// Every logical call is one hop of a distributed trace: an ambient
	// span context on ctx is honored (the caller is already inside a
	// trace), otherwise a fresh trace ID is minted here at the edge.
	// Retries share the trace — they are attempts of the same operation.
	if sc := obs.SpanContextFrom(ctx); !sc.Valid() {
		ctx = obs.WithSpanContext(ctx, obs.SpanContext{TraceID: obs.NewTraceID()})
	}
	var last error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			var retryAfter time.Duration
			var api *APIError
			if errors.As(last, &api) {
				retryAfter = api.retryAfter
			}
			if err := c.sleep(ctx, c.backoff(attempt-1, retryAfter)); err != nil {
				return err
			}
		}
		last = c.once(ctx, method, path, contentType, body, out)
		if last == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's context expired or was cancelled: its error is
			// the truthful answer, not whatever the wire saw last.
			return ctx.Err()
		}
		if !retryable(last) {
			return last
		}
	}
	return &RetryExhaustedError{Attempts: c.retry.MaxAttempts, Last: last}
}

func (c *Client) once(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if sc := obs.Propagate(ctx); sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	if dl, ok := ctx.Deadline(); ok {
		// Forward the caller's deadline so the server can shed or bound
		// the job instead of computing an answer nobody is waiting for.
		req.Header.Set("X-Request-Deadline", dl.UTC().Format(time.RFC3339Nano))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			// A cut stream mid-body decodes as an unexpected EOF — a
			// transport failure, retried like any other.
			return fmt.Errorf("decoding response: %w", err)
		}
		if resp.Header.Get("X-Degraded") == "true" {
			// The header is authoritative: a proxy or older server may set
			// it without the body flag, and a caller deciding whether to
			// trust a skipped verification needs the bit either way.
			switch v := out.(type) {
			case *ExploreResponse:
				v.Degraded = true
			case *SimulateResponse:
				v.Degraded = true
			}
		}
		return nil
	}
	return c.apiError(resp)
}

// apiError decodes the uniform error envelope from a non-2xx response.
func (c *Client) apiError(resp *http.Response) error {
	api := &APIError{
		StatusCode: resp.StatusCode,
		retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		api.Code = env.Error.Code
		api.Message = env.Error.Message
	} else {
		api.Message = strings.TrimSpace(string(raw))
	}
	return api
}

func jsonBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	return b, nil
}

// Cluster fetches the server's view of the cluster topology. A
// single-node server answers with the degenerate topology (no nodes,
// replicas 1).
func (c *Client) Cluster(ctx context.Context) (ClusterInfo, error) {
	var info ClusterInfo
	err := c.do(ctx, http.MethodGet, "/v1/cluster", "", nil, &info)
	return info, err
}

// UploadTrace registers a trace (as .din text or .ctr binary bytes) and
// returns its stored info. Uploads are idempotent by content digest: a
// retried or repeated upload of the same bytes returns the existing
// trace rather than a duplicate.
func (c *Client) UploadTrace(ctx context.Context, data []byte) (TraceInfo, error) {
	var info TraceInfo
	err := c.do(ctx, http.MethodPost, "/v1/traces", "application/octet-stream", data, &info)
	return info, err
}

// ListTraces fetches one page of stored traces in ascending digest order.
func (c *Client) ListTraces(ctx context.Context, opts ListOptions) (TracePage, error) {
	q := url.Values{}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	if opts.Kind != "" {
		q.Set("kind", opts.Kind)
	}
	path := "/v1/traces"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page TracePage
	err := c.do(ctx, http.MethodGet, path, "", nil, &page)
	return page, err
}

// AllTraces walks every page of ListTraces and returns the union.
func (c *Client) AllTraces(ctx context.Context, opts ListOptions) ([]TraceInfo, error) {
	var all []TraceInfo
	for {
		page, err := c.ListTraces(ctx, opts)
		if err != nil {
			return all, err
		}
		all = append(all, page.Traces...)
		if page.NextCursor == "" {
			return all, nil
		}
		opts.Cursor = page.NextCursor
	}
}

// GetTrace fetches one stored trace's info by digest.
func (c *Client) GetTrace(ctx context.Context, digest string) (TraceInfo, error) {
	var info TraceInfo
	err := c.do(ctx, http.MethodGet, "/v1/traces/"+url.PathEscape(digest), "", nil, &info)
	return info, err
}

// DeleteTrace removes a stored trace. A trace still referenced by live
// jobs returns ErrTraceBusy.
func (c *Client) DeleteTrace(ctx context.Context, digest string) error {
	return c.do(ctx, http.MethodDelete, "/v1/traces/"+url.PathEscape(digest), "", nil, nil)
}

// Explore runs the analytical design-space exploration synchronously.
// When the server is saturated it may answer from cached results with
// Degraded set; ErrQueueFull means not even a degraded answer existed.
func (c *Client) Explore(ctx context.Context, req ExploreRequest) (ExploreResponse, error) {
	var resp ExploreResponse
	b, err := jsonBody(req)
	if err != nil {
		return resp, err
	}
	err = c.do(ctx, http.MethodPost, "/v1/explore", "application/json", b, &resp)
	return resp, err
}

// Simulate runs one concrete cache configuration synchronously.
func (c *Client) Simulate(ctx context.Context, req SimulateRequest) (SimulateResponse, error) {
	var resp SimulateResponse
	b, err := jsonBody(req)
	if err != nil {
		return resp, err
	}
	err = c.do(ctx, http.MethodPost, "/v1/simulate", "application/json", b, &resp)
	return resp, err
}

// Verify cross-checks analytical instances against simulation.
func (c *Client) Verify(ctx context.Context, req VerifyRequest) (VerifyResponse, error) {
	var resp VerifyResponse
	b, err := jsonBody(req)
	if err != nil {
		return resp, err
	}
	err = c.do(ctx, http.MethodPost, "/v1/verify", "application/json", b, &resp)
	return resp, err
}

// asyncRequest clones a request map with "async": true set.
func asyncBody(req any) ([]byte, error) {
	b, err := jsonBody(req)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	m["async"] = true
	return json.Marshal(m)
}

// ExploreAsync submits the exploration as a background job and returns
// its initial status; poll with GetJob or WaitJob.
func (c *Client) ExploreAsync(ctx context.Context, req ExploreRequest) (JobStatus, error) {
	var st JobStatus
	b, err := asyncBody(req)
	if err != nil {
		return st, err
	}
	err = c.do(ctx, http.MethodPost, "/v1/explore", "application/json", b, &st)
	return st, err
}

// GetJob fetches a job's current status.
func (c *Client) GetJob(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), "", nil, &st)
	return st, err
}

// CancelJob requests cancellation of a queued or running job.
func (c *Client) CancelJob(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), "", nil, &st)
	return st, err
}

// JobTrace fetches a job's recorded span tree. With cluster true the
// server stitches the cluster-wide trace: every node's fragments of the
// job's trace ID (ingress proxy hops, write-through replication, the
// owner's job phases) merged into one tree.
func (c *Client) JobTrace(ctx context.Context, id string, cluster bool) (JobTraceResponse, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/trace"
	if cluster {
		path += "?cluster=1"
	}
	var resp JobTraceResponse
	err := c.do(ctx, http.MethodGet, path, "", nil, &resp)
	return resp, err
}

// WaitJob polls a job until it reaches a terminal state or ctx expires,
// backing off between polls.
func (c *Client) WaitJob(ctx context.Context, id string) (JobStatus, error) {
	delay := 25 * time.Millisecond
	for {
		st, err := c.GetJob(ctx, id)
		if err != nil {
			return st, err
		}
		if st.Terminal() {
			return st, nil
		}
		if err := c.sleep(ctx, delay); err != nil {
			return st, err
		}
		if delay < time.Second {
			delay *= 2
		}
	}
}

// Healthz reports whether the server's liveness probe answers 200.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", "", nil, nil)
}

// Readyz reports whether the server is accepting work.
func (c *Client) Readyz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", "", nil, nil)
}
