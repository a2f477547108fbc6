package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// testTrace builds a deterministic trace with enough conflicts that the
// exploration emits non-trivial instance tables.
func testTrace(n int, addrSpace uint32) *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	tr := trace.New(n)
	for i := 0; i < n; i++ {
		kind := trace.DataRead
		if i%7 == 0 {
			kind = trace.DataWrite
		}
		tr.Append(trace.Ref{Addr: rng.Uint32() % addrSpace, Kind: kind})
	}
	return tr
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = obs.NewLogger(io.Discard, "text", slog.LevelInfo)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return srv, ts
}

// doJSON posts body to url and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func uploadTrace(t *testing.T, ts *httptest.Server, body []byte) (client.TraceInfo, int) {
	t.Helper()
	var info client.TraceInfo
	code := doJSON(t, "POST", ts.URL+"/v1/traces", body, &info)
	return info, code
}

func TestServerTraceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(500, 1<<8)

	var din, ctr bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&ctr, tr); err != nil {
		t.Fatal(err)
	}

	info, code := uploadTrace(t, ts, din.Bytes())
	if code != http.StatusCreated {
		t.Fatalf("first upload: code %d", code)
	}
	st := trace.ComputeStats(tr)
	if info.N != st.N || info.NUnique != st.NUnique || info.MaxMisses != st.MaxMisses {
		t.Fatalf("upload stats %+v, want %+v", info, st)
	}

	// The digest is content-addressed: the same trace in the binary format
	// is recognised as already stored.
	info2, code := uploadTrace(t, ts, ctr.Bytes())
	if code != http.StatusOK {
		t.Fatalf("re-upload as binary: code %d", code)
	}
	if info2.Digest != info.Digest {
		t.Fatalf("binary upload digest %s != text digest %s", info2.Digest, info.Digest)
	}

	var list struct {
		Traces []client.TraceInfo `json:"traces"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/traces", nil, &list); code != http.StatusOK || len(list.Traces) != 1 {
		t.Fatalf("list: code %d, %d traces", code, len(list.Traces))
	}
	var got client.TraceInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/traces/"+info.Digest, nil, &got); code != http.StatusOK || got.Digest != info.Digest {
		t.Fatalf("get: code %d, digest %s", code, got.Digest)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/traces/"+info.Digest, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: code %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/traces/"+info.Digest, nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: code %d", code)
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/traces", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("empty upload: code %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/traces", []byte("not a trace\n"), nil); code != http.StatusBadRequest {
		t.Fatalf("garbage upload: code %d", code)
	}
}

func TestServerUploadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxUploadBytes: 64})
	tr := testTrace(200, 1<<8)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	if _, code := uploadTrace(t, ts, din.Bytes()); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: code %d, want 413", code)
	}
}

func TestServerUploadMaxRefs(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRefs: 10})
	tr := testTrace(50, 1<<8)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	if _, code := uploadTrace(t, ts, din.Bytes()); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("too many refs: code %d, want 413", code)
	}
}

// metricValue extracts a plain counter/gauge value from Prometheus text.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`).FindSubmatch(data)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, data)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServerExploreMatchesCLI is the end-to-end acceptance path: upload a
// trace, explore it over HTTP, and require the rendered instance table to
// be byte-identical to what the batch CLI computes (both sides share
// core.Explore + dse.InstanceTable). A second explore at a different K
// must be served from the result cache, observable via /metrics.
func TestServerExploreMatchesCLI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(2_000, 1<<9)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	st := trace.ComputeStats(tr)
	k := st.MaxMisses / 2
	want, err := core.Explore(context.Background(), tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantInstances, wantTab := dse.InstanceTable(want, k, st.MaxMisses, false)

	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": k})
	var resp client.ExploreResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &resp); code != http.StatusOK {
		t.Fatalf("explore: code %d", code)
	}
	if resp.Cached {
		t.Fatal("first explore reported cached")
	}
	if resp.K != k || resp.MaxMisses != st.MaxMisses {
		t.Fatalf("explore response K=%d MaxMisses=%d, want %d, %d", resp.K, resp.MaxMisses, k, st.MaxMisses)
	}
	if resp.Table != wantTab.Render() {
		t.Fatalf("server table differs from CLI table:\nserver:\n%s\ncli:\n%s", resp.Table, wantTab.Render())
	}
	if len(resp.Instances) != len(wantInstances) {
		t.Fatalf("instance count %d, want %d", len(resp.Instances), len(wantInstances))
	}
	for i, ins := range wantInstances {
		if resp.Instances[i].Depth != ins.Depth || resp.Instances[i].Assoc != ins.Assoc {
			t.Fatalf("instance %d = %+v, want %+v", i, resp.Instances[i], ins)
		}
	}

	hitsBefore := metricValue(t, ts, "cachedse_result_cache_hits_total")

	// A different budget K reuses the memoized depth profile.
	k2 := st.MaxMisses / 4
	body2, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": k2})
	var resp2 client.ExploreResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body2, &resp2); code != http.StatusOK {
		t.Fatalf("second explore: code %d", code)
	}
	if !resp2.Cached {
		t.Fatal("second explore at a different K was not served from the result cache")
	}
	_, wantTab2 := dse.InstanceTable(want, k2, st.MaxMisses, false)
	if resp2.Table != wantTab2.Render() {
		t.Fatalf("cached table differs:\n%s\nwant:\n%s", resp2.Table, wantTab2.Render())
	}
	if hitsAfter := metricValue(t, ts, "cachedse_result_cache_hits_total"); hitsAfter <= hitsBefore {
		t.Fatalf("cache hit counter did not increase: %v -> %v", hitsBefore, hitsAfter)
	}

	// Pareto + verify exercise the remaining request knobs and must agree
	// with the plain profile; the v1 parallel flag rides along and, being
	// accepted without effect, must not change the answer.
	body3, _ := json.Marshal(map[string]any{
		"trace": info.Digest, "k": k, "parallel": true, "pareto": true, "verify": true,
	})
	var resp3 client.ExploreResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body3, &resp3); code != http.StatusOK {
		t.Fatalf("pareto explore: code %d", code)
	}
	if !resp3.Verified {
		t.Fatal("verify=true response not marked verified")
	}
	_, paretoTab := dse.InstanceTable(want, k, st.MaxMisses, true)
	if resp3.Table != paretoTab.Render() {
		t.Fatalf("pareto table differs:\n%s\nwant:\n%s", resp3.Table, paretoTab.Render())
	}
}

func TestServerExploreValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(100, 1<<6)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	cases := []struct {
		name string
		body string
		code int
	}{
		{"unknown trace", `{"trace": "feedbeef", "k": 1}`, http.StatusNotFound},
		{"missing budget", fmt.Sprintf(`{"trace": %q}`, info.Digest), http.StatusBadRequest},
		{"bad max_depth", fmt.Sprintf(`{"trace": %q, "k": 1, "max_depth": 3}`, info.Digest), http.StatusBadRequest},
		{"unknown field", `{"bogus": 1}`, http.StatusBadRequest},
		{"malformed JSON", `{`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := doJSON(t, "POST", ts.URL+"/v1/explore", []byte(c.body), nil); code != c.code {
			t.Errorf("%s: code %d, want %d", c.name, code, c.code)
		}
	}
}

func TestServerExploreAsync(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(1_000, 1<<8)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 10, "async": true})
	var st JobStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &st); code != http.StatusAccepted {
		t.Fatalf("async explore: code %d", code)
	}
	if st.ID == "" {
		t.Fatalf("async explore returned no job id: %+v", st)
	}

	deadline := time.Now().Add(10 * time.Second)
	for st.State != JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		if st.State == JobFailed || st.State == JobCanceled {
			t.Fatalf("job finished as %s: %s", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
		if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &st); code != http.StatusOK {
			t.Fatalf("poll job: code %d", code)
		}
	}
	result, ok := st.Result.(map[string]any)
	if !ok || result["trace"] != info.Digest {
		t.Fatalf("job result = %#v", st.Result)
	}
	if _, ok := result["instances"]; !ok {
		t.Fatalf("job result has no instances: %#v", result)
	}

	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: code %d", code)
	}
}

// occupyWorker blocks the server's single worker (the tests below create
// the server with Workers: 1) until the returned release func is called.
func occupyWorker(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	started := make(chan struct{})
	stop := make(chan struct{})
	_, err := srv.queue.Submit("occupy", func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-stop:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var once bool
	return func() {
		if !once {
			once = true
			close(stop)
		}
	}
}

// TestServerCancelQueuedJob pins the cancellation path deterministically:
// with one worker held busy, an async explore sits in the queue where
// DELETE /v1/jobs/{id} must cancel it before it ever runs.
func TestServerCancelQueuedJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	release := occupyWorker(t, srv)
	defer release()

	tr := testTrace(300, 1<<7)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 5, "async": true})
	var st JobStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &st); code != http.StatusAccepted {
		t.Fatalf("async explore: code %d", code)
	}
	if st.State != JobQueued {
		t.Fatalf("job state %s, want queued", st.State)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("cancel: code %d", code)
	}
	if st.State != JobCanceled {
		t.Fatalf("cancelled job state %s", st.State)
	}
	release()
	// The worker must skip the cancelled job rather than run it.
	time.Sleep(20 * time.Millisecond)
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &st); code != http.StatusOK || st.State != JobCanceled || st.Result != nil {
		t.Fatalf("cancelled job after release: code %d, %+v", code, st)
	}
}

// TestServerCancelRunningJob cancels an exploration that is already on the
// worker; the ctx plumbed through core.Explore must stop it promptly.
func TestServerCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	tr := testTrace(150_000, 1<<14)
	var ctr bytes.Buffer
	if err := trace.WriteBinary(&ctr, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, ctr.Bytes())

	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 100, "async": true})
	var st JobStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &st); code != http.StatusAccepted {
		t.Fatalf("async explore: code %d", code)
	}
	// Wait for the worker to pick the job up, then cancel mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for st.State == JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &st)
	}
	if st.State != JobRunning {
		t.Skipf("exploration finished before it could be cancelled (state %s)", st.State)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+st.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: code %d", code)
	}
	for st.State == JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("cancelled job did not stop")
		}
		time.Sleep(5 * time.Millisecond)
		doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &st)
	}
	if st.State != JobCanceled {
		t.Fatalf("job finished as %s, want canceled", st.State)
	}
}

// TestServerSyncRequestTimeout covers the synchronous wait bound: with the
// worker busy, a sync explore cannot start within RequestTimeout, so the
// server cancels the queued job and answers 499.
func TestServerSyncRequestTimeout(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	release := occupyWorker(t, srv)
	defer release()

	tr := testTrace(300, 1<<7)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 5})
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, nil); code != httpStatusClientClosedRequest {
		t.Fatalf("sync explore with busy worker: code %d, want %d", code, httpStatusClientClosedRequest)
	}
}

func TestServerQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := occupyWorker(t, srv)
	defer release()
	if _, err := srv.queue.Submit("fill", func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}

	tr := testTrace(100, 1<<6)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 5})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/explore", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("explore on full queue: code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	if env.Error.Code != "queue_full" {
		t.Fatalf("error code = %q, want %q", env.Error.Code, "queue_full")
	}
}

func TestServerSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(1_000, 1<<8)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "depth": 64, "assoc": 2})
	var resp client.SimulateResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/simulate", body, &resp); code != http.StatusOK {
		t.Fatalf("simulate: code %d", code)
	}
	if resp.Accesses != tr.Len() {
		t.Fatalf("accesses %d, want %d", resp.Accesses, tr.Len())
	}
	if resp.Hits+resp.ColdMisses+resp.Misses != resp.Accesses {
		t.Fatalf("hit/miss accounting inconsistent: %+v", resp)
	}
	if resp.Cached {
		t.Fatal("first simulate reported cached")
	}
	var again client.SimulateResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/simulate", body, &again); code != http.StatusOK || !again.Cached {
		t.Fatalf("repeat simulate: code %d, cached %v", code, again.Cached)
	}
	again.Cached = false
	if resp != again {
		t.Fatalf("cached simulate result differs: %+v vs %+v", resp, again)
	}

	for name, bad := range map[string]string{
		"bad depth":          fmt.Sprintf(`{"trace": %q, "depth": 3}`, info.Digest),
		"bad repl":           fmt.Sprintf(`{"trace": %q, "depth": 4, "repl": "mru"}`, info.Digest),
		"negative assoc":     fmt.Sprintf(`{"trace": %q, "depth": 4, "assoc": -1}`, info.Digest),
		"odd line size":      fmt.Sprintf(`{"trace": %q, "depth": 4, "line_words": 3}`, info.Digest),
		"negative line size": fmt.Sprintf(`{"trace": %q, "depth": 4, "line_words": -2}`, info.Digest),
	} {
		if code := doJSON(t, "POST", ts.URL+"/v1/simulate", []byte(bad), nil); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, code)
		}
	}
}

// TestServerSimulateKeysLineSize checks that line size is part of a
// simulation's identity: a line_words=4 answer must be simulated, not
// served from the cached line_words=1 answer for the same geometry.
func TestServerSimulateKeysLineSize(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(2_000, 1<<9)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())
	for _, lw := range []int{1, 4} {
		body, _ := json.Marshal(map[string]any{"trace": info.Digest, "depth": 16, "line_words": lw})
		var got client.SimulateResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/simulate", body, &got); code != http.StatusOK {
			t.Fatalf("simulate line_words=%d: code %d", lw, code)
		}
		want, err := cache.Simulate(cache.Config{Depth: 16, Assoc: 1, LineWords: lw, Allocate: true}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cached || got.Misses != want.Misses || got.ColdMisses != want.ColdMisses {
			t.Errorf("line_words=%d: cached=%v misses=%d cold=%d, want a fresh simulation with %d/%d",
				lw, got.Cached, got.Misses, got.ColdMisses, want.Misses, want.ColdMisses)
		}
	}
}

func TestServerVerify(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(2_000, 1<<9)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())
	st := trace.ComputeStats(tr)
	k := st.MaxMisses / 2

	// The instances the analytical explorer emits must verify under
	// simulation at the same budget.
	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": k})
	var exp client.ExploreResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &exp); code != http.StatusOK {
		t.Fatalf("explore: code %d", code)
	}
	if len(exp.Instances) == 0 {
		t.Fatal("explore emitted no instances to verify")
	}
	instances := make([]map[string]int, len(exp.Instances))
	for i, ins := range exp.Instances {
		instances[i] = map[string]int{"depth": ins.Depth, "assoc": ins.Assoc}
	}
	vbody, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": k, "instances": instances})
	var vr client.VerifyResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/verify", vbody, &vr); code != http.StatusOK {
		t.Fatalf("verify: code %d", code)
	}
	if !vr.OK {
		t.Fatalf("explorer instances failed verification: %s", vr.Reason)
	}

	// The same instances cannot meet an impossible budget.
	vbody2, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 0, "instances": instances})
	var vr2 client.VerifyResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/verify", vbody2, &vr2); code != http.StatusOK {
		t.Fatalf("verify k=0: code %d", code)
	}
	if vr2.OK || vr2.Reason == "" {
		t.Fatalf("verify at K=0 = %+v, want a failure with reason", vr2)
	}

	for name, bad := range map[string]string{
		"no instances":  fmt.Sprintf(`{"trace": %q, "k": 1}`, info.Digest),
		"bad instance":  fmt.Sprintf(`{"trace": %q, "k": 1, "instances": [{"depth": 3, "assoc": 1}]}`, info.Digest),
		"unknown trace": `{"trace": "feedbeef", "k": 1, "instances": [{"depth": 4, "assoc": 1}]}`,
	} {
		want := http.StatusBadRequest
		if name == "unknown trace" {
			want = http.StatusNotFound
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/verify", []byte(bad), nil); code != want {
			t.Errorf("%s: code %d, want %d", name, code, want)
		}
	}
}

func TestServerHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var hz struct {
		Status string `json:"status"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: code %d, %+v", code, hz)
	}
	var rz struct {
		Status string `json:"status"`
	}
	if code := doJSON(t, "GET", ts.URL+"/readyz", nil, &rz); code != http.StatusOK || rz.Status != "ok" {
		t.Fatalf("readyz: code %d, %+v", code, rz)
	}
	// Probes stay out of the latency histogram; a regular endpoint feeds it.
	if code := doJSON(t, "GET", ts.URL+"/v1/traces", nil, nil); code != http.StatusOK {
		t.Fatalf("traces list: code %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"cachedse_requests_total",
		"cachedse_request_duration_seconds_bucket",
		"cachedse_job_queue_depth",
		"cachedse_result_cache_hits_total",
		"cachedse_traces_stored",
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Fatalf("metrics output missing %s:\n%s", want, data)
		}
	}
}

// TestTraceDigestFormatIndependent locks the content-addressing contract:
// the digest is computed over decoded references, not encoded bytes.
func TestTraceDigestFormatIndependent(t *testing.T) {
	tr := testTrace(400, 1<<8)
	d1 := TraceDigest(tr)

	var ctr bytes.Buffer
	if err := trace.WriteBinary(&ctr, tr); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadBinary(&ctr)
	if err != nil {
		t.Fatal(err)
	}
	if d2 := TraceDigest(decoded); d2 != d1 {
		t.Fatalf("digest changed across encode/decode: %s vs %s", d1, d2)
	}

	other := testTrace(400, 1<<7)
	if TraceDigest(other) == d1 {
		t.Fatal("different traces share a digest")
	}
}

// TestServerSampledExplore: a sampled request answers exactly. Its
// instances equal the exact request's, its sample summary says exact
// with every reference kept, it carries no interval fields, it explores
// the memoized prelude instead of rebuilding it, and its repeat is a
// cache hit.
func TestServerSampledExplore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A sliding-window trace with ~12k unique addresses: enough that a
	// rate-0.5 sample was once genuinely approximate, while the short
	// reuse distances (and the max_depth cap) keep the exploration fast.
	rng := rand.New(rand.NewSource(11))
	tr := trace.New(36000)
	for i := 0; i < 36000; i++ {
		kind := trace.DataRead
		if i%7 == 0 {
			kind = trace.DataWrite
		}
		tr.Append(trace.Ref{Addr: uint32(i/3 + rng.Intn(256)), Kind: kind})
	}
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())
	body := `{"trace":"` + info.Digest + `","k":100,"max_depth":256}`

	var exact client.ExploreResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", []byte(body), &exact); code != http.StatusOK {
		t.Fatalf("exact explore: code %d", code)
	}
	if exact.Sample != nil {
		t.Fatal("exact exploration carries a sample summary")
	}

	resp, err := http.Post(ts.URL+"/v1/explore?sample=0.5", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled explore: code %d, err %v: %s", resp.StatusCode, err, raw)
	}
	for _, field := range []string{"misses_se", "misses_lo", "misses_hi"} {
		if bytes.Contains(raw, []byte(field)) {
			t.Errorf("sampled response carries %q: %s", field, raw)
		}
	}
	var sampled client.ExploreResponse
	if err := json.Unmarshal(raw, &sampled); err != nil {
		t.Fatal(err)
	}
	if sampled.Cached {
		t.Error("first sampled exploration reported cached; its key must differ from the exact one")
	}
	if sum := sampled.Sample; sum == nil || !sum.Exact || sum.Mode != "postlude" ||
		sum.KeptRefs != int64(info.N) || sum.DroppedRefs != 0 || sum.EffectiveRate != 1 {
		t.Errorf("sample summary = %+v, want exact with all %d refs kept", sum, info.N)
	}
	if !reflect.DeepEqual(sampled.Instances, exact.Instances) || sampled.Table != exact.Table {
		t.Errorf("sampled instances %+v differ from exact %+v", sampled.Instances, exact.Instances)
	}

	// The exact request built the trace's prelude; the sampled job reuses
	// it and runs only the postlude, with no sampling pass.
	spans := map[string]int{}
	var walk func(ns []*obs.Node)
	walk = func(ns []*obs.Node) {
		for _, n := range ns {
			spans[n.Name]++
			walk(n.Children)
		}
	}
	walk([]*obs.Node{jobTree(t, ts.URL, resp.Header.Get("X-Job-ID"))})
	for _, rebuilt := range []string{"prelude", "strip", "mrct", "sample"} {
		if spans[rebuilt] != 0 {
			t.Errorf("sampled job ran %q: spans %v", rebuilt, spans)
		}
	}
	if spans["postlude"] != 1 {
		t.Errorf("sampled job spans %v, want one postlude", spans)
	}

	// The sampled profile memoizes under its own key: re-asking is a cache
	// hit, and the exact profile above was never displaced.
	var again client.ExploreResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/explore",
		[]byte(`{"trace":"`+info.Digest+`","k":100,"max_depth":256,"sample_rate":0.5}`), &again); code != http.StatusOK {
		t.Fatalf("repeat sampled explore: code %d", code)
	}
	if !again.Cached {
		t.Error("repeated sampled exploration missed the result cache")
	}
	if !reflect.DeepEqual(again.Sample, sampled.Sample) || !reflect.DeepEqual(again.Instances, exact.Instances) {
		t.Errorf("cached sampled answer %+v / %+v differs from the first", again.Sample, again.Instances)
	}
}
