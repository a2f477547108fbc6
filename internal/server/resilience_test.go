package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// errEnvelope mirrors the uniform v1 error shape for assertions.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func getErr(t *testing.T, resp *http.Response) errEnvelope {
	t.Helper()
	var env errEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	if env.Error.Code == "" {
		t.Fatal("error envelope has no code")
	}
	return env
}

func TestErrorEnvelopeStableCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"trace_not_found", "GET", "/v1/traces/deadbeef", "", 404, "trace_not_found"},
		{"job_not_found", "GET", "/v1/jobs/nope", "", 404, "job_not_found"},
		{"bad_request body", "POST", "/v1/explore", "{not json", 400, "bad_request"},
		{"bad_request explore trace", "POST", "/v1/explore", `{"trace":"missing","k":5}`, 404, "trace_not_found"},
		{"bad_request list limit", "GET", "/v1/traces?limit=bogus", "", 400, "bad_request"},
		{"bad_request list kind", "GET", "/v1/traces?kind=bogus", "", 400, "bad_request"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, _ := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader([]byte(c.body)))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, c.wantCode)
			}
			if env := getErr(t, resp); env.Error.Code != c.wantErr {
				t.Fatalf("error code = %q, want %q", env.Error.Code, c.wantErr)
			}
		})
	}
}

func TestListTracesPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var digests []string
	for i := 0; i < 5; i++ {
		tr := trace.New(4)
		for j := 0; j < 4; j++ {
			tr.Append(trace.Ref{Addr: uint32(i*64 + j), Kind: trace.DataRead})
		}
		var din bytes.Buffer
		if err := trace.WriteText(&din, tr); err != nil {
			t.Fatal(err)
		}
		info, _ := uploadTrace(t, ts, din.Bytes())
		digests = append(digests, info.Digest)
	}
	sort.Strings(digests)

	// Walk pages of 2; the union must be all 5 digests in ascending order.
	var got []string
	cursor := ""
	for page := 0; ; page++ {
		if page > 5 {
			t.Fatal("pagination did not terminate")
		}
		url := ts.URL + "/v1/traces?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Traces     []client.TraceInfo `json:"traces"`
			NextCursor string             `json:"next_cursor"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(body.Traces) > 2 {
			t.Fatalf("page has %d traces, want <= 2", len(body.Traces))
		}
		for _, ti := range body.Traces {
			got = append(got, ti.Digest)
		}
		if body.NextCursor == "" {
			break
		}
		cursor = body.NextCursor
	}
	if len(got) != len(digests) {
		t.Fatalf("walked %d digests, want %d", len(got), len(digests))
	}
	for i := range got {
		if got[i] != digests[i] {
			t.Fatalf("digest %d = %s, want %s (ascending order)", i, got[i], digests[i])
		}
	}
}

func TestListTracesKindFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	instr := trace.New(3)
	for j := 0; j < 3; j++ {
		instr.Append(trace.Ref{Addr: uint32(j), Kind: trace.Instr})
	}
	data := trace.New(3)
	for j := 0; j < 3; j++ {
		data.Append(trace.Ref{Addr: uint32(100 + j), Kind: trace.DataRead})
	}
	for _, tr := range []*trace.Trace{instr, data} {
		var din bytes.Buffer
		if err := trace.WriteText(&din, tr); err != nil {
			t.Fatal(err)
		}
		uploadTrace(t, ts, din.Bytes())
	}
	resp, err := http.Get(ts.URL + "/v1/traces?kind=instr")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Traces []client.TraceInfo `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Traces) != 1 || body.Traces[0].Kind != "instr" {
		t.Fatalf("kind=instr returned %+v, want exactly the instr trace", body.Traces)
	}
}

func TestRequestDeadlineHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// An already-expired absolute deadline is shed up front with 504.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/traces", nil)
	req.Header.Set("X-Request-Deadline", time.Now().Add(-time.Second).Format(time.RFC3339Nano))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status = %d, want 504", resp.StatusCode)
	}
	if env := getErr(t, resp); env.Error.Code != "deadline_exceeded" {
		t.Fatalf("error code = %q, want deadline_exceeded", env.Error.Code)
	}

	// Garbage in the header is a client error.
	req2, _ := http.NewRequest("GET", ts.URL+"/v1/traces", nil)
	req2.Header.Set("X-Request-Deadline", "three fortnights")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deadline: status = %d, want 400", resp2.StatusCode)
	}

	// A generous deadline passes through untouched.
	req3, _ := http.NewRequest("GET", ts.URL+"/v1/traces", nil)
	req3.Header.Set("X-Request-Deadline", "30s")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("valid deadline: status = %d, want 200", resp3.StatusCode)
	}
}

func TestRequestDeadlineBoundsJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	release := occupyWorker(t, srv)
	defer release()

	tr := testTrace(200, 1<<6)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	// The sole worker is occupied, so the job waits in queue past the
	// 150 ms deadline and the request surfaces 504 deadline_exceeded.
	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 5})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/explore", bytes.NewReader(body))
	req.Header.Set("X-Request-Deadline", "150ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline in queue: status = %d, want 504", resp.StatusCode)
	}
	if env := getErr(t, resp); env.Error.Code != "deadline_exceeded" {
		t.Fatalf("error code = %q, want deadline_exceeded", env.Error.Code)
	}
}

func TestDegradedReadOnSaturation(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	tr := testTrace(300, 1<<7)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	// Prime the result cache with a normal exploration.
	var first client.ExploreResponse
	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 5})
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &first); code != http.StatusOK {
		t.Fatalf("priming explore: code %d", code)
	}

	// Saturate: occupy the only worker and fill the queue.
	release := occupyWorker(t, srv)
	defer release()
	if _, err := srv.queue.Submit("fill", func(ctx context.Context) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}

	// Same trace, different budget: K only selects rows from the cached
	// profile, so the saturated server still answers — degraded.
	body2, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 3})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/explore", bytes.NewReader(body2))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded explore: code %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Degraded") != "true" {
		t.Fatal("degraded response missing X-Degraded header")
	}
	var deg client.ExploreResponse
	if err := json.NewDecoder(resp.Body).Decode(&deg); err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded || !deg.Cached {
		t.Fatalf("response degraded=%v cached=%v, want both true", deg.Degraded, deg.Cached)
	}
	if deg.K != 3 {
		t.Fatalf("degraded K = %d, want 3", deg.K)
	}

	// A cold key (different max_depth) cannot be served degraded: 429.
	body3, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 3, "max_depth": 4})
	req3, _ := http.NewRequest("POST", ts.URL+"/v1/explore", bytes.NewReader(body3))
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold explore on full queue: code %d, want 429", resp3.StatusCode)
	}
	if env := getErr(t, resp3); env.Error.Code != "queue_full" {
		t.Fatalf("error code = %q, want queue_full", env.Error.Code)
	}
}

func TestEndpointGateSheds(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, EndpointInflight: 1})
	release := occupyWorker(t, srv)
	defer release()

	tr := testTrace(200, 1<<6)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	// First sync explore parks in the job wait holding the endpoint's
	// single gate slot; subsequent explores shed with 429 overloaded. The
	// probe waits until the slot is really taken: probing earlier could
	// win the slot itself and park behind the occupied worker.
	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 5})
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	gate := srv.gates["explore"]
	for deadline := time.Now().Add(5 * time.Second); len(gate) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("parked explore never took the endpoint gate")
		}
	}

	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		resp.Body.Close()
		t.Fatalf("probe with the gate held: code %d, want 429", resp.StatusCode)
	}
	env := getErr(t, resp)
	resp.Body.Close()
	if env.Error.Code != "overloaded" {
		t.Fatalf("error code = %q, want overloaded", env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	release()
	<-done
}

func TestMetricsExposeResilienceCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"cachedse_shed_total",
		"cachedse_degraded_reads_total",
		"cachedse_faults_injected_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Errorf("metrics output missing %s", name)
		}
	}
}

// FuzzRequestDeadline drives requestDeadline with arbitrary
// X-Request-Deadline values. It must never panic, and a header it accepts
// as a duration must put the deadline after now.
func FuzzRequestDeadline(f *testing.F) {
	for _, s := range []string{
		"", "2s", "150ms", "0s", "-1s", "1h30m", "9223372036854775807ns",
		"three fortnights", "2020-01-01T00:00:00Z", "2030-01-01T00:00:00.5+02:00",
		"0001-01-01T00:00:00Z", ".5s", "1e3s",
	} {
		f.Add(s)
	}
	now := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	f.Fuzz(func(t *testing.T, raw string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/explore", nil)
		r.Header.Set("X-Request-Deadline", raw)
		dl, err := requestDeadline(r, now)
		if err != nil {
			return
		}
		if _, derr := time.ParseDuration(raw); derr == nil && !dl.After(now) {
			t.Fatalf("duration %q gave deadline %v, not after now %v", raw, dl, now)
		}
	})
}
