package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// The golden files under testdata/api lock the v1 wire shapes: response
// field names, error envelope structure and stable error codes. A diff
// here means a breaking API change — either fix the regression or, for a
// deliberate (additive) change, regenerate with:
//
//	go test ./internal/server -run TestAPICompatGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the API compatibility golden files")

// scrubVolatile blanks fields whose values legitimately vary run to run
// (timestamps, job ids, durations) while keeping their presence and
// types locked.
func scrubVolatile(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "uploaded", "created", "started", "finished":
				x[k] = "<time>"
			case "id", "job":
				x[k] = "<id>"
			default:
				x[k] = scrubVolatile(val)
			}
		}
		return x
	case []any:
		for i := range x {
			x[i] = scrubVolatile(x[i])
		}
		return x
	}
	return v
}

// canonical renders a response body as scrubbed, key-sorted, indented
// JSON so golden diffs are stable and readable.
func canonical(t *testing.T, body []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	out, err := json.MarshalIndent(scrubVolatile(v), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestAPICompatGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A fixed trace keeps digests, stats and exploration output
	// deterministic across runs.
	tr := trace.New(64)
	for i := 0; i < 64; i++ {
		kind := trace.DataRead
		if i%3 == 0 {
			kind = trace.Instr
		}
		tr.Append(trace.Ref{Addr: uint32(i*4) % 128, Kind: kind})
	}
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	digest := TraceDigest(tr)

	// A second fixed trace, uploaded just before trace_list_page, makes a
	// one-trace page carry next_cursor.
	tr2 := trace.New(32)
	for i := 0; i < 32; i++ {
		tr2.Append(trace.Ref{Addr: uint32(i*8) % 96, Kind: trace.DataRead})
	}
	var din2 bytes.Buffer
	if err := trace.WriteText(&din2, tr2); err != nil {
		t.Fatal(err)
	}

	post := func(path string, body string) *http.Request {
		req, _ := http.NewRequest("POST", ts.URL+path, bytes.NewReader([]byte(body)))
		return req
	}
	get := func(path string) *http.Request {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		return req
	}
	del := func(path string) *http.Request {
		req, _ := http.NewRequest("DELETE", ts.URL+path, nil)
		return req
	}

	// Ordered: upload must precede the queries, delete runs last.
	cases := []struct {
		name string
		req  *http.Request
		code int
	}{
		{"trace_upload", post("/v1/traces", din.String()), 201},
		{"trace_get", get("/v1/traces/" + digest), 200},
		{"trace_list", get("/v1/traces?limit=10"), 200},
		{"trace_list_kind", get("/v1/traces?kind=mixed"), 200},
		{"cluster", get("/v1/cluster"), 200},
		{"explore", post("/v1/explore", fmt.Sprintf(`{"trace":%q,"k":5}`, digest)), 200},
		{"explore_cached", post("/v1/explore", fmt.Sprintf(`{"trace":%q,"k":3}`, digest)), 200},
		// 32 uniques sit far under the MinUnique floor, so the sampled
		// request deterministically degenerates to exact — locking the
		// sample summary's shape without locking estimator noise.
		{"explore_sampled", post("/v1/explore?sample=0.5", fmt.Sprintf(`{"trace":%q,"k":5}`, digest)), 200},
		// A space block switches explore to design-space mode: the pareto,
		// prune and space blocks are additive to the v1 response shape and
		// "k" is optional. The tiny unified space keeps the front small and
		// fully deterministic.
		{"explore_space", post("/v1/explore", fmt.Sprintf(
			`{"trace":%q,"space":{"topology":"unified","l1":{"max_depth":16,"max_assoc":2,"policies":["lru","fifo"]}}}`, digest)), 200},
		{"simulate", post("/v1/simulate", fmt.Sprintf(`{"trace":%q,"depth":8,"assoc":2}`, digest)), 200},
		{"verify", post("/v1/verify", fmt.Sprintf(`{"trace":%q,"k":5,"instances":[{"depth":8,"assoc":2}]}`, digest)), 200},
		{"error_trace_not_found", get("/v1/traces/ffffffffffffffffffffffffffffffff"), 404},
		{"error_job_not_found", get("/v1/jobs/nope"), 404},
		{"error_bad_request", post("/v1/explore", `{"trace":`), 400},
		{"error_bad_kind", get("/v1/traces?kind=bananas"), 400},
		{"error_bad_instance", post("/v1/verify", fmt.Sprintf(`{"trace":%q,"k":5,"instances":[{"depth":3,"assoc":1}]}`, digest)), 400},
		{"error_invalid_sample_rate", post("/v1/explore", fmt.Sprintf(`{"trace":%q,"k":5,"sample_rate":1.5}`, digest)), 400},
		{"error_sample_verify", post("/v1/explore", fmt.Sprintf(`{"trace":%q,"k":5,"sample_rate":0.5,"verify":true}`, digest)), 400},
		{"error_invalid_space", post("/v1/explore", fmt.Sprintf(`{"trace":%q,"space":{"topology":"ring"}}`, digest)), 400},
		{"error_invalid_policy", post("/v1/explore", fmt.Sprintf(`{"trace":%q,"space":{"l1":{"policies":["mru"]}}}`, digest)), 400},
		{"trace_list_page", get("/v1/traces?limit=1"), 200},
		{"trace_delete", del("/v1/traces/" + digest), 200},
	}
	// before holds a request a case needs sent (and accepted) first.
	before := map[string]*http.Request{"trace_list_page": post("/v1/traces", din2.String())}

	dir := filepath.Join("testdata", "api")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if pre := before[c.name]; pre != nil {
				resp, err := http.DefaultClient.Do(pre)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("setup %s %s: status %d", pre.Method, pre.URL.Path, resp.StatusCode)
				}
			}
			resp, err := http.DefaultClient.Do(c.req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.code {
				t.Fatalf("status = %d, want %d\n%s", resp.StatusCode, c.code, body)
			}
			got := canonical(t, body)
			path := filepath.Join(dir, c.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("response shape changed for %s:\n--- golden\n%s\n--- got\n%s", c.name, want, got)
			}
		})
	}
}

// stableCodes are pkg/client's error codes, the only ones a rejection may
// carry.
var stableCodes = []client.ErrorCode{
	client.ErrBadRequest, client.ErrPayloadTooLarge, client.ErrTraceNotFound,
	client.ErrJobNotFound, client.ErrTraceBusy, client.ErrQueueFull,
	client.ErrOverloaded, client.ErrDeadlineExceeded, client.ErrCanceled,
	client.ErrUnavailable, client.ErrInternal, client.ErrInvalidSampleRate,
	client.ErrInvalidSpace, client.ErrInvalidPolicy,
}

// TestErrorCodesLocked pins the set of stable error codes: removing or
// renaming one is a breaking change for every client matching on it.
func TestErrorCodesLocked(t *testing.T) {
	got := make([]string, len(stableCodes))
	for i, c := range stableCodes {
		got[i] = string(c)
	}
	want := []string{
		"bad_request", "canceled", "deadline_exceeded", "internal",
		"invalid_policy", "invalid_sample_rate", "invalid_space",
		"job_not_found", "overloaded", "payload_too_large", "queue_full",
		"trace_busy", "trace_not_found", "unavailable",
	}
	sort.Strings(got)
	if !equalStrings(got, want) {
		t.Fatalf("stable error codes changed:\ngot  %v\nwant %v", got, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
