package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// runAsyncExplore submits an async explore and polls it to completion,
// returning the final status and the submission's response headers.
func runAsyncExplore(t *testing.T, baseURL string, body map[string]any) (JobStatus, http.Header) {
	t.Helper()
	return runAsyncJob(t, baseURL, "/v1/explore", body)
}

// runAsyncJob submits an async request to a compute endpoint and polls
// the job to completion.
func runAsyncJob(t *testing.T, baseURL, path string, body map[string]any) (JobStatus, http.Header) {
	t.Helper()
	data, _ := json.Marshal(body)
	req, err := http.NewRequest("POST", baseURL+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("async %s: code %d: %s", path, resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for st.State != JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		if st.State == JobFailed || st.State == JobCanceled {
			t.Fatalf("job finished as %s: %s", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
		if code := doJSON(t, "GET", baseURL+"/v1/jobs/"+st.ID, nil, &st); code != http.StatusOK {
			t.Fatalf("poll job: code %d", code)
		}
	}
	return st, resp.Header
}

// TestServerJobTraceBreakdown locks the tentpole contract: a job carries a
// span tree whose top-level phases account for (almost) all of the job's
// wall time, the summary surfaces N, N' and the MRCT dedup hit rate, and
// the trace endpoint serves the nested tree with the engine phases in it.
func TestServerJobTraceBreakdown(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(30_000, 1<<10)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	st, hdr := runAsyncExplore(t, ts.URL, map[string]any{
		"trace": info.Digest, "k": 10, "async": true,
	})
	if got := hdr.Get("X-Job-ID"); got != st.ID {
		t.Errorf("X-Job-ID header %q, want %q", got, st.ID)
	}
	if hdr.Get("X-Request-ID") == "" {
		t.Error("response carries no X-Request-ID")
	}

	if st.Trace == nil {
		t.Fatal("finished job has no trace summary")
	}
	sum := st.Trace
	if sum.Name != "job" {
		t.Errorf("summary root %q, want job", sum.Name)
	}
	for _, attr := range []string{"n", "n_unique", "dedup_hit_rate"} {
		if _, ok := sum.Attrs[attr]; !ok {
			t.Errorf("summary missing attr %q: %v", attr, sum.Attrs)
		}
	}
	phases := make(map[string]bool)
	for _, p := range sum.Phases {
		phases[p.Name] = true
	}
	for _, want := range []string{"lookup", "prelude", "postlude", "memoize", "emit"} {
		if !phases[want] {
			t.Errorf("summary missing phase %q: %+v", want, sum.Phases)
		}
	}
	checkPhaseSum(t, "explore", sum)

	// The trace endpoint serves the full nested tree.
	var tree struct {
		Job   string      `json:"job"`
		State JobState    `json:"state"`
		Spans []*obs.Node `json:"spans"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID+"/trace", nil, &tree); code != http.StatusOK {
		t.Fatalf("trace endpoint: code %d", code)
	}
	if len(tree.Spans) != 1 || tree.Spans[0].Name != "job" {
		t.Fatalf("trace roots = %+v, want single job root", tree.Spans)
	}
	names := map[string]int{}
	var walk func(ns []*obs.Node)
	walk = func(ns []*obs.Node) {
		for _, n := range ns {
			names[n.Name]++
			walk(n.Children)
		}
	}
	walk(tree.Spans)
	for _, want := range []string{"job", "lookup", "prelude", "strip", "mrct", "postlude", "level", "emit"} {
		if names[want] == 0 {
			t.Errorf("span tree missing %q: %v", want, names)
		}
	}

	// A second explore at a different budget is a cache hit: its trace has
	// no prelude/postlude, and the lookup span says hit.
	st2, _ := runAsyncExplore(t, ts.URL, map[string]any{
		"trace": info.Digest, "k": 50, "async": true,
	})
	if st2.Trace == nil {
		t.Fatal("cached job has no trace summary")
	}
	for _, p := range st2.Trace.Phases {
		if p.Name == "postlude" {
			t.Errorf("cache-hit job ran a postlude: %+v", st2.Trace.Phases)
		}
	}
}

// checkPhaseSum requires a job's phases, contiguous children of the job
// span, to account for its wall time to within 5%.
func checkPhaseSum(t *testing.T, job string, sum *obs.Summary) {
	t.Helper()
	if sum.WallNS <= 0 || sum.PhaseSumNS <= 0 {
		t.Fatalf("%s: degenerate timing: wall=%d phase_sum=%d", job, sum.WallNS, sum.PhaseSumNS)
	}
	if gap := math.Abs(float64(sum.WallNS-sum.PhaseSumNS)) / float64(sum.WallNS); gap > 0.05 {
		t.Errorf("%s: phase sum %d vs wall %d: gap %.1f%% > 5%%", job, sum.PhaseSumNS, sum.WallNS, 100*gap)
	}
}

// TestServerJobPhasesCoverWallTime holds every other job shape to the
// explore job's phase-sum check, and pins each shape's stage children:
// a cold simulate, a cached simulate, a verify and a space job.
func TestServerJobPhasesCoverWallTime(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var din bytes.Buffer
	if err := trace.WriteText(&din, testTrace(30_000, 1<<10)); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())
	simulate := map[string]any{"trace": info.Digest, "depth": 64, "assoc": 2, "async": true}
	cases := []struct {
		name, path string
		body       map[string]any
		phases     []string
	}{
		{"cold simulate", "/v1/simulate", simulate, []string{"lookup", "simulate", "memoize", "emit"}},
		{"cached simulate", "/v1/simulate", simulate, []string{"lookup", "emit"}},
		{"verify", "/v1/verify", map[string]any{"trace": info.Digest, "k": 1 << 20, "async": true,
			"instances": []map[string]int{{"depth": 64, "assoc": 2}, {"depth": 128, "assoc": 1}}},
			[]string{"verify", "emit"}},
		{"space", "/v1/explore", map[string]any{"trace": info.Digest, "async": true,
			"space": map[string]any{"l1": map[string]any{"max_depth": 16, "max_assoc": 2, "policies": []string{"lru", "fifo"}}}},
			[]string{"lookup", "space", "memoize", "emit"}},
	}
	for _, c := range cases {
		st, _ := runAsyncJob(t, ts.URL, c.path, c.body)
		if st.Trace == nil {
			t.Fatalf("%s: finished job has no trace summary", c.name)
		}
		var got []string
		for _, p := range st.Trace.Phases {
			got = append(got, p.Name)
		}
		if strings.Join(got, ",") != strings.Join(c.phases, ",") {
			t.Errorf("%s: phases %v, want %v", c.name, got, c.phases)
		}
		checkPhaseSum(t, c.name, st.Trace)
	}
}

// jobTree fetches a job's span tree and returns its job root.
func jobTree(t *testing.T, baseURL, id string) *obs.Node {
	t.Helper()
	var tree struct {
		Spans []*obs.Node `json:"spans"`
	}
	if code := doJSON(t, "GET", baseURL+"/v1/jobs/"+id+"/trace", nil, &tree); code != http.StatusOK {
		t.Fatalf("trace endpoint: code %d", code)
	}
	if len(tree.Spans) != 1 || tree.Spans[0].Name != "job" {
		t.Fatalf("trace roots = %+v, want single job root", tree.Spans)
	}
	return tree.Spans[0]
}

// childNames counts the names of a node's direct children.
func childNames(n *obs.Node) map[string]int {
	m := map[string]int{}
	for _, c := range n.Children {
		m[c.Name]++
	}
	return m
}

// TestServerSpansNestUnderTheirStage checks that work done inside a job
// stage is recorded under that stage's span, not beside it: a lookup's
// result-store read under "lookup", and a space exploration's strip and
// policy sweeps under "space". Siblings would make the job's phases
// overlap and their sum overstate its wall time.
func TestServerSpansNestUnderTheirStage(t *testing.T) {
	_, ts, stop := startPersistent(t, t.TempDir(), Config{Logger: obs.NewLogger(io.Discard, "text", slog.LevelInfo)})
	defer stop()
	var din bytes.Buffer
	if err := trace.WriteText(&din, testTrace(5_000, 1<<8)); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	st, _ := runAsyncExplore(t, ts.URL, map[string]any{"trace": info.Digest, "k": 10, "async": true})
	job := jobTree(t, ts.URL, st.ID)
	top := childNames(job)
	if top["store.get"] != 0 {
		t.Errorf("store.get recorded beside lookup: job children %v", top)
	}
	for _, c := range job.Children {
		if c.Name == "lookup" && childNames(c)["store.get"] != 1 {
			t.Errorf("lookup children %v, want one store.get", childNames(c))
		}
	}

	st, _ = runAsyncExplore(t, ts.URL, map[string]any{"trace": info.Digest, "async": true,
		"space": map[string]any{"topology": "unified", "l1": map[string]any{
			"max_depth": 16, "max_assoc": 4, "policies": []string{"lru", "fifo"}}}})
	job = jobTree(t, ts.URL, st.ID)
	top = childNames(job)
	if top["space"] != 1 {
		t.Fatalf("job children %v, want one space span", top)
	}
	for _, name := range []string{"strip", "sweep", "mrct", "postlude"} {
		if top[name] != 0 {
			t.Errorf("%s recorded beside space: job children %v", name, top)
		}
	}
	for _, c := range job.Children {
		if c.Name != "space" {
			continue
		}
		// Every policy of a space goes through the sweeper, LRU included:
		// one strip per (stream, line), one sweep per (stream, line,
		// policy), and no MRCT build or postlude.
		under := childNames(c)
		if under["strip"] != 1 || under["sweep"] != 2 {
			t.Errorf("space children %v, want one strip and two sweeps (lru, fifo)", under)
		}
		for _, name := range []string{"mrct", "postlude"} {
			if under[name] != 0 {
				t.Errorf("space children %v, want no %s", under, name)
			}
		}
	}
}

// TestServerHonorsInboundRequestID checks proxy-correlation: a client
// X-Request-ID is echoed back rather than replaced.
func TestServerHonorsInboundRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest("GET", ts.URL+"/v1/traces", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "req-from-proxy-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-from-proxy-42" {
		t.Errorf("X-Request-ID = %q, want the inbound id echoed", got)
	}
}

// TestServerRequestIDInLogs checks the slog handler injects the request id
// carried by the request context into every record.
func TestServerRequestIDInLogs(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{Logger: obs.NewLogger(&buf, "json", slog.LevelInfo)})
	req, _ := http.NewRequest("GET", ts.URL+"/v1/traces", nil)
	req.Header.Set("X-Request-ID", "logged-id-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), `"request_id":"logged-id-7"`) {
		t.Errorf("log output missing request_id attr:\n%s", buf.String())
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerReadyzDropsOnDrain checks readiness goes 503 once the queue
// stops accepting, while liveness stays 200 — the drain ordering load
// balancers rely on.
func TestServerReadyzDropsOnDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	var rz struct {
		Status string `json:"status"`
	}
	if code := doJSON(t, "GET", ts.URL+"/readyz", nil, &rz); code != http.StatusOK {
		t.Fatalf("readyz before drain: code %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, "GET", ts.URL+"/readyz", nil, &rz); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: code %d, want 503", code)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &hz); code != http.StatusOK {
		t.Fatalf("healthz after drain: code %d, want 200", code)
	}
}

// TestMetricsExpositionUnderLoad scrapes /metrics while jobs run and
// asserts every scrape parses as well-formed Prometheus text exposition:
// HELP/TYPE precede samples, histogram buckets are cumulative and
// monotone, and the +Inf bucket equals the count. Run under -race this
// also exercises the registry's concurrency.
func TestMetricsExpositionUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := testTrace(5_000, 1<<9)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Different max_depth values defeat the result cache so jobs keep
		// the workers busy while the scrapers run.
		depths := []int{0, 1, 2, 4, 8, 16, 32, 64}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			body, _ := json.Marshal(map[string]any{
				"trace": info.Digest, "k": 10, "max_depth": depths[i%len(depths)],
			})
			doJSON(t, "POST", ts.URL+"/v1/explore", body, nil)
		}
	}()

	for i := 0; i < 20; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		checkExposition(t, string(data))
	}
	close(done)
	wg.Wait()
}

// checkExposition validates Prometheus text-format invariants.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]string{}
	// buckets[metric][labels-without-le] = ordered (le, count) pairs.
	type bkt struct {
		le    float64
		count float64
	}
	buckets := map[string][]bkt{}
	counts := map[string]float64{}

	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			if !helped[parts[0]] {
				t.Fatalf("TYPE before HELP for %s", parts[0])
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line: %q", line)
		}
		// Sample line: name{labels} value  or  name value.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(name, suffix); b != name && typed[b] == "histogram" {
				base = b
				break
			}
		}
		if !helped[base] {
			t.Fatalf("sample %q precedes its HELP", line)
		}
		if strings.HasSuffix(name, "_bucket") && typed[base] == "histogram" {
			le := ""
			var rest []string
			for _, l := range strings.Split(labels, ",") {
				if v, ok := strings.CutPrefix(l, `le="`); ok {
					le = strings.TrimSuffix(v, `"`)
				} else if l != "" {
					rest = append(rest, l)
				}
			}
			if le == "" {
				t.Fatalf("bucket sample without le label: %q", line)
			}
			leVal := math.Inf(1)
			if le != "+Inf" {
				leVal, err = strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("bad le %q in %q: %v", le, line, err)
				}
			}
			key := base + "|" + strings.Join(rest, ",")
			buckets[key] = append(buckets[key], bkt{le: leVal, count: val})
		}
		if strings.HasSuffix(name, "_count") && typed[base] == "histogram" {
			counts[base+"|"+labels] = val
		}
	}
	if len(typed) == 0 {
		t.Fatal("exposition contained no metrics")
	}
	for key, bks := range buckets {
		prevLe := math.Inf(-1)
		prevCount := -1.0
		for _, b := range bks {
			if b.le <= prevLe {
				t.Fatalf("%s: bucket boundaries not increasing (%v after %v)", key, b.le, prevLe)
			}
			if b.count < prevCount {
				t.Fatalf("%s: bucket counts not cumulative (%v after %v)", key, b.count, prevCount)
			}
			prevLe, prevCount = b.le, b.count
		}
		last := bks[len(bks)-1]
		if !math.IsInf(last.le, 1) {
			t.Fatalf("%s: no +Inf bucket", key)
		}
		if total, ok := counts[key]; ok && last.count != total {
			t.Fatalf("%s: +Inf bucket %v != count %v", key, last.count, total)
		}
	}
}

// TestQueueForceCanceledReported checks Shutdown records jobs cut off at
// the drain deadline with their IDs, for Close's structured log.
func TestQueueForceCanceledReported(t *testing.T) {
	q := NewQueue(1, 4, 0, 16)
	started := make(chan struct{})
	job, err := q.Submit("explore", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.Shutdown(ctx); err == nil {
		t.Fatal("shutdown returned nil despite a stuck job")
	}
	forced := q.ForceCanceled()
	if len(forced) != 1 || forced[0].ID != job.ID() || forced[0].Kind != "explore" {
		t.Fatalf("forced = %+v, want the stuck job", forced)
	}
	if forced[0].Elapsed <= 0 {
		t.Errorf("forced job elapsed = %v, want > 0", forced[0].Elapsed)
	}
}
