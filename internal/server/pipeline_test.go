package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/example/cachedse/internal/cache"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// histStats reads one histogram series' observation count and sum.
func histStats(h *Histogram) (int64, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum
}

// TestStageMetricsPerRequest checks cachedse_stage_duration_seconds: one
// cold synchronous explore observes each of its five stages exactly once,
// with the request's trace ID as exemplar, and the stages, which run back
// to back inside the request, sum to no more than its duration.
func TestStageMetricsPerRequest(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	var din bytes.Buffer
	if err := trace.WriteText(&din, testTrace(5_000, 1<<9)); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	stages := []string{"parse", "route", "lookup", "compute", "emit", "verify"}
	counts := func() (map[string]int64, float64) {
		m := map[string]int64{}
		total := 0.0
		for _, st := range stages {
			n, sum := histStats(srv.stageLatency.With("explore", st))
			m[st] = n
			total += sum
		}
		return m, total
	}
	reqHist := srv.latency.With("explore")
	reqBefore, reqSumBefore := histStats(reqHist)
	before, stageSumBefore := counts()

	const tid = "5ca1ab1e000000000000000000000042"
	body := fmt.Sprintf(`{"trace":%q,"k":10}`, info.Digest)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/explore", strings.NewReader(body))
	req.Header.Set("traceparent", "00-"+tid+"-0000000000000000-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: code %d", resp.StatusCode)
	}
	// The request histogram is observed after the response is written.
	deadline := time.Now().Add(5 * time.Second)
	for n, _ := histStats(reqHist); n == reqBefore; n, _ = histStats(reqHist) {
		if time.Now().After(deadline) {
			t.Fatal("request duration never observed")
		}
		time.Sleep(time.Millisecond)
	}
	_, reqSum := histStats(reqHist)
	after, stageSum := counts()

	for _, st := range stages {
		want := int64(1)
		if st == "verify" {
			want = 0 // the request asked for no cross-check
		}
		if got := after[st] - before[st]; got != want {
			t.Errorf("stage %q observed %d times, want %d", st, got, want)
		}
	}
	if sum, request := stageSum-stageSumBefore, reqSum-reqSumBefore; sum > request {
		t.Errorf("stage durations sum to %gs, more than the request's %gs", sum, request)
	}
	om, _ := scrapeOM(t, ts.URL)
	for _, st := range stages[:5] {
		prefix := fmt.Sprintf(`cachedse_stage_duration_seconds_bucket{verb="explore",stage=%q,`, st)
		found := false
		for _, line := range strings.Split(om, "\n") {
			if strings.HasPrefix(line, prefix) && strings.Contains(line, `# {trace_id="`+tid+`"}`) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s stage bucket carries the request's exemplar", st)
		}
	}
}

// FuzzComputeRequest drives the parse stage of every compute verb with
// arbitrary bodies and ?sample= values, without computing anything. Parse
// must never panic, every rejection must be a 4xx carrying a locked code,
// and every accepted simulate or verify request must describe caches that
// cache.Config.Validate accepts, so no input reaches a compute step that
// would reject it as a 500.
func FuzzComputeRequest(f *testing.F) {
	const d = "0123456789abcdef0123456789abcdef"
	// Verb 0 is explore, 1 simulate, 2 verify. The seeds are the 22
	// requests behind the v1 API goldens (bodiless and non-compute ones
	// under verb 0), the three simulate geometries that once failed
	// inside the job as 500s, and the three geometries that once passed
	// parse and had their job allocate without bound.
	seeds := []struct {
		golden       string
		verb         uint8
		body, sample string
	}{
		{"trace_upload", 0, "2 0\n0 4\n0 8\n", ""},
		{"trace_get", 0, "", ""},
		{"trace_list", 0, "", ""},
		{"trace_list_kind", 0, "", ""},
		{"cluster", 0, "", ""},
		{"explore", 0, `{"trace":"` + d + `","k":5}`, ""},
		{"explore_cached", 0, `{"trace":"` + d + `","k":3}`, ""},
		{"explore_sampled", 0, `{"trace":"` + d + `","k":5}`, "0.5"},
		{"explore_space", 0, `{"trace":"` + d + `","space":{"topology":"unified","l1":{"max_depth":16,"max_assoc":2,"policies":["lru","fifo"]}}}`, ""},
		{"simulate", 1, `{"trace":"` + d + `","depth":8,"assoc":2}`, ""},
		{"verify", 2, `{"trace":"` + d + `","k":5,"instances":[{"depth":8,"assoc":2}]}`, ""},
		{"error_trace_not_found", 0, "", ""},
		{"error_job_not_found", 0, "", ""},
		{"error_bad_request", 0, `{"trace":`, ""},
		{"error_bad_kind", 0, "", ""},
		{"error_bad_instance", 2, `{"trace":"` + d + `","k":5,"instances":[{"depth":3,"assoc":1}]}`, ""},
		{"error_invalid_sample_rate", 0, `{"trace":"` + d + `","k":5,"sample_rate":1.5}`, ""},
		{"error_sample_verify", 0, `{"trace":"` + d + `","k":5,"sample_rate":0.5,"verify":true}`, ""},
		{"error_invalid_space", 0, `{"trace":"` + d + `","space":{"topology":"ring"}}`, ""},
		{"error_invalid_policy", 0, `{"trace":"` + d + `","space":{"l1":{"policies":["mru"]}}}`, ""},
		{"trace_list_page", 0, "", ""},
		{"trace_delete", 0, "", ""},
		{"", 1, `{"trace":"` + d + `","depth":4,"assoc":-1}`, ""},
		{"", 1, `{"trace":"` + d + `","depth":4,"line_words":3}`, ""},
		{"", 1, `{"trace":"` + d + `","depth":4,"line_words":-2}`, ""},
		{"", 1, `{"trace":"` + d + `","depth":1073741824}`, ""},
		{"", 2, `{"trace":"` + d + `","k":5,"instances":[{"depth":1073741824,"assoc":1}]}`, ""},
		{"", 0, `{"trace":"` + d + `","space":{"topology":"unified","l1":{"policies":["fifo"],"max_assoc":100000}}}`, ""},
	}
	for _, s := range seeds {
		f.Add(s.verb, []byte(s.body), s.sample)
	}
	parsers := []func([]byte, url.Values) (computeRequest, *apiError){parseExplore, parseSimulate, parseVerify}
	f.Fuzz(func(t *testing.T, verb uint8, body []byte, sample string) {
		query := url.Values{}
		if sample != "" {
			query.Set("sample", sample)
		}
		req, perr := parsers[int(verb)%len(parsers)](body, query)
		if perr != nil {
			if perr.status < 400 || perr.status > 499 || !slices.Contains(stableCodes, perr.code) {
				t.Fatalf("rejection %d %q is not a 4xx with a locked code: %s", perr.status, perr.code, perr.msg)
			}
			return
		}
		switch q := req.(type) {
		case *simulateRequest:
			if err := q.cfg.Validate(); err != nil {
				t.Fatalf("accepted simulate config %+v: %v", q.cfg, err)
			}
			if float64(q.cfg.Depth)*float64(q.cfg.Assoc) > maxCacheLines {
				t.Fatalf("accepted simulate config %+v past %d lines", q.cfg, maxCacheLines)
			}
		case *verifyRequest:
			for _, ins := range q.instances {
				if err := (cache.Config{Depth: ins.Depth, Assoc: ins.Assoc}).Validate(); err != nil {
					t.Fatalf("accepted verify instance %v: %v", ins, err)
				}
				if float64(ins.Depth)*float64(ins.Assoc) > maxCacheLines {
					t.Fatalf("accepted verify instance %v past %d lines", ins, maxCacheLines)
				}
			}
		case *spaceQuery:
			n := q.space.Normalized()
			for _, ls := range []core.LevelSpace{n.L1, n.L2} {
				if a := float64(ls.MaxAssoc); float64(ls.MaxDepth)*a*(a+1)/2 > dse.MaxSweepWays {
					t.Fatalf("accepted space level %+v past %d sweep ways", ls, dse.MaxSweepWays)
				}
			}
		case nil:
			t.Fatal("parse accepted no request")
		}
	})
}

// TestParseBoundsGeometry calls the parse stages directly: a geometry
// whose job would allocate past the bounds is a 400 at parse, with
// nothing allocated, and a geometry at a bound is accepted.
func TestParseBoundsGeometry(t *testing.T) {
	const d = "0123456789abcdef0123456789abcdef"
	parsers := map[string]func([]byte, url.Values) (computeRequest, *apiError){
		"simulate": parseSimulate, "verify": parseVerify, "explore": parseExplore,
	}
	for _, c := range []struct {
		verb, body string
		code       client.ErrorCode // "" when the request is accepted
	}{
		{"simulate", `{"depth":1073741824}`, client.ErrBadRequest},
		{"simulate", `{"depth":1048576,"assoc":5}`, client.ErrBadRequest},
		{"simulate", `{"depth":1,"assoc":9223372036854775807}`, client.ErrBadRequest},
		{"simulate", `{"depth":1048576,"assoc":4}`, ""},
		{"verify", `{"k":5,"instances":[{"depth":8,"assoc":2},{"depth":1073741824,"assoc":1}]}`, client.ErrBadRequest},
		{"verify", `{"k":5,"instances":[{"depth":4194304,"assoc":1}]}`, ""},
		{"explore", `{"space":{"topology":"unified","l1":{"policies":["fifo"],"max_assoc":100000}}}`, client.ErrInvalidSpace},
		{"explore", `{"space":{"topology":"unified","l1":{"max_assoc":9223372036854775807}}}`, client.ErrInvalidSpace},
		{"explore", `{"space":{"topology":"unified","l1":{"max_depth":1048576,"max_assoc":7}}}`, client.ErrInvalidSpace},
		{"explore", `{"space":{"topology":"split+l2","l2":{"max_depth":1048576,"max_assoc":7}}}`, client.ErrInvalidSpace},
		{"explore", `{"space":{"topology":"split","l2":{"max_depth":1048576,"max_assoc":7}}}`, ""},
		{"explore", `{"space":{"topology":"unified","l1":{"max_depth":1048576,"max_assoc":5}}}`, ""},
		{"explore", `{"space":{"topology":"split+l2","l1":{"policies":["lru","fifo","plru"]},"l2":{"policies":["lru","fifo","plru"]}}}`, ""},
	} {
		body := `{"trace":"` + d + `",` + c.body[1:]
		_, perr := parsers[c.verb]([]byte(body), url.Values{})
		switch {
		case c.code == "" && perr != nil:
			t.Errorf("%s %s: rejected %d %s: %s", c.verb, c.body, perr.status, perr.code, perr.msg)
		case c.code != "" && perr == nil:
			t.Errorf("%s %s: accepted, want 400 %s", c.verb, c.body, c.code)
		case c.code != "" && (perr.status != http.StatusBadRequest || perr.code != c.code):
			t.Errorf("%s %s: rejected %d %s, want 400 %s", c.verb, c.body, perr.status, perr.code, c.code)
		}
	}
}
