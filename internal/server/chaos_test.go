package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// chaosClient builds a pkg/client with fast, persistent retries suited to
// a deliberately faulty server.
func chaosClient(ts *httptest.Server) *client.Client {
	return client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	}))
}

// armFaults arms the shared registry for the test's duration.
func armFaults(t *testing.T, spec string, seed uint64) {
	t.Helper()
	if err := faultinject.Arm(spec, seed); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disarm)
}

// TestChaosBitIdenticalUnderFaults hammers a tiny, fault-injected server
// with explorations and checks every eventually-successful answer is
// bit-identical to the locally computed ground truth: injected store
// failures, slow postludes and queue drops may cost retries, never
// correctness.
func TestChaosBitIdenticalUnderFaults(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2, StoreDir: t.TempDir()})
	_ = srv
	c := chaosClient(ts)

	tr := testTrace(2_000, 1<<9)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, err := c.UploadTrace(context.Background(), din.Bytes())
	if err != nil {
		t.Fatalf("upload: %v", err)
	}

	// Ground truth, computed in-process with the same engine.
	res, err := core.Explore(context.Background(), tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := trace.ComputeStats(tr)

	before := faultinject.TotalFires()
	armFaults(t,
		"tracestore.*=error()@0.4;core.postlude=delay(1ms)@0.5;queue.run=error()@0.3;queue.submit=error()@0.2",
		42)

	for i := 0; i < 15; i++ {
		k := 5 + i*7
		want, _ := dse.InstanceTable(res, k, stats.MaxMisses, false)
		got, err := c.Explore(context.Background(), client.ExploreRequest{
			Trace: info.Digest, K: &k,
		})
		if err != nil {
			t.Fatalf("explore k=%d under faults: %v", k, err)
		}
		if got.K != k || got.MaxMisses != stats.MaxMisses {
			t.Fatalf("explore k=%d: got K=%d MaxMisses=%d", k, got.K, got.MaxMisses)
		}
		if len(got.Instances) != len(want) {
			t.Fatalf("explore k=%d: %d instances, want %d", k, len(got.Instances), len(want))
		}
		for j, ins := range got.Instances {
			exp := client.Instance{
				Depth:     want[j].Depth,
				Assoc:     want[j].Assoc,
				SizeWords: want[j].SizeWords(),
				Misses:    res.Level(want[j].Depth).Misses(want[j].Assoc),
			}
			if !reflect.DeepEqual(ins, exp) {
				t.Fatalf("explore k=%d instance %d = %+v, want %+v (results must be bit-identical)", k, j, ins, exp)
			}
		}
	}
	if fired := faultinject.TotalFires() - before; fired == 0 {
		t.Fatal("chaos run injected zero faults; the test exercised nothing")
	}
}

// TestChaosInjectedPanicIsContained proves a panicking job takes down
// neither the worker nor the server: the request fails with a 500-coded
// error, and once the fault is disarmed the same server answers normally.
func TestChaosInjectedPanicIsContained(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	c := chaosClient(ts)

	tr := testTrace(300, 1<<7)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, err := c.UploadTrace(context.Background(), din.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	armFaults(t, "queue.run=panic()@1", 7)
	k := 5
	_, err = c.Explore(context.Background(), client.ExploreRequest{Trace: info.Digest, K: &k})
	if !errors.Is(err, client.ErrInternal) {
		t.Fatalf("explore with 100%% panic injection: err = %v, want ErrInternal through retries", err)
	}

	faultinject.Disarm()
	resp, err := c.Explore(context.Background(), client.ExploreRequest{Trace: info.Digest, K: &k})
	if err != nil {
		t.Fatalf("explore after disarm: %v (the pool must survive injected panics)", err)
	}
	if len(resp.Instances) == 0 {
		t.Fatal("explore after disarm returned no instances")
	}
}

// TestChaosSweepPanicIsContained: a space job's policy sweeps run on
// goroutines of their own, and a panic on one of them must still fail
// only that job. With the sweeps fanned out (GOMAXPROCS 4) and every
// sweep panicking, the space request fails with a 500-coded error, and
// once the fault is disarmed the same server answers it.
func TestChaosSweepPanicIsContained(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	c := chaosClient(ts)

	tr := testTrace(300, 1<<7)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, err := c.UploadTrace(context.Background(), din.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	req := client.ExploreRequest{Trace: info.Digest, Space: &client.Space{
		L1: &client.SpaceLevel{MaxDepth: 64, MaxAssoc: 4, Policies: []string{"lru", "fifo", "plru"}},
	}}

	armFaults(t, "dse.sweep=panic()@1", 7)
	if _, err := c.Explore(context.Background(), req); !errors.Is(err, client.ErrInternal) {
		t.Fatalf("space explore with every sweep panicking: err = %v, want ErrInternal through retries", err)
	}

	faultinject.Disarm()
	resp, err := c.Explore(context.Background(), req)
	if err != nil {
		t.Fatalf("space explore after disarm: %v (the server must survive sweep panics)", err)
	}
	if len(resp.Pareto) == 0 {
		t.Fatal("space explore after disarm returned an empty front")
	}
}

// TestChaosMetricsMonotone scrapes the counters before and after a chaos
// burst and checks they only move up — a panicking or shedding server
// must never lose or rewind its accounting.
func TestChaosMetricsMonotone(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	c := chaosClient(ts)

	tr := testTrace(300, 1<<7)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, err := c.UploadTrace(context.Background(), din.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	counters := func() map[string]float64 {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out := map[string]float64{}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
			var name string
			var v float64
			if _, err := fmt.Sscanf(string(line), "%s %g", &name, &v); err == nil {
				out[name] += v // sum across label sets
			}
		}
		return out
	}

	before := counters()
	armFaults(t, "queue.run=error()@0.5;queue.submit=error()@0.3", 99)
	k := 5
	for i := 0; i < 10; i++ {
		c.Explore(context.Background(), client.ExploreRequest{Trace: info.Digest, K: &k})
	}
	faultinject.Disarm()
	after := counters()

	for _, name := range []string{
		"cachedse_jobs_done_total", "cachedse_jobs_failed_total",
		"cachedse_shed_total", "cachedse_faults_injected_total",
	} {
		// Counters with no series yet are 0 on both sides; that still
		// satisfies monotonicity.
		if after[name] < before[name] {
			t.Errorf("counter %s went backwards: %g -> %g", name, before[name], after[name])
		}
	}
	if after["cachedse_faults_injected_total"] == 0 {
		t.Error("fault counter never moved during the chaos burst")
	}
	_ = srv
}

// TestChaosDrainUnderFaults shuts a fault-injected server down mid-load
// and requires a clean drain: Close returns without error and the queue
// refuses (rather than loses) late work.
func TestChaosDrainUnderFaults(t *testing.T) {
	cfg := Config{Workers: 2, QueueDepth: 4, Logger: obs.NewLogger(io.Discard, "text", slog.LevelError)}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := chaosClient(ts)

	tr := testTrace(500, 1<<8)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, err := c.UploadTrace(context.Background(), din.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	armFaults(t, "core.postlude=delay(2ms)@0.8;queue.run=error()@0.2", 5)

	// Async jobs in flight while we pull the plug.
	for i := 0; i < 4; i++ {
		k := 3 + i
		c.ExploreAsync(context.Background(), client.ExploreRequest{Trace: info.Digest, K: &k})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("drain under faults: %v", err)
	}
	// Late submissions meet a closed queue, not a hang or a panic.
	k := 99
	_, err = c.Explore(context.Background(), client.ExploreRequest{Trace: info.Digest, K: &k})
	if err == nil {
		t.Fatal("explore after drain should fail")
	}
}
