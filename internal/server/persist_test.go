package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// startPersistent boots a server over dir and returns it with its test
// listener plus a shutdown func — unlike newTestServer the caller controls
// when it stops, so a test can "restart" by stopping one instance and
// booting another over the same directory.
func startPersistent(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	cfg.StoreDir = dir
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	stop := func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	}
	return srv, ts, stop
}

// TestServerRestartPersistence is the durability contract end to end:
// everything a client uploaded or computed before a restart is still
// served afterwards — the trace by digest, the exploration as a cache
// hit with identical instances, the simulation as a cache hit.
func TestServerRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(800, 1<<9)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}

	_, ts, stop := startPersistent(t, dir, Config{})
	info, code := uploadTrace(t, ts, din.Bytes())
	if code != http.StatusCreated {
		t.Fatalf("upload: code %d", code)
	}
	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 25})
	var exp1 client.ExploreResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &exp1); code != http.StatusOK {
		t.Fatalf("explore: code %d", code)
	}
	if exp1.Cached {
		t.Fatal("first explore reported cached")
	}
	simBody, _ := json.Marshal(map[string]any{"trace": info.Digest, "depth": 64, "assoc": 2})
	var sim1 client.SimulateResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/simulate", simBody, &sim1); code != http.StatusOK {
		t.Fatalf("simulate: code %d", code)
	}
	stop()

	// A whole new process over the same directory.
	srv2, ts2, stop2 := startPersistent(t, dir, Config{})
	defer stop2()
	if n := srv2.store.Len(); n != 1 {
		t.Fatalf("restarted server holds %d traces, want 1", n)
	}
	var got client.TraceInfo
	if code := doJSON(t, "GET", ts2.URL+"/v1/traces/"+info.Digest, nil, &got); code != http.StatusOK {
		t.Fatalf("restarted GET trace: code %d", code)
	}
	if got.Digest != info.Digest || got.N != info.N || got.NUnique != info.NUnique {
		t.Fatalf("restarted trace info %+v, want %+v", got, info)
	}

	var exp2 client.ExploreResponse
	if code := doJSON(t, "POST", ts2.URL+"/v1/explore", body, &exp2); code != http.StatusOK {
		t.Fatalf("restarted explore: code %d", code)
	}
	if !exp2.Cached {
		t.Fatal("restarted explore recomputed instead of hitting the persisted cache")
	}
	if !reflect.DeepEqual(exp1.Instances, exp2.Instances) || exp1.Table != exp2.Table {
		t.Fatalf("restarted explore differs:\n%+v\nvs\n%+v", exp1, exp2)
	}

	var sim2 client.SimulateResponse
	if code := doJSON(t, "POST", ts2.URL+"/v1/simulate", simBody, &sim2); code != http.StatusOK {
		t.Fatalf("restarted simulate: code %d", code)
	}
	if !sim2.Cached {
		t.Fatal("restarted simulate recomputed instead of hitting the persisted cache")
	}
	if sim2.Misses != sim1.Misses || sim2.Hits != sim1.Hits {
		t.Fatalf("restarted simulate differs: %+v vs %+v", sim2, sim1)
	}
}

// Deleting a trace deletes it durably: after a restart neither the trace
// nor any result derived from it comes back.
func TestServerDeleteIsDurable(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(400, 1<<8)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}

	_, ts, stop := startPersistent(t, dir, Config{})
	info, _ := uploadTrace(t, ts, din.Bytes())
	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 10})
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, nil); code != http.StatusOK {
		t.Fatalf("explore: code %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/traces/"+info.Digest, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: code %d", code)
	}
	stop()

	srv2, ts2, stop2 := startPersistent(t, dir, Config{})
	defer stop2()
	if n := srv2.store.Len(); n != 0 {
		t.Fatalf("deleted trace resurrected: %d traces after restart", n)
	}
	if srv2.results.Len() != 0 {
		t.Fatalf("deleted trace's results resurrected: %d cached", srv2.results.Len())
	}
	if code := doJSON(t, "GET", ts2.URL+"/v1/traces/"+info.Digest, nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET deleted trace after restart: code %d, want 404", code)
	}
}

// A corrupted persisted object must not poison boot: the damaged entry is
// dropped (and can be re-uploaded), everything else survives.
func TestServerWarmStartSkipsCorruptObjects(t *testing.T) {
	dir := t.TempDir()
	trA, trB := testTrace(300, 1<<8), testTrace(500, 1<<9)
	var dinA, dinB bytes.Buffer
	if err := trace.WriteText(&dinA, trA); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(&dinB, trB); err != nil {
		t.Fatal(err)
	}

	srv, ts, stop := startPersistent(t, dir, Config{})
	infoA, _ := uploadTrace(t, ts, dinA.Bytes())
	infoB, _ := uploadTrace(t, ts, dinB.Bytes())
	entry, ok := srv.persist.Stat(traceKeyPrefix + infoA.Digest)
	if !ok {
		t.Fatal("uploaded trace not persisted")
	}
	stop()

	// Flip a byte of A's object on disk.
	objPath := filepath.Join(dir, "objects", entry.Object)
	raw, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(objPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2, stop2 := startPersistent(t, dir, Config{})
	defer stop2()
	if code := doJSON(t, "GET", ts2.URL+"/v1/traces/"+infoA.Digest, nil, nil); code != http.StatusNotFound {
		t.Fatalf("corrupt trace after restart: code %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts2.URL+"/v1/traces/"+infoB.Digest, nil, nil); code != http.StatusOK {
		t.Fatalf("intact trace after restart: code %d, want 200", code)
	}
	// The damaged key was purged, so re-uploading works cleanly.
	if _, code := uploadTrace(t, ts2, dinA.Bytes()); code != http.StatusCreated {
		t.Fatalf("re-upload after corruption: code %d, want 201", code)
	}
	_ = srv2
}

// A trace the MaxTraces LRU evicted from memory is still durable, so GET
// and explore must serve it from the store (read-through + re-promote)
// rather than 404ing on bytes the disk still holds.
func TestServerEvictedTraceServedFromDisk(t *testing.T) {
	dir := t.TempDir()
	trA, trB := testTrace(300, 1<<8), testTrace(500, 1<<9)
	var dinA, dinB bytes.Buffer
	if err := trace.WriteText(&dinA, trA); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(&dinB, trB); err != nil {
		t.Fatal(err)
	}

	srv, ts, stop := startPersistent(t, dir, Config{MaxTraces: 1})
	defer stop()
	infoA, _ := uploadTrace(t, ts, dinA.Bytes())
	infoB, _ := uploadTrace(t, ts, dinB.Bytes())
	if n := srv.store.Len(); n != 1 {
		t.Fatalf("LRU holds %d traces, want 1", n)
	}

	// A was evicted by B's upload; the read-through re-promotes it.
	var got client.TraceInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/traces/"+infoA.Digest, nil, &got); code != http.StatusOK {
		t.Fatalf("GET evicted trace: code %d, want 200", code)
	}
	if got.N != infoA.N || got.NUnique != infoA.NUnique {
		t.Fatalf("re-promoted trace info %+v, want %+v", got, infoA)
	}
	// And B — now the evicted one — is explorable end to end.
	body, _ := json.Marshal(map[string]any{"trace": infoB.Digest, "k": 10})
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, nil); code != http.StatusOK {
		t.Fatalf("explore evicted trace: code %d, want 200", code)
	}
}

// A deduplicated re-upload must still make the trace durable when the
// disk copy is missing (an earlier persist failed, or the server ran
// without -store when the trace first arrived).
func TestServerReuploadPersistsMissingTrace(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(300, 1<<8)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}

	srv, ts, stop := startPersistent(t, dir, Config{})
	defer stop()
	info, _ := uploadTrace(t, ts, din.Bytes())
	if _, err := srv.persist.Delete(traceKeyPrefix + info.Digest); err != nil {
		t.Fatal(err)
	}

	if _, code := uploadTrace(t, ts, din.Bytes()); code != http.StatusOK {
		t.Fatalf("re-upload: code %d, want 200", code)
	}
	if _, ok := srv.persist.Stat(traceKeyPrefix + info.Digest); !ok {
		t.Fatal("re-upload of a dedup'd trace did not re-persist it")
	}
}

// DELETE on a trace a queued or running job references is refused with
// 409 until the job drains.
func TestServerDeleteBusyTrace(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	release := occupyWorker(t, srv)

	tr := testTrace(300, 1<<8)
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, _ := uploadTrace(t, ts, din.Bytes())

	// With the only worker occupied this job stays queued, holding a
	// reference to the trace.
	body, _ := json.Marshal(map[string]any{"trace": info.Digest, "k": 5, "async": true})
	var st JobStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &st); code != http.StatusAccepted {
		t.Fatalf("async explore: code %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/traces/"+info.Digest, nil, nil); code != http.StatusConflict {
		t.Fatalf("delete busy trace: code %d, want 409", code)
	}

	// Drain the job; the reference is released and delete succeeds.
	release()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+st.ID, nil, &st); code != http.StatusOK {
			t.Fatalf("job poll: code %d", code)
		}
		if st.State == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		if !srv.active.busy(info.Digest) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/traces/"+info.Digest, nil, nil); code != http.StatusOK {
		t.Fatalf("delete after drain: code %d, want 200", code)
	}
}
