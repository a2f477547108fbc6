package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/example/cachedse/internal/cluster"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/minicbench"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// dinBody renders tr as a .din upload body.
func dinBody(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	return din.Bytes()
}

// mixedTrace is testTrace with every third reference an instruction
// fetch, so its kind is "mixed".
func mixedTrace(n int, addrSpace uint32) *trace.Trace {
	tr := testTrace(n, addrSpace)
	for i := 0; i < n; i += 3 {
		tr.Refs[i].Kind = trace.Instr
	}
	return tr
}

// heldImage returns the ctz1 image srv holds for digest.
func heldImage(t *testing.T, srv *Server, digest string) []byte {
	t.Helper()
	e, ok := srv.store.Get(digest)
	if !ok {
		t.Fatalf("no entry held for %s", digest)
	}
	return e.image
}

// memoizedMRCT returns the conflict table e has memoized, nil before its
// first prelude.
func memoizedMRCT(e *TraceEntry) *core.MRCT {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mrct
}

// fetchBytes sends a request and returns its status and body. With local
// set it carries the cluster hop guard, so a cluster node serves the
// request itself, as it serves a peer's forwarded request.
func fetchBytes(t *testing.T, method, u string, body []byte, local bool) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if local {
		req.Header.Set(cluster.ForwardedHeader, "test")
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
	return resp.StatusCode, data
}

// objectURL is the peer read-repair URL of a trace object on a node.
func objectURL(base, digest string) string {
	return base + "/v1/cluster/objects?key=" + url.QueryEscape(traceKeyPrefix+digest)
}

// peerFetched uploads body to node 0 of a two-node memory-only cluster
// alone, then has node 1 serve the trace, which it can only get by
// fetching node 0's copy. It returns the cluster, the upload's info and
// node 1's info.
func peerFetched(t *testing.T, body []byte) (*testCluster, client.TraceInfo, client.TraceInfo) {
	t.Helper()
	tc := startCluster(t, 2, false)
	var up, got client.TraceInfo
	code, data := fetchBytes(t, "POST", tc.nodes[0].url+"/v1/traces", body, true)
	if code != http.StatusCreated {
		t.Fatalf("upload to n0: code %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &up); err != nil {
		t.Fatal(err)
	}
	if _, ok := tc.nodes[1].srv.store.Get(up.Digest); ok {
		t.Fatal("the upload reached n1; the peer fetch would test nothing")
	}
	code, data = fetchBytes(t, "GET", tc.nodes[1].url+"/v1/traces/"+up.Digest, nil, true)
	if code != http.StatusOK {
		t.Fatalf("GET on n1: code %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if v := nodeMetricValue(t, tc.nodes[1].url, "cachedse_cluster_read_repairs_total"); v != 1 {
		t.Fatalf("n1 read repairs = %v, want 1", v)
	}
	return tc, up, got
}

// TestServerPreludePassesEngineFailpoints: the server builds its prelude
// through the engine's strip and MRCT passes, so an armed core.strip or
// core.mrct fails a cold explore. Nothing of the failed build is
// memoized, and once the fault is disarmed the next explore succeeds.
func TestServerPreludePassesEngineFailpoints(t *testing.T) {
	for _, site := range []string{"core.strip", "core.mrct"} {
		t.Run(site, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{Workers: 1})
			info, _ := uploadTrace(t, ts, dinBody(t, testTrace(500, 1<<8)))
			entry, _ := srv.store.Get(info.Digest)
			body := []byte(fmt.Sprintf(`{"trace":%q,"k":10}`, info.Digest))

			armFaults(t, site+"=error()@1", 1)
			if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, nil); code == http.StatusOK {
				t.Fatalf("explore with %s armed: code 200, want a failure", site)
			}
			if memoizedMRCT(entry) != nil || srv.results.Len() != 0 {
				t.Fatalf("the failed explore memoized a prelude or a result (%d results)", srv.results.Len())
			}

			faultinject.Disarm()
			var resp client.ExploreResponse
			if code := doJSON(t, "POST", ts.URL+"/v1/explore", body, &resp); code != http.StatusOK {
				t.Fatalf("explore after disarm: code %d", code)
			}
			if resp.Cached || len(resp.Instances) == 0 || memoizedMRCT(entry) == nil {
				t.Fatalf("explore after disarm: cached %v, %d instances, prelude memoized %v",
					resp.Cached, len(resp.Instances), memoizedMRCT(entry) != nil)
			}
		})
	}
}

// TestTraceInfoSameOnEveryArrival: a trace's wire info, the figures its
// entry derives once, is the same whichever way the entry was made: from
// an upload, at a warm start, by an LRU revive from disk and by a peer
// fetch on a memory-only node.
func TestTraceInfoSameOnEveryArrival(t *testing.T) {
	body := dinBody(t, mixedTrace(900, 1<<12))
	dir := t.TempDir()
	_, ts, stop := startPersistent(t, dir, Config{MaxTraces: 1})
	want, code := uploadTrace(t, ts, body)
	if code != http.StatusCreated {
		t.Fatalf("upload: code %d", code)
	}
	if want.Kind != "mixed" || want.AddrBits != 12 {
		t.Fatalf("uploaded info %+v, want a mixed trace of 12 address bits", want)
	}
	stop()
	same := func(how string, got client.TraceInfo) {
		t.Helper()
		got.Uploaded = want.Uploaded
		if !reflect.DeepEqual(got, want) {
			t.Errorf("info after %s = %+v, want %+v", how, got, want)
		}
	}

	_, ts2, stop2 := startPersistent(t, dir, Config{MaxTraces: 1})
	defer stop2()
	var got client.TraceInfo
	if code := doJSON(t, "GET", ts2.URL+"/v1/traces/"+want.Digest, nil, &got); code != http.StatusOK {
		t.Fatalf("GET after restart: code %d", code)
	}
	same("warm start", got)

	// A second upload evicts the trace from the one-trace LRU.
	if _, code := uploadTrace(t, ts2, dinBody(t, testTrace(300, 1<<7))); code != http.StatusCreated {
		t.Fatalf("second upload: code %d", code)
	}
	got = client.TraceInfo{}
	if code := doJSON(t, "GET", ts2.URL+"/v1/traces/"+want.Digest, nil, &got); code != http.StatusOK {
		t.Fatalf("GET after eviction: code %d", code)
	}
	same("LRU revive", got)

	_, up, fetched := peerFetched(t, body)
	same("upload to a cluster node", up)
	same("peer fetch", fetched)
}

// TestPeerFetchKeepsImage: a memory-only node keeps the image its peer
// served byte for byte, and explores it to the peer's own answer.
func TestPeerFetchKeepsImage(t *testing.T) {
	tc, up, _ := peerFetched(t, dinBody(t, testTrace(1_500, 1<<9)))
	src, kept := heldImage(t, tc.nodes[0].srv, up.Digest), heldImage(t, tc.nodes[1].srv, up.Digest)
	if !bytes.Equal(kept, src) {
		t.Fatalf("n1 keeps %d bytes that differ from n0's %d-byte image", len(kept), len(src))
	}
	body := []byte(fmt.Sprintf(`{"trace":%q,"k":20}`, up.Digest))
	var answers [2]client.ExploreResponse
	for i := range answers {
		code, data := fetchBytes(t, "POST", tc.nodes[i].url+"/v1/explore", body, true)
		if code != http.StatusOK {
			t.Fatalf("explore on n%d: code %d: %s", i, code, data)
		}
		if err := json.Unmarshal(data, &answers[i]); err != nil {
			t.Fatal(err)
		}
	}
	if answers[0].Table != answers[1].Table || !reflect.DeepEqual(answers[0].Instances, answers[1].Instances) {
		t.Fatalf("n1 explores the fetched image to %+v, n0 to %+v", answers[1].Instances, answers[0].Instances)
	}
}

// TestClusterObjectServesHeldImage: GET /v1/cluster/objects serves a
// trace's held image, the bytes -store persists. A store-backed node
// serves a trace its LRU evicted from disk, and a memory-only node serves
// the image it holds.
func TestClusterObjectServesHeldImage(t *testing.T) {
	a, b := dinBody(t, testTrace(800, 1<<9)), dinBody(t, testTrace(400, 1<<8))
	t.Run("store", func(t *testing.T) {
		srv, ts, stop := startPersistent(t, t.TempDir(), Config{MaxTraces: 1})
		defer stop()
		info, _ := uploadTrace(t, ts, a)
		persisted, err := srv.persist.GetLocal(traceKeyPrefix + info.Digest)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(persisted, heldImage(t, srv, info.Digest)) {
			t.Fatal("the persisted object is not the held image")
		}
		if code, got := fetchBytes(t, "GET", objectURL(ts.URL, info.Digest), nil, false); code != http.StatusOK || !bytes.Equal(got, persisted) {
			t.Fatalf("object of a held trace: code %d, %d bytes, want the %d persisted", code, len(got), len(persisted))
		}
		uploadTrace(t, ts, b)
		if _, ok := srv.store.Get(info.Digest); ok {
			t.Fatal("the second upload did not evict the first trace")
		}
		if code, got := fetchBytes(t, "GET", objectURL(ts.URL, info.Digest), nil, false); code != http.StatusOK || !bytes.Equal(got, persisted) {
			t.Fatalf("object of an evicted trace: code %d, %d bytes, want the %d persisted", code, len(got), len(persisted))
		}
	})
	t.Run("memory", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{})
		info, _ := uploadTrace(t, ts, a)
		code, got := fetchBytes(t, "GET", objectURL(ts.URL, info.Digest), nil, false)
		if code != http.StatusOK || !bytes.Equal(got, heldImage(t, srv, info.Digest)) {
			t.Fatalf("object: code %d, %d bytes, want the held image", code, len(got))
		}
		tr, err := trace.DecodeBytes(got, trace.Limits{})
		if err != nil || TraceDigest(tr) != info.Digest {
			t.Fatalf("served image decodes to a trace of digest %v (err %v), want %s", TraceDigest(tr), err, info.Digest)
		}
		if code, _ := fetchBytes(t, "GET", objectURL(ts.URL, "00ff"), nil, false); code != http.StatusNotFound {
			t.Fatalf("object of an unknown trace: code %d, want 404", code)
		}
	})
}

// TestWarmStartAdmitsNewestMaxTraces: with MaxTraces+3 traces on disk a
// restart admits the newest MaxTraces, the ones the LRU keeps, and reads
// no other: a damaged older object survives the boot, and is dropped at
// its first lookup, while an intact older trace revives on lookup.
func TestWarmStartAdmitsNewestMaxTraces(t *testing.T) {
	const maxTraces = 2
	dir := t.TempDir()
	srv, ts, stop := startPersistent(t, dir, Config{MaxTraces: maxTraces})
	var infos []client.TraceInfo
	for i := 0; i < maxTraces+3; i++ {
		info, code := uploadTrace(t, ts, dinBody(t, testTrace(200+50*i, 1<<8)))
		if code != http.StatusCreated {
			t.Fatalf("upload %d: code %d", i, code)
		}
		infos = append(infos, info)
	}
	oldest, ok := srv.persist.Stat(traceKeyPrefix + infos[0].Digest)
	if !ok {
		t.Fatal("the oldest trace was not persisted")
	}
	stop()
	obj := filepath.Join(dir, "objects", oldest.Object)
	raw, err := os.ReadFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(obj, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2, stop2 := startPersistent(t, dir, Config{MaxTraces: maxTraces})
	defer stop2()
	if n := srv2.store.Len(); n != maxTraces {
		t.Fatalf("warm start holds %d traces, want %d", n, maxTraces)
	}
	for _, info := range infos[len(infos)-maxTraces:] {
		if _, ok := srv2.store.Get(info.Digest); !ok {
			t.Fatalf("warm start did not admit %s, one of the newest", info.Digest)
		}
	}
	if _, ok := srv2.persist.Stat(traceKeyPrefix + infos[0].Digest); !ok {
		t.Fatal("warm start read, and dropped, a damaged trace older than the ones it admits")
	}
	var got client.TraceInfo
	if code := doJSON(t, "GET", ts2.URL+"/v1/traces/"+infos[1].Digest, nil, &got); code != http.StatusOK || got.N != infos[1].N {
		t.Fatalf("GET of an older intact trace: code %d, info %+v", code, got)
	}
	if code := doJSON(t, "GET", ts2.URL+"/v1/traces/"+infos[0].Digest, nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET of the damaged trace: code %d, want 404", code)
	}
	if _, ok := srv2.persist.Stat(traceKeyPrefix + infos[0].Digest); ok {
		t.Fatal("the damaged trace's object outlived its first lookup")
	}
}

// liveHeap returns the bytes of live heap objects after full collections,
// which also empty the sync.Pools.
func liveHeap() int {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}

// Slack of the trace tier's resident bound (DESIGN.md, "Trace tier"): the
// entry and the server's bookkeeping for one more trace, and after an
// explore the strip's O(N′) tables, the parallel strip's per-core scratch,
// the conflict table's arena tails and the memoized result.
const (
	heldSlack     = 64 << 10
	exploredSlack = 1 << 20
)

// TestStoredTraceResidentBytes holds the trace tier to its resident bound
// on both streams of the compiled crc kernel: a stored trace holds its
// ctz1 image plus heldSlack, and after an explore its image, the 4N B
// strip and MRCT.Bytes() plus exploredSlack. The decoded references, 8N
// B, are held by neither.
func TestStoredTraceResidentBytes(t *testing.T) {
	res, err := minicbench.Get("crc").Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*trace.Trace{res.Instr, res.Data} {
		n, digest := tr.Len(), TraceDigest(tr)
		var body bytes.Buffer
		if err := trace.WriteCTZ1(&body, tr); err != nil {
			t.Fatal(err)
		}
		srv, ts := newTestServer(t, Config{Workers: 1})
		// Warm the upload and explore paths on a small trace, so what the
		// server sets up once is not counted against this one.
		warm, _ := uploadTrace(t, ts, dinBody(t, testTrace(300, 1<<8)))
		doJSON(t, "POST", ts.URL+"/v1/explore", []byte(fmt.Sprintf(`{"trace":%q,"k":5}`, warm.Digest)), nil)

		before := liveHeap()
		if _, code := uploadTrace(t, ts, body.Bytes()); code != http.StatusCreated {
			t.Fatalf("upload: code %d", code)
		}
		held := liveHeap() - before
		entry, _ := srv.store.Get(digest)
		image := len(entry.image)
		if held > image+heldSlack {
			t.Errorf("N=%d: a stored trace holds %d B, over its %d B image + %d", n, held, image, heldSlack)
		}
		if code := doJSON(t, "POST", ts.URL+"/v1/explore", []byte(fmt.Sprintf(`{"trace":%q,"k":10}`, digest)), nil); code != http.StatusOK {
			t.Fatalf("explore: code %d", code)
		}
		explored := liveHeap() - before
		table := entry.mrct.Bytes()
		if explored > image+4*n+table+exploredSlack {
			t.Errorf("N=%d: an explored trace holds %d B, over image %d + strip %d + MRCT %d + %d",
				n, explored, image, 4*n, table, exploredSlack)
		}
		t.Logf("N=%d N'=%d: image %d B, held %d B; explored %d B (strip %d, MRCT %d)",
			n, entry.stripped.NUnique(), image, held, explored, 4*n, table)
		runtime.KeepAlive(body.Bytes())
	}
}
