package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/example/cachedse/internal/cluster"
	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/dse"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/pkg/client"
)

// clusterNode is one member of an in-process test cluster. The listener
// address is reserved before the server boots (peer URLs must be known to
// every Config up front) and reused across restarts.
type clusterNode struct {
	id   string
	url  string
	addr string
	dir  string
	srv  *Server
	hs   *http.Server
}

type testCluster struct {
	t     *testing.T
	peers []cluster.Node
	nodes []*clusterNode
}

// startTestCluster boots n nodes on reserved localhost ports, each with
// its own persistent store, all sharing the same static membership.
func startTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return startCluster(t, n, true)
}

// startCluster is startTestCluster with the stores optional: without
// them every node keeps its traces in memory only.
func startCluster(t *testing.T, n int, persistent bool) *testCluster {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]cluster.Node, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), URL: "http://" + ln.Addr().String()}
	}
	tc := &testCluster{t: t, peers: peers}
	for i := range lns {
		nd := &clusterNode{id: peers[i].ID, url: peers[i].URL, addr: lns[i].Addr().String()}
		if persistent {
			nd.dir = t.TempDir()
		}
		tc.nodes = append(tc.nodes, nd)
		tc.boot(i, lns[i])
	}
	t.Cleanup(func() {
		for _, nd := range tc.nodes {
			if nd.hs != nil {
				nd.hs.Close()
			}
			if nd.srv != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				nd.srv.Close(ctx)
				cancel()
			}
		}
	})
	return tc
}

func (tc *testCluster) boot(i int, ln net.Listener) {
	tc.t.Helper()
	nd := tc.nodes[i]
	srv, err := New(Config{
		Workers:    2,
		QueueDepth: 16,
		StoreDir:   nd.dir,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		Cluster:    cluster.Config{NodeID: nd.id, Peers: tc.peers},
	})
	if err != nil {
		tc.t.Fatalf("booting %s: %v", nd.id, err)
	}
	nd.srv = srv
	nd.hs = &http.Server{Handler: srv.Handler()}
	go nd.hs.Serve(ln)
}

// kill stops a node's listener and drains its server, simulating a crash
// from the peers' point of view (connections refused).
func (tc *testCluster) kill(i int) {
	tc.t.Helper()
	nd := tc.nodes[i]
	nd.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	nd.srv.Close(ctx)
	cancel()
	nd.hs, nd.srv = nil, nil
}

// restart re-listens the node's reserved address and boots a fresh server
// over the same store directory.
func (tc *testCluster) restart(i int) {
	tc.t.Helper()
	nd := tc.nodes[i]
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		ln, err = net.Listen("tcp", nd.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		tc.t.Fatalf("re-listening %s: %v", nd.addr, err)
	}
	tc.boot(i, ln)
}

func (tc *testCluster) client(i int) *client.Client {
	return client.New(tc.nodes[i].url, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	}))
}

// nodeMetricValue scrapes one counter/gauge value from a node's /metrics.
func nodeMetricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	return 0
}

// sumMetric sums one metric (including labeled series) across nodes.
func (tc *testCluster) sumMetric(name string) float64 {
	tc.t.Helper()
	total := 0.0
	for _, nd := range tc.nodes {
		if nd.srv == nil {
			continue
		}
		resp, err := http.Get(nd.url + "/metrics")
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, name) {
				continue
			}
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
					total += v
				}
			}
		}
		resp.Body.Close()
	}
	return total
}

// assertBitIdentical compares a served exploration to the in-process
// ground truth, field by field.
func assertBitIdentical(t *testing.T, label string, got client.ExploreResponse, res *core.Result, maxMisses, k int) {
	t.Helper()
	want, _ := dse.InstanceTable(res, k, maxMisses, false)
	if got.K != k || got.MaxMisses != maxMisses {
		t.Fatalf("%s k=%d: got K=%d MaxMisses=%d", label, k, got.K, got.MaxMisses)
	}
	if len(got.Instances) != len(want) {
		t.Fatalf("%s k=%d: %d instances, want %d", label, k, len(got.Instances), len(want))
	}
	for j, ins := range got.Instances {
		exp := client.Instance{
			Depth:     want[j].Depth,
			Assoc:     want[j].Assoc,
			SizeWords: want[j].SizeWords(),
			Misses:    res.Level(want[j].Depth).Misses(want[j].Assoc),
		}
		if !reflect.DeepEqual(ins, exp) {
			t.Fatalf("%s k=%d instance %d = %+v, want %+v (results must be bit-identical)", label, k, j, ins, exp)
		}
	}
}

// uploadTestTrace uploads tr through node i and returns its digest.
func (tc *testCluster) uploadTestTrace(t *testing.T, i int, tr *trace.Trace) string {
	t.Helper()
	var din bytes.Buffer
	if err := trace.WriteText(&din, tr); err != nil {
		t.Fatal(err)
	}
	info, err := tc.client(i).UploadTrace(context.Background(), din.Bytes())
	if err != nil {
		t.Fatalf("upload via %s: %v", tc.nodes[i].id, err)
	}
	return info.Digest
}

// TestClusterAnyNodeServesBitIdentical: upload through one node, explore
// through every node — owner or proxy, the answer must match the
// in-process single-engine ground truth exactly, and the proxy hops must
// show up in the forwarding counter.
func TestClusterAnyNodeServesBitIdentical(t *testing.T) {
	tc := startTestCluster(t, 3)
	tr := testTrace(2_000, 1<<9)
	digest := tc.uploadTestTrace(t, 0, tr)

	res, err := core.Explore(context.Background(), tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := trace.ComputeStats(tr)

	for i := range tc.nodes {
		c := tc.client(i)
		info, err := c.GetTrace(context.Background(), digest)
		if err != nil {
			t.Fatalf("GetTrace via %s: %v", tc.nodes[i].id, err)
		}
		if info.Digest != digest {
			t.Fatalf("GetTrace via %s: digest %q", tc.nodes[i].id, info.Digest)
		}
		for _, k := range []int{3, 40, 500} {
			k := k
			got, err := c.Explore(context.Background(), client.ExploreRequest{Trace: digest, K: &k})
			if err != nil {
				t.Fatalf("explore via %s k=%d: %v", tc.nodes[i].id, k, err)
			}
			assertBitIdentical(t, "via "+tc.nodes[i].id, got, res, stats.MaxMisses, k)
		}
	}
	// With three nodes and two owners, at least one ingress was a
	// non-owner proxy.
	if tc.sumMetric("cachedse_cluster_proxied_total") == 0 {
		t.Fatal("no request was proxied; the topology test exercised nothing")
	}

	// The topology endpoint reports the full membership from any node.
	var topo struct {
		Self     string `json:"self"`
		Replicas int    `json:"replicas"`
		Nodes    []struct {
			ID   string `json:"id"`
			Self bool   `json:"self"`
		} `json:"nodes"`
	}
	resp, err := http.Get(tc.nodes[1].url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	if topo.Self != "n1" || topo.Replicas != 2 || len(topo.Nodes) != 3 {
		t.Fatalf("topology via n1 = %+v", topo)
	}
}

// TestClusterNodeKillMidRun is the acceptance test: a three-node cluster
// under concurrent exploration load loses an owner node mid-run; every
// answer the survivors produce stays bit-identical to the single-node
// ground truth. The killed node then restarts with its stored object
// deliberately corrupted and must heal it from the co-owner (read
// repair), counted in the repair metric, before serving — again
// bit-identically.
func TestClusterNodeKillMidRun(t *testing.T) {
	tc := startTestCluster(t, 3)
	tr := testTrace(2_000, 1<<9)
	digest := tc.uploadTestTrace(t, 0, tr)

	res, err := core.Explore(context.Background(), tr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := trace.ComputeStats(tr)

	// Kill one of the trace's owner replicas, so the cluster must both
	// fail over ingress routing and survive the loss of a data holder.
	owners := tc.nodes[0].srv.peers.Owners(digest)
	victim := -1
	for i, nd := range tc.nodes {
		if nd.id == owners[0].ID {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("owner %s not found among nodes", owners[0].ID)
	}
	survivors := []int{}
	for i := range tc.nodes {
		if i != victim {
			survivors = append(survivors, i)
		}
	}

	var wg sync.WaitGroup
	killed := make(chan struct{})
	for w, idx := range survivors {
		wg.Add(1)
		go func(w, idx int) {
			defer wg.Done()
			c := tc.client(idx)
			for j := 0; j < 12; j++ {
				if j == 6 && w == 0 {
					tc.kill(victim)
					close(killed)
				}
				if j >= 6 {
					<-killed
				}
				k := 3 + j*17 + w*5
				got, err := c.Explore(context.Background(), client.ExploreRequest{Trace: digest, K: &k})
				if err != nil {
					t.Errorf("explore k=%d via %s: %v", k, tc.nodes[idx].id, err)
					return
				}
				assertBitIdentical(t, "survivor "+tc.nodes[idx].id, got, res, stats.MaxMisses, k)
			}
		}(w, idx)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Corrupt the victim's stored replica on disk, then restart it. Boot
	// must heal the object from the co-owner instead of dropping it.
	corruptStoredTrace(t, tc.nodes[victim].dir, digest)
	tc.restart(victim)

	k := 77
	got, err := tc.client(victim).Explore(context.Background(), client.ExploreRequest{Trace: digest, K: &k})
	if err != nil {
		t.Fatalf("explore via restarted %s: %v", tc.nodes[victim].id, err)
	}
	assertBitIdentical(t, "restarted "+tc.nodes[victim].id, got, res, stats.MaxMisses, k)
	if v := nodeMetricValue(t, tc.nodes[victim].url, "cachedse_cluster_read_repairs_total"); v < 1 {
		t.Fatalf("read repairs on restarted node = %v, want >= 1", v)
	}
}

// corruptStoredTrace flips bytes in the on-disk object backing
// trace/<digest> in the store rooted at dir.
func corruptStoredTrace(t *testing.T, dir, digest string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	var m struct {
		Entries map[string]struct {
			Object string `json:"object"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	e, ok := m.Entries["trace/"+digest]
	if !ok {
		t.Fatalf("victim store has no replica of trace/%s (entries: %d)", digest, len(m.Entries))
	}
	objPath := filepath.Join(dir, "objects", e.Object)
	data, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] ^= 0xA5
	}
	if err := os.WriteFile(objPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestClusterJobScatter: an async job submitted through one node (and
// dispatched on whichever owner ran it) is visible to polls through any
// other node — job lookups scatter across the peers on a local miss.
func TestClusterJobScatter(t *testing.T) {
	tc := startTestCluster(t, 3)
	tr := testTrace(1_000, 1<<8)
	digest := tc.uploadTestTrace(t, 0, tr)

	k := 25
	st, err := tc.client(1).ExploreAsync(context.Background(), client.ExploreRequest{Trace: digest, K: &k})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("async explore returned no job ID")
	}
	for i := range tc.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		final, err := tc.client(i).WaitJob(ctx, st.ID)
		cancel()
		if err != nil {
			t.Fatalf("WaitJob via %s: %v", tc.nodes[i].id, err)
		}
		if final.State != "done" {
			t.Fatalf("job via %s finished %q: %s", tc.nodes[i].id, final.State, final.Error)
		}
	}
}
