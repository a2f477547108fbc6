package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/example/cachedse/internal/cluster"
	"github.com/example/cachedse/internal/server"
	"github.com/example/cachedse/internal/trace"
	"github.com/example/cachedse/internal/tracestore"
	"github.com/example/cachedse/pkg/client"
)

// http-explore drives in-process servers through pkg/client: one
// single-node server with a persistent store and one 3-node cluster with
// two replicas per trace. Two closed-loop clients split the 24 PowerStone
// streams; each waits for an answer before sending its next request. A
// round runs the phases below with a barrier between phases, and ends
// with a DELETE of every trace. The in-memory result cache outlives
// DELETE, so the single node is restarted over its store between rounds
// (untimed) for the next round to start cold.

const (
	httpClients   = 2
	cachedPerCall = 20 // cached explores per trace per round
	warmMaxDepth  = 64
)

// The request classes, in round order.
var httpPhases = []string{"upload", "cold", "warm", "cached", "space", "forward", "delete"}

type httpInput struct {
	name   string
	body   []byte // din text, the upload body
	digest string
	ref    *refTrace
	front  *refFront
	// forward is the cluster node that does not own the trace.
	forward int
}

// node is one in-process server behind a loopback listener.
type node struct {
	srv *server.Server
	ts  *httptest.Server
}

func (n *node) close() error {
	n.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return n.srv.Close(ctx)
}

type httpExplore struct {
	dir     string
	inputs  []*httpInput
	single  *node
	cluster []*node
	users   [httpClients]*user
	store   *tracestore.Store // for the traced rounds' store timings
}

// user is one closed-loop client: one goroutine, one connection per
// server, and the job ID of its last response.
type user struct {
	hc     *http.Client
	jobs   *jobIDTransport
	single *client.Client
	nodes  []*client.Client // one per cluster node
}

// jobIDTransport remembers the X-Job-ID header of the last response, the
// handle GET /v1/jobs/{id}/trace takes. Only its user's goroutine uses it.
type jobIDTransport struct {
	base http.RoundTripper
	last string
}

func (t *jobIDTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		t.last = resp.Header.Get("X-Job-ID")
	}
	return resp, err
}

func newClient(base string, hc *http.Client) *client.Client {
	// One attempt: a failed request is counted, never retried away.
	return client.New(base, client.WithHTTPClient(hc), client.WithRetry(client.RetryPolicy{MaxAttempts: 1}))
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func setupHTTP(cfg config) (inst instance, err error) {
	suite, err := powerstoneStreams()
	if err != nil {
		return nil, err
	}
	if cfg.smoke {
		suite = suite[:2]
	}
	refs, err := profileRefs(suiteRefs)
	if err != nil {
		return nil, err
	}
	fronts, err := frontRefs(httpRefs)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "http-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	w := &httpExplore{dir: abs}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	for _, s := range suite {
		var buf bytes.Buffer
		if err := trace.WriteText(&buf, s.tr); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", s.name, err)
		}
		in := &httpInput{name: s.name, body: buf.Bytes(), digest: server.TraceDigest(s.tr), ref: refs[s.name], front: fronts[s.name]}
		if in.ref == nil || in.front == nil {
			return nil, fmt.Errorf("no reference for %s", s.name)
		}
		w.inputs = append(w.inputs, in)
	}
	if w.store, err = tracestore.Open(filepath.Join(abs, "timing-store")); err != nil {
		return nil, err
	}
	if w.single, err = startSingle(filepath.Join(abs, "single")); err != nil {
		return nil, err
	}
	if err := w.startCluster(); err != nil {
		return nil, err
	}
	for i := range w.users {
		jobs := &jobIDTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		u := &user{hc: &http.Client{Transport: jobs, Timeout: time.Minute}, jobs: jobs}
		u.single = newClient(w.single.ts.URL, u.hc)
		for _, n := range w.cluster {
			u.nodes = append(u.nodes, newClient(n.ts.URL, u.hc))
		}
		w.users[i] = u
	}
	return w, w.warmCluster()
}

func startSingle(storeDir string) (*node, error) {
	srv, err := server.New(server.Config{Workers: 2, StoreDir: storeDir, Logger: quietLogger()})
	if err != nil {
		return nil, err
	}
	return &node{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// startCluster boots three in-memory nodes; every node must know every
// peer's URL before it starts, so the listeners open first.
func (w *httpExplore) startCluster() error {
	var peers []cluster.Node
	var tss []*httptest.Server
	for _, id := range []string{"a", "b", "c"} {
		ts := httptest.NewUnstartedServer(nil)
		tss = append(tss, ts)
		peers = append(peers, cluster.Node{ID: id, URL: "http://" + ts.Listener.Addr().String()})
	}
	for i, ts := range tss {
		srv, err := server.New(server.Config{
			Workers: 2,
			Logger:  quietLogger(),
			Cluster: cluster.Config{NodeID: peers[i].ID, Peers: peers, Replicas: 2},
		})
		if err != nil {
			for _, t := range tss[i:] {
				t.Listener.Close()
			}
			return err
		}
		ts.Config.Handler = srv.Handler()
		ts.Start()
		w.cluster = append(w.cluster, &node{srv: srv, ts: ts})
	}
	ring := cluster.NewRing(peers)
	for _, in := range w.inputs {
		owners := ring.Owners(in.digest, 2)
		for i, p := range peers {
			if p.ID != owners[0].ID && p.ID != owners[1].ID {
				in.forward = i
			}
		}
	}
	return nil
}

// forwardRequest is the explore the forward class sends to a trace's
// non-owner node.
func forwardRequest(in *httpInput) client.ExploreRequest {
	k := in.ref.MaxMisses / 10
	return client.ExploreRequest{Trace: in.digest, K: &k}
}

// warmCluster uploads every trace to the cluster and explores it once on
// each owner, so forwarded requests measure the hop to a cached answer.
func (w *httpExplore) warmCluster() error {
	ctx := context.Background()
	u := w.users[0]
	for _, in := range w.inputs {
		if _, err := u.nodes[in.forward].UploadTrace(ctx, in.body); err != nil {
			return fmt.Errorf("cluster upload %s: %w", in.name, err)
		}
		for i, c := range u.nodes {
			if i == in.forward {
				continue
			}
			if _, err := c.Explore(ctx, forwardRequest(in)); err != nil {
				return fmt.Errorf("cluster explore %s: %w", in.name, err)
			}
		}
	}
	return nil
}

func (w *httpExplore) close() error {
	var errs []error
	for _, u := range w.users {
		if u != nil {
			u.hc.CloseIdleConnections()
		}
	}
	if w.single != nil {
		errs = append(errs, w.single.close())
	}
	for _, n := range w.cluster {
		errs = append(errs, n.close())
	}
	errs = append(errs, os.RemoveAll(w.dir))
	return errors.Join(errs...)
}

// call is one request a user sends, with the check of its answer.
type call struct {
	class string
	in    *httpInput
	key   string // class/input/repeat: the call's place in a round
	do    func(ctx context.Context, u *user) (wrong int, err error)
}

// outcome is one sent request. In a traced round it also carries the
// job's status and span tree, fetched right after the answer (the server
// keeps only its most recent finished jobs) and off the request's clock.
type outcome struct {
	call
	latency time.Duration
	wrong   int
	err     error
	status  client.JobStatus
	spans   client.JobTraceResponse
}

func (w *httpExplore) pass(ctx context.Context, p passCtx) (passResult, error) {
	r := passResult{answers: map[string]float64{}, classes: map[string][]float64{}, gauges: map[string]float64{}}
	// Restart the single node over its store: DELETE purged the previous
	// round's traces and results from disk, and a fresh process forgets
	// the in-memory results DELETE leaves behind.
	if err := w.single.close(); err != nil {
		return r, err
	}
	single, err := startSingle(filepath.Join(w.dir, "single"))
	if err != nil {
		return r, err
	}
	w.single = single
	for _, u := range w.users {
		u.single = newClient(single.ts.URL, u.hc)
	}
	proxiedBefore, err := w.clusterProxied(ctx)
	if err != nil {
		return r, err
	}

	order := p.rng.Perm(len(w.inputs))
	var halves [httpClients][]*httpInput
	for j, idx := range order {
		halves[j%httpClients] = append(halves[j%httpClients], w.inputs[idx])
	}
	var all []outcome
	for _, phase := range httpPhases {
		var calls [httpClients][]call
		for c := range halves {
			for _, in := range halves[c] {
				for i, cl := range w.calls(phase, in, p) {
					cl.key = fmt.Sprintf("%s/%s/%d", phase, in.name, i)
					calls[c] = append(calls[c], cl)
				}
			}
		}
		p.host.tick()
		p.heap.start()
		t0 := time.Now()
		outs := w.runPhase(ctx, calls, p.mode == traced, p.heap != nil)
		r.elapsed += time.Since(t0)
		p.heap.stop()
		all = append(all, outs...)
	}

	forwarded := 0
	for _, o := range all {
		r.answers[o.key] = ms(o.latency)
		r.classes[o.class] = append(r.classes[o.class], ms(o.latency))
		if o.class == "forward" {
			forwarded++
		}
		if o.err != nil {
			r.errored++
			fmt.Fprintf(os.Stderr, "%s %s: %v\n", o.class, o.in.name, o.err)
			continue
		}
		r.check(o.wrong)
	}
	proxiedAfter, err := w.clusterProxied(ctx)
	if err != nil {
		return r, err
	}
	// Every forward request crosses exactly one hop.
	r.gauges["cluster.proxied"] = proxiedAfter - proxiedBefore
	r.check(int(math.Abs(proxiedAfter - proxiedBefore - float64(forwarded))))
	if p.mode == traced {
		if err := w.breakdown(ctx, p.sp, all, r.gauges); err != nil {
			return r, err
		}
	}
	return r, nil
}

// calls lists the requests one trace contributes to a phase.
func (w *httpExplore) calls(phase string, in *httpInput, p passCtx) []call {
	explore := func(req client.ExploreRequest, wantCached bool, nodeIdx int) func(context.Context, *user) (int, error) {
		return func(ctx context.Context, u *user) (int, error) {
			c := u.single
			if nodeIdx >= 0 {
				c = u.nodes[nodeIdx]
			}
			resp, err := c.Explore(ctx, req)
			if err != nil {
				return 0, err
			}
			wrong := 0
			if resp.Cached != wantCached {
				wrong++
			}
			if req.Space != nil {
				return wrong + in.front.wrongPoints(wirePoints(resp), wirePrune(resp)), nil
			}
			return wrong + wrongInstances(in.ref, *req.K, req.MaxDepth, resp), nil
		}
	}
	k10 := in.ref.MaxMisses / 10
	switch phase {
	case "upload":
		return []call{{class: phase, in: in, do: func(ctx context.Context, u *user) (int, error) {
			info, err := u.single.UploadTrace(ctx, in.body)
			if err != nil {
				return 0, err
			}
			wrong := 0
			for _, ok := range []bool{info.Digest == in.digest, info.N == in.ref.N,
				info.NUnique == in.ref.NUnique, info.MaxMisses == in.ref.MaxMisses} {
				if !ok {
					wrong++
				}
			}
			return wrong, nil
		}}}
	case "cold":
		return []call{{class: phase, in: in, do: explore(client.ExploreRequest{Trace: in.digest, K: &k10}, false, -1)}}
	case "warm":
		return []call{{class: phase, in: in, do: explore(client.ExploreRequest{Trace: in.digest, K: &k10, MaxDepth: warmMaxDepth}, false, -1)}}
	case "cached":
		var out []call
		for i := 0; i < cachedPerCall; i++ {
			k := p.rng.Intn(in.ref.MaxMisses + 1)
			md := 0
			if p.rng.Intn(2) == 1 {
				md = warmMaxDepth
			}
			out = append(out, call{class: phase, in: in, do: explore(client.ExploreRequest{Trace: in.digest, K: &k, MaxDepth: md}, true, -1)})
		}
		return out
	case "space":
		req := client.ExploreRequest{Trace: in.digest, Space: &client.Space{
			Topology: "unified",
			L1:       &client.SpaceLevel{MaxDepth: 64, MaxAssoc: 4, Policies: []string{"lru", "fifo", "plru"}},
		}}
		return []call{{class: phase, in: in, do: explore(req, false, -1)}}
	case "forward":
		return []call{{class: phase, in: in, do: explore(forwardRequest(in), true, in.forward)}}
	case "delete":
		return []call{{class: phase, in: in, do: func(ctx context.Context, u *user) (int, error) {
			// 409 trace_busy means the job that last read the trace has
			// answered but not yet released it; the documented response is
			// to retry.
			for try := 0; ; try++ {
				err := u.single.DeleteTrace(ctx, in.digest)
				if !errors.Is(err, client.ErrTraceBusy) || try == 1000 {
					return 0, err
				}
				time.Sleep(time.Millisecond)
			}
		}}}
	}
	return nil
}

// runPhase runs each user's calls on its own goroutine, one at a time,
// and returns once both users are done. With serial set, the users take
// turns instead: the warm-up round that measures the heap then allocates
// the same whichever way the two would have interleaved.
func (w *httpExplore) runPhase(ctx context.Context, calls [httpClients][]call, traced, serial bool) []outcome {
	var wg sync.WaitGroup
	var outs [httpClients][]outcome
	for c := range calls {
		wg.Add(1)
		user := func(c int) {
			defer wg.Done()
			u := w.users[c]
			for _, cl := range calls[c] {
				u.jobs.last = ""
				t0 := time.Now()
				wrong, err := cl.do(ctx, u)
				o := outcome{call: cl, latency: time.Since(t0), wrong: wrong, err: err}
				// Forwarded jobs run on an owner node, where job IDs of
				// other nodes collide, so only single-node jobs are read.
				if job := u.jobs.last; traced && err == nil && job != "" && cl.class != "forward" {
					if o.status, o.err = u.single.GetJob(ctx, job); o.err == nil {
						o.spans, o.err = u.single.JobTrace(ctx, job, false)
					}
				}
				outs[c] = append(outs[c], o)
			}
		}
		if serial {
			user(c)
		} else {
			go user(c)
		}
	}
	wg.Wait()
	return append(outs[0], outs[1]...)
}

// wrongInstances compares a budget-k answer with the instances the
// reference profile implies: per explored depth, the smallest
// associativity meeting k and its miss count.
func wrongInstances(ref *refTrace, k, maxDepth int, resp client.ExploreResponse) int {
	levels := len(ref.Levels)
	if maxDepth > 0 {
		capLevels := 1
		for d := maxDepth; d > 1; d >>= 1 {
			capLevels++
		}
		levels = min(levels, capLevels)
	}
	wrong := 0
	if resp.K != k || resp.MaxMisses != ref.MaxMisses {
		wrong++
	}
	for i := 0; i < max(levels, len(resp.Instances)); i++ {
		if i >= levels || i >= len(resp.Instances) {
			wrong++
			continue
		}
		a := ref.minAssoc(i, k)
		got := resp.Instances[i]
		if got.Depth != 1<<i || got.Assoc != a || got.Misses != ref.misses(i, a) || got.SizeWords != got.Depth*a {
			wrong++
		}
	}
	return wrong
}

// wirePoints renders a space answer's front the way the references key
// it (core.LevelConfig's and core.Point's canonical strings).
func wirePoints(resp client.ExploreResponse) []refPoint {
	out := make([]refPoint, len(resp.Pareto))
	for i, p := range resp.Pareto {
		parts := make([]string, len(p.Levels))
		for j, l := range p.Levels {
			parts[j] = fmt.Sprintf("%s D=%d A=%d lw=%d %s %s", l.Level, l.Depth, l.Assoc, l.LineWords, l.Policy, l.Technology)
		}
		out[i] = refPoint{Key: strings.Join(parts, "; "), Misses: p.Misses, EnergyPJ: p.EnergyPJ, AreaUM2: p.AreaUM2}
	}
	return out
}

func wirePrune(resp client.ExploreResponse) refPrune {
	if resp.Prune == nil {
		return refPrune{}
	}
	return refPrune{
		Candidates: resp.Prune.Candidates, Evaluated: resp.Prune.Evaluated,
		PrunedDominated: resp.Prune.PrunedDominated, PrunedThreshold: resp.Prune.PrunedThreshold,
	}
}

// union is the time a job's child spans cover. The server records some
// spans beside the span that contains them (a space job's strip, mrct and
// postlude sit next to its space span; a lookup's store.get next to the
// lookup), so summing their durations would count that time twice.
func union(spans []client.TraceNode) time.Duration {
	s := append([]client.TraceNode(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	var total time.Duration
	var end time.Time
	for _, n := range s {
		e := n.Start.Add(time.Duration(n.DurationNS))
		switch {
		case n.Start.After(end):
			total += e.Sub(n.Start)
			end = e
		case e.After(end):
			total += e.Sub(end)
			end = e
		}
	}
	return total
}

// metric reads one sample from a node's Prometheus exposition: the
// series whose name and labels start with prefix, summed.
func metric(ctx context.Context, hc *http.Client, base, prefix string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sum := 0.0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("metric line %q: %w", line, err)
		}
		sum += v
	}
	return sum, sc.Err()
}

// clusterProxied is the cluster-wide count of explores forwarded to an
// owner.
func (w *httpExplore) clusterProxied(ctx context.Context) (float64, error) {
	total := 0.0
	for _, n := range w.cluster {
		v, err := metric(ctx, w.users[0].hc, n.ts.URL, `cachedse_cluster_proxied_total{verb="explore"}`)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// serverSpans are the job-tree spans the breakdown reads, by the request
// class whose latency each one sits in.
var serverSpans = map[string]string{
	"lookup": "cached", "emit": "cached",
	"prelude": "cold", "postlude": "warm", "space": "space",
}

// breakdown attributes the round's single-node explores to server layers
// by reading each job's status and span tree, and times the store and
// codec on the upload bodies. It runs after the round, off the clock.
func (w *httpExplore) breakdown(ctx context.Context, sp *spans, all []outcome, g map[string]float64) error {
	u := w.users[0]
	perSpan := map[string][]float64{}
	var queue, outside []float64
	var covered, latency float64
	for _, o := range all {
		if o.err != nil || o.status.ID == "" {
			continue
		}
		st := o.status
		var job *client.TraceNode
		for i := range o.spans.Spans {
			if o.spans.Spans[i].Name == "job" {
				job = &o.spans.Spans[i]
			}
		}
		if job == nil || st.Started == nil {
			return fmt.Errorf("job %s recorded no job span", st.ID)
		}
		parent := sp.add("http."+o.class, 0, time.Now().Add(-o.latency), o.latency, false)
		jobDur := time.Duration(job.DurationNS)
		wait := st.Started.Sub(st.Created)
		queue = append(queue, ms(wait))
		out := o.latency - jobDur
		if o.class == "cached" {
			outside = append(outside, ms(out))
		}
		sp.add("server.outside_job", parent, time.Now(), out, true)
		for _, c := range job.Children {
			d := time.Duration(c.DurationNS)
			sp.add("server."+c.Name, parent, c.Start, d, true)
			if serverSpans[c.Name] == o.class {
				perSpan[c.Name] = append(perSpan[c.Name], ms(d))
			}
		}
		covered += (union(job.Children) + out).Seconds()
		latency += o.latency.Seconds()
	}
	for name := range serverSpans {
		g["server."+name+"_ms"] = median(perSpan[name])
	}
	g["server.queue_wait_ms"] = median(queue)
	g["server.outside_job_ms"] = median(outside)
	if latency > 0 {
		g["bench.layer_coverage"] = covered / latency
	}
	hits, err := metric(ctx, u.hc, w.single.ts.URL, "cachedse_result_cache_hits_total")
	if err != nil {
		return err
	}
	misses, err := metric(ctx, u.hc, w.single.ts.URL, "cachedse_result_cache_misses_total")
	if err != nil {
		return err
	}
	if hits+misses > 0 {
		g["server.result_hit_rate"] = hits / (hits + misses)
	}

	for _, in := range w.inputs {
		if _, err := sp.side("trace.decode", func() error {
			_, err := trace.Decode(bytes.NewReader(in.body), trace.Limits{})
			return err
		}); err != nil {
			return err
		}
		key := "bench/" + in.digest
		if _, err := sp.side("tracestore.put", func() error {
			_, err := w.store.Put(key, bytes.NewReader(in.body))
			return err
		}); err != nil {
			return err
		}
		if _, err := sp.side("tracestore.get", func() error {
			_, err := w.store.Get(key)
			return err
		}); err != nil {
			return err
		}
		if _, err := w.store.Delete(key); err != nil {
			return err
		}
	}
	return nil
}
