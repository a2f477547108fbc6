package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func clusterOf(t *testing.T, self string, urls map[string]string) *Peers {
	t.Helper()
	var nodes []Node
	for id, url := range urls {
		nodes = append(nodes, Node{ID: id, URL: url})
	}
	p, err := New(Config{NodeID: self, Peers: nodes, PeerInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestForwardStampsHopGuard: a forwarded request carries the sender's ID
// in the hop-guard header and the extra headers the caller supplies.
func TestForwardStampsHopGuard(t *testing.T) {
	var got http.Header
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Clone()
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	p := clusterOf(t, "a", map[string]string{"a": "http://self.invalid", "b": ts.URL})

	hdr := http.Header{}
	hdr.Set("X-Request-ID", "rid-1")
	resp, err := p.Forward(context.Background(), Node{ID: "b", URL: ts.URL}, http.MethodGet, "/v1/cluster", hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got.Get(ForwardedHeader) != "a" {
		t.Fatalf("hop guard = %q, want %q", got.Get(ForwardedHeader), "a")
	}
	if got.Get("X-Request-ID") != "rid-1" {
		t.Fatalf("request id not forwarded: %v", got)
	}
}

// TestForwardInflightGate: with PeerInflight=1, a second concurrent
// forward sheds with ErrPeerBusy instead of queueing, and the slot frees
// when the first response body closes.
func TestForwardInflightGate(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		io.WriteString(w, "slow")
	}))
	defer ts.Close()
	p := clusterOf(t, "a", map[string]string{"a": "http://self.invalid", "b": ts.URL})
	peer := Node{ID: "b", URL: ts.URL}

	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	var firstErr error
	var firstResp *http.Response
	go func() {
		defer wg.Done()
		close(started)
		firstResp, firstErr = p.Forward(context.Background(), peer, http.MethodGet, "/", nil, nil)
	}()
	<-started
	// Wait until the slow request holds the gate slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(p.gates["b"]) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Forward(context.Background(), peer, http.MethodGet, "/", nil, nil); err == nil || !isPeerBusy(err) {
		t.Fatalf("second forward err = %v, want ErrPeerBusy", err)
	}
	close(release)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	io.Copy(io.Discard, firstResp.Body)
	firstResp.Body.Close()
	resp, err := p.Forward(context.Background(), peer, http.MethodGet, "/", nil, nil)
	if err != nil {
		t.Fatalf("forward after slot release: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func isPeerBusy(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == ErrPeerBusy {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TestHealthFailureOrdersLast: a failure moves the peer to Order's tail
// (never out of it) and counts it in Unhealthy; its next success puts it
// back in rendezvous order.
func TestHealthFailureOrdersLast(t *testing.T) {
	h := NewHealth()
	owners := []Node{{ID: "a"}, {ID: "b"}, {ID: "c"}}
	order := func() string {
		var ids string
		for _, n := range h.Order(owners) {
			ids += n.ID
		}
		return ids
	}

	if got := order(); got != "abc" || !h.Healthy("a") || h.Unhealthy() != 0 {
		t.Fatalf("fresh view: Order = %s, Healthy(a) = %v, Unhealthy = %d; want abc, true, 0",
			got, h.Healthy("a"), h.Unhealthy())
	}
	h.MarkFailure("a")
	h.MarkFailure("a")
	if got := order(); got != "bca" || h.Healthy("a") || h.Unhealthy() != 1 {
		t.Fatalf("after a fails: Order = %s, Healthy(a) = %v, Unhealthy = %d; want bca, false, 1",
			got, h.Healthy("a"), h.Unhealthy())
	}
	h.MarkFailure("b")
	if got := order(); got != "cab" || h.Unhealthy() != 2 {
		t.Fatalf("after b fails too: Order = %s, Unhealthy = %d; want cab (tail keeps rendezvous order), 2",
			got, h.Unhealthy())
	}
	h.MarkSuccess("a")
	h.MarkSuccess("b")
	if got := order(); got != "abc" || !h.Healthy("a") || h.Unhealthy() != 0 {
		t.Fatalf("after successes: Order = %s, Healthy(a) = %v, Unhealthy = %d; want abc, true, 0",
			got, h.Healthy("a"), h.Unhealthy())
	}
}

// TestForwardDrivesHealth: a transport failure in Forward moves the peer
// to the tail of OwnerTargets, and its next answered request — even an
// error status — restores it.
func TestForwardDrivesHealth(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	p, err := New(Config{NodeID: "a", Replicas: 3, Peers: []Node{
		{ID: "a", URL: "http://self.invalid"}, {ID: "b", URL: deadURL}, {ID: "c", URL: deadURL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	const key = "some-digest"
	before := p.OwnerTargets(key)
	first := before[0]
	if _, err := p.Forward(context.Background(), first, http.MethodGet, "/", nil, nil); err == nil {
		t.Fatal("forward to a closed listener succeeded")
	}
	if after := p.OwnerTargets(key); after[len(after)-1].ID != first.ID || p.Health().Unhealthy() != 1 {
		t.Fatalf("after failure: OwnerTargets = %v, Unhealthy = %d; want %s last, 1",
			after, p.Health().Unhealthy(), first.ID)
	}
	resp, err := p.Forward(context.Background(), Node{ID: first.ID, URL: ts.URL}, http.MethodGet, "/", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after := p.OwnerTargets(key); after[0].ID != before[0].ID || p.Health().Unhealthy() != 0 {
		t.Fatalf("after an answered forward: OwnerTargets = %v, Unhealthy = %d; want %v, 0",
			after, p.Health().Unhealthy(), before)
	}
}
