package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// ForwardedHeader is the hop guard: a node forwarding a request stamps
// its own ID here, and a node that receives a stamped request serves it
// locally, never forwarding again. One hop is all placement ever needs
// (the forwarder already computed the owners), so the guard turns any
// routing bug into a local answer instead of a proxy loop.
const ForwardedHeader = "X-Cluster-Forwarded"

// ErrPeerBusy reports a peer whose inflight gate is full; the caller
// sheds with a retry hint rather than queueing behind a slow peer.
var ErrPeerBusy = errors.New("cluster: peer inflight gate is full")

// Peers is one node's handle on the cluster: the ring, the health view,
// and a forwarding HTTP client with a per-peer inflight gate.
type Peers struct {
	cfg    Config
	self   Node
	ring   *Ring
	health *Health
	hc     *http.Client
	gates  map[string]chan struct{}
}

// New validates cfg and builds the node's cluster handle. It returns
// (nil, nil) when cfg is zero (clustering disabled).
func New(cfg Config) (*Peers, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	p := &Peers{
		cfg:    cfg,
		ring:   NewRing(cfg.Peers),
		health: NewHealth(),
		hc:     &http.Client{Timeout: 2 * time.Minute},
		gates:  make(map[string]chan struct{}),
	}
	for _, n := range cfg.Peers {
		if n.ID == cfg.NodeID {
			p.self = n
		} else {
			p.gates[n.ID] = make(chan struct{}, cfg.PeerInflight)
		}
	}
	return p, nil
}

// Self returns this node's own membership entry.
func (p *Peers) Self() Node { return p.self }

// Nodes returns the full membership, sorted by ID.
func (p *Peers) Nodes() []Node { return p.ring.Nodes() }

// Replicas returns the effective replication factor.
func (p *Peers) Replicas() int { return p.cfg.Replicas }

// Health returns the node's local health view.
func (p *Peers) Health() *Health { return p.health }

// Owners returns the R owner replicas of key, rendezvous order.
func (p *Peers) Owners(key string) []Node { return p.ring.Owners(key, p.cfg.Replicas) }

// IsOwner reports whether this node is one of key's owners.
func (p *Peers) IsOwner(key string) bool { return p.ring.IsOwner(key, p.self.ID, p.cfg.Replicas) }

// OwnerTargets returns key's owners excluding this node, ordered for a
// forwarding attempt: healthy peers first (rendezvous order preserved),
// currently-unhealthy ones as the failover tail.
func (p *Peers) OwnerTargets(key string) []Node {
	owners := p.Owners(key)
	targets := owners[:0:0]
	for _, o := range owners {
		if o.ID != p.self.ID {
			targets = append(targets, o)
		}
	}
	return p.health.Order(targets)
}

// gateRelease wraps a response body so the peer's inflight slot is held
// until the caller finishes streaming the response.
type gateRelease struct {
	io.ReadCloser
	release func()
	done    bool
}

func (g *gateRelease) Close() error {
	err := g.ReadCloser.Close()
	if !g.done {
		g.done = true
		g.release()
	}
	return err
}

// Forward sends one request to peer: method and pathAndQuery against the
// peer's base URL, extra headers copied in, body replayed from memory,
// and the hop-guard header stamped with this node's ID. The peer's
// inflight gate is held until the returned response body is closed; a
// full gate fails fast with ErrPeerBusy. Transport failures mark the
// peer unhealthy; any HTTP response (success or error) marks it healthy.
func (p *Peers) Forward(ctx context.Context, peer Node, method, pathAndQuery string, header http.Header, body []byte) (*http.Response, error) {
	gate, ok := p.gates[peer.ID]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %q", peer.ID)
	}
	select {
	case gate <- struct{}{}:
	default:
		return nil, fmt.Errorf("%w: %s", ErrPeerBusy, peer.ID)
	}
	release := func() { <-gate }
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, peer.URL+pathAndQuery, rd)
	if err != nil {
		release()
		return nil, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.Header.Set(ForwardedHeader, p.self.ID)
	resp, err := p.hc.Do(req)
	if err != nil {
		release()
		p.health.MarkFailure(peer.ID)
		return nil, err
	}
	p.health.MarkSuccess(peer.ID)
	resp.Body = &gateRelease{ReadCloser: resp.Body, release: release}
	return resp, nil
}
