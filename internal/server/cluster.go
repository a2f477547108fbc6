package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/example/cachedse/internal/cluster"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/tracestore"
	"github.com/example/cachedse/pkg/client"
)

// Cluster layer: with Config.Cluster set, every node carries the full
// static membership and places each trace on its R rendezvous-hash
// owners. Any node accepts any request; a node that is not an owner of
// the addressed trace forwards the request to an owner and relays the
// answer, stamping cluster.ForwardedHeader so the receiver serves
// locally instead of forwarding again (one hop always suffices — the
// forwarder already computed the owners). Uploads write through to every
// owner; reads fail over across owners; a replica that lost or corrupted
// its copy repairs it from the co-owner on first read via the
// tracestore fallback. There is no coordinator and no inter-node state
// beyond each node's passive health view of its peers.

// clusterFetchTimeout bounds one peer object fetch during read-repair
// (which runs outside any request context).
const clusterFetchTimeout = 30 * time.Second

// clusterIngress reports whether this request should be routed by the
// cluster layer: clustering is on and the request arrived from a client,
// not from a peer (the hop guard).
func (s *Server) clusterIngress(r *http.Request) bool {
	return s.peers != nil && r.Header.Get(cluster.ForwardedHeader) == ""
}

// proxyCompute forwards a compute request (explore / simulate / verify /
// traces_get) addressed to a trace this node does not own. It reports
// true when it wrote the response (remote answer or failure); false
// means the caller serves locally — this node is an owner, the request
// is already forwarded, or clustering is off.
func (s *Server) proxyCompute(w http.ResponseWriter, r *http.Request, verb, digest string, body []byte) bool {
	if !s.clusterIngress(r) || digest == "" || s.peers.IsOwner(digest) {
		return false
	}
	s.forwardToOwners(w, r, verb, digest, body)
	return true
}

// forwardToOwners tries the owners of digest in health order, relaying
// the first usable response. A transport failure, a full peer gate, or a
// response worth failing over (5xx, 429, 404) moves on to the next
// owner; the last owner's response is relayed regardless, so a genuine
// not-found still reads as 404. When no owner produced a response at
// all, the client gets 503 with a retry hint — the same contract as a
// closing queue.
func (s *Server) forwardToOwners(w http.ResponseWriter, r *http.Request, verb, digest string, body []byte) {
	targets := s.peers.OwnerTargets(digest)
	// The hop is a span in the request's distributed trace: the outbound
	// traceparent names the proxy span, so the owner's job root stitches
	// under it and the cluster-wide tree shows who forwarded to whom.
	span, hdr, finish := s.proxySpan(r, "proxy")
	defer finish()
	span.SetAttr("verb", verb)
	span.SetAttr("trace", digest)
	sawBusy := false
	for i, peer := range targets {
		attemptStart := time.Now()
		resp, err := s.peers.Forward(r.Context(), peer, r.Method, r.URL.RequestURI(), hdr, body)
		span.Child("forward", attemptStart, time.Since(attemptStart),
			obs.Attr{Key: "peer", Value: peer.ID}, obs.Attr{Key: "ok", Value: err == nil})
		if err != nil {
			if errors.Is(err, cluster.ErrPeerBusy) {
				sawBusy = true
			} else {
				s.cfg.Logger.WarnContext(r.Context(), "cluster forward failed",
					"verb", verb, "peer", peer.ID, "err", err)
			}
			continue
		}
		s.proxied.With(verb).Inc()
		last := i == len(targets)-1
		if !last && (resp.StatusCode >= 500 ||
			resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusNotFound) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		relayResponse(w, resp)
		return
	}
	w.Header().Set("Retry-After", "1")
	if sawBusy {
		httpError(w, http.StatusTooManyRequests, client.ErrOverloaded,
			"owners of trace %q are at their forwarding limit; retry shortly", digest)
		return
	}
	httpError(w, http.StatusServiceUnavailable, client.ErrUnavailable,
		"no owner of trace %q is reachable", digest)
}

// uploadWriteThrough replicates an ingress upload to the owners of
// digest. When this node is itself an owner it replicates to the
// co-owners best-effort and reports false so the caller stores locally
// and answers; otherwise the first owner's response is relayed and the
// remaining owners still receive the bytes. A missed replica is not
// fatal — read-repair heals it on first read.
func (s *Server) uploadWriteThrough(w http.ResponseWriter, r *http.Request, digest string, body []byte) (done bool) {
	selfOwner := s.peers.IsOwner(digest)
	targets := s.peers.OwnerTargets(digest)
	span, hdr, finish := s.proxySpan(r, "replicate")
	defer finish()
	span.SetAttr("trace", digest)
	relayed := false
	for _, peer := range targets {
		attemptStart := time.Now()
		resp, err := s.peers.Forward(r.Context(), peer, http.MethodPost, "/v1/traces", hdr, body)
		span.Child("forward", attemptStart, time.Since(attemptStart),
			obs.Attr{Key: "peer", Value: peer.ID}, obs.Attr{Key: "ok", Value: err == nil})
		if err != nil {
			s.cfg.Logger.WarnContext(r.Context(), "cluster upload replication failed",
				"peer", peer.ID, "digest", digest, "err", err)
			continue
		}
		s.proxied.With("upload").Inc()
		if !selfOwner && !relayed && resp.StatusCode < 500 {
			relayResponse(w, resp)
			relayed = true
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if selfOwner {
		return false
	}
	if !relayed {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, client.ErrUnavailable,
			"no owner of trace %q accepted the upload", digest)
	}
	return true
}

// proxyJobMiss scatters a job request this node has no record of to
// every peer — job IDs carry no placement, so the job may live on
// whichever node dispatched it. The first non-404 response is relayed.
func (s *Server) proxyJobMiss(w http.ResponseWriter, r *http.Request) bool {
	if !s.clusterIngress(r) {
		return false
	}
	var others []cluster.Node
	for _, n := range s.peers.Nodes() {
		if n.ID != s.peers.Self().ID {
			others = append(others, n)
		}
	}
	for _, peer := range s.peers.Health().Order(others) {
		resp, err := s.peers.Forward(r.Context(), peer, r.Method, r.URL.RequestURI(), proxyHeader(r), nil)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		s.proxied.With("jobs").Inc()
		relayResponse(w, resp)
		return true
	}
	return false
}

// proxyHeader selects the request headers worth carrying across a hop:
// identity, deadline and trace-context propagation plus content
// negotiation. The hop guard itself is stamped by Forward. Callers that
// record a proxy span overwrite traceparent with the span's own context,
// so the receiver parents under the hop rather than the original client.
func proxyHeader(r *http.Request) http.Header {
	h := http.Header{}
	for _, k := range []string{"X-Request-ID", "X-Request-Deadline", "Content-Type", "Accept", "traceparent"} {
		if v := r.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	return h
}

// proxySpan starts a span for one cluster hop on a recorder joined to the
// request's trace. It returns the open span, the headers the outbound
// request carries (their traceparent names the span as the remote side's
// parent) and the func that ends the span and deposits the fragment into
// the local store, where a peer stitching the trace will find it.
func (s *Server) proxySpan(r *http.Request, name string) (*obs.Span, http.Header, func()) {
	sc := obs.SpanContextFrom(r.Context())
	rec := s.newRecorder(sc)
	ctx := obs.WithSpanContext(obs.WithRecorder(r.Context(), rec), sc)
	ctx, span := obs.StartSpan(ctx, name)
	hdr := proxyHeader(r)
	hdr.Set("traceparent", obs.Propagate(ctx).Traceparent())
	return span, hdr, func() {
		span.End()
		s.frags.Add(rec.Export())
	}
}

// newRecorder starts a span recorder for this node that joins the
// distributed trace sc names, if any.
func (s *Server) newRecorder(sc obs.SpanContext) *obs.Recorder {
	rec := obs.NewRecorder(0)
	rec.SetNode(s.nodeID)
	if sc.Valid() {
		rec.SetTraceID(sc.TraceID)
	}
	return rec
}

// relayResponse copies a peer's answer to the client: status, body and
// the headers that carry cross-node semantics (degraded reads, job
// handles, retry hints).
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "X-Degraded", "X-Job-ID", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// clusterFallback is the tracestore read-repair hook: a local miss or a
// digest-verification failure on a trace object fetches the bytes from
// the co-owner's local store, verifies them against the trace digest the
// key names, and hands them back for re-persisting. Result objects are
// never repaired — they are recomputable, and fetching them would trade
// a cheap recompute for a network hop.
func (s *Server) clusterFallback(key string) ([]byte, error) {
	digest, ok := strings.CutPrefix(key, traceKeyPrefix)
	if !ok {
		return nil, fmt.Errorf("cluster: key %q is not repairable from peers", key)
	}
	e, err := s.fetchTraceFromPeers(digest)
	if err != nil {
		return nil, err
	}
	return e.image, nil
}

// fetchTraceFromPeers asks each owner peer of digest for its local copy
// of the trace object, returning the entry admitImage makes of the first
// copy that decodes and hashes back to the digest it claims to be. The
// peer serves its bytes without consulting its own fallback, so two
// nodes missing the same object terminate instead of ping-ponging.
func (s *Server) fetchTraceFromPeers(digest string) (*TraceEntry, error) {
	ctx, cancel := context.WithTimeout(context.Background(), clusterFetchTimeout)
	defer cancel()
	path := "/v1/cluster/objects?key=" + url.QueryEscape(traceKeyPrefix+digest)
	err := fmt.Errorf("cluster: no peer replica of trace %q", digest)
	for _, peer := range s.peers.OwnerTargets(digest) {
		resp, ferr := s.peers.Forward(ctx, peer, http.MethodGet, path, nil, nil)
		if ferr != nil {
			err = ferr
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			err = fmt.Errorf("cluster: peer %s returned %d for trace %q", peer.ID, resp.StatusCode, digest)
			continue
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxUploadBytes+1))
		resp.Body.Close()
		if rerr != nil {
			err = rerr
			continue
		}
		e, aerr := s.admitImage(digest, data)
		if aerr != nil {
			err = fmt.Errorf("cluster: peer %s copy of %q: %w", peer.ID, digest, aerr)
			continue
		}
		return e, nil
	}
	return nil, err
}

// handleCluster reports the node's view of the topology: membership,
// replication factor and this node's passive health verdict on each
// peer. With clustering off the response is the degenerate single-node
// topology, so clients can always ask.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := client.ClusterInfo{Replicas: 1, Nodes: []client.ClusterNode{}}
	if s.peers != nil {
		resp.Self = s.peers.Self().ID
		resp.Replicas = s.peers.Replicas()
		for _, n := range s.peers.Nodes() {
			resp.Nodes = append(resp.Nodes, client.ClusterNode{
				ID:      n.ID,
				URL:     n.URL,
				Self:    n.ID == s.peers.Self().ID,
				Healthy: n.ID == s.peers.Self().ID || s.peers.Health().Healthy(n.ID),
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleClusterObject serves this node's local copy of one stored
// object to a peer (the read-repair source). The read is strictly
// local — no fallback, no forwarding — so repair traffic terminates
// here. A trace the memory LRU holds is served as its held image, the
// bytes -store persists; any other object comes from the local store.
func (s *Server) handleClusterObject(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		httpError(w, http.StatusBadRequest, client.ErrBadRequest, "missing ?key=")
		return
	}
	var data []byte
	err := tracestore.ErrNotFound
	if digest, ok := strings.CutPrefix(key, traceKeyPrefix); ok {
		if e, ok := s.store.Get(digest); ok {
			data, err = e.image, nil
		}
	}
	if err != nil && s.persist != nil {
		data, err = s.persist.GetLocal(key)
	}
	if err != nil {
		httpError(w, http.StatusNotFound, client.ErrTraceNotFound, "no local copy of %q", key)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}
