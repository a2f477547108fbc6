// Package cluster is the coordinator-free routing layer that lets many
// cachedse nodes serve one logical trace corpus. Membership is static: a
// node boots knowing the full peer list (its own entry included) and
// never gossips. Placement is rendezvous (highest-random-weight) hashing
// over trace content digests: every node computes the same R owner
// replicas for any digest from the membership alone, so any node can
// accept any request and transparently forward it to the owners — no
// coordinator, no routing table, no rebalancing protocol. Health is
// observed, not agreed on: each node tracks its own view of which peers
// answer and tries healthy owners first, unhealthy ones last, so a
// restarted peer rejoins the moment it serves a request again.
package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// DefaultReplicas is the replication factor R: every trace digest is
// owned by this many nodes (clamped to the cluster size).
const DefaultReplicas = 2

// Node is one cluster member.
type Node struct {
	// ID is the node's stable name; placement depends only on the set of
	// IDs, so IDs must be unique and identical on every member.
	ID string `json:"id"`
	// URL is the node's advertised base URL (e.g. "http://10.0.0.1:8344").
	URL string `json:"url"`
}

// Config describes one node's view of the cluster. The zero value means
// "not clustered".
type Config struct {
	// NodeID names this node; it must appear in Peers. Empty disables
	// clustering.
	NodeID string
	// Peers is the full static membership, this node included.
	Peers []Node
	// Replicas is the ownership factor R (<= 0 uses DefaultReplicas);
	// it is clamped to len(Peers).
	Replicas int
	// PeerInflight caps concurrent forwarded requests per peer; excess
	// forwards are shed with a retry hint instead of piling up. <= 0 uses
	// a default sized for a small worker pool.
	PeerInflight int
}

// Enabled reports whether the config describes a cluster member.
func (c Config) Enabled() bool { return c.NodeID != "" }

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.Replicas > len(c.Peers) {
		c.Replicas = len(c.Peers)
	}
	if c.PeerInflight <= 0 {
		c.PeerInflight = 64
	}
	return c
}

// Validate checks the membership is usable: unique non-empty IDs, URLs on
// every peer, and NodeID present in the list.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if len(c.Peers) == 0 {
		return fmt.Errorf("cluster: -node-id %q set but no peers given", c.NodeID)
	}
	seen := make(map[string]bool, len(c.Peers))
	selfListed := false
	for _, n := range c.Peers {
		if n.ID == "" || n.URL == "" {
			return fmt.Errorf("cluster: peer %+v needs both an id and a url", n)
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate peer id %q", n.ID)
		}
		seen[n.ID] = true
		if n.ID == c.NodeID {
			selfListed = true
		}
	}
	if !selfListed {
		return fmt.Errorf("cluster: node id %q is not in the peer list", c.NodeID)
	}
	return nil
}

// ParsePeers parses the CLI's -peers syntax: a comma-separated list of
// id=url pairs, e.g. "a=http://127.0.0.1:8344,b=http://127.0.0.1:8345".
func ParsePeers(s string) ([]Node, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	var nodes []Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: peer %q is not id=url", part)
		}
		nodes = append(nodes, Node{ID: strings.TrimSpace(id), URL: strings.TrimRight(strings.TrimSpace(url), "/")})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes, nil
}
