package cluster

import "sort"

// Ring places keys on nodes by rendezvous (highest-random-weight)
// hashing: the owners of a key are the R nodes with the highest
// score(node, key). Every member computes identical owner sets from the
// membership alone, and adding or removing a node reassigns only the
// keys that node wins or held — the minimal-disruption property that
// makes static scale-out cheap. A Ring is immutable after construction
// and safe for concurrent use.
type Ring struct {
	nodes  []Node   // sorted by ID
	hashes []uint64 // pre-mixed per-node hash, parallel to nodes
}

// NewRing builds a ring over the given membership. Node order does not
// matter; placement depends only on the set of IDs.
func NewRing(nodes []Node) *Ring {
	r := &Ring{nodes: make([]Node, len(nodes))}
	copy(r.nodes, nodes)
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].ID < r.nodes[j].ID })
	r.hashes = make([]uint64, len(r.nodes))
	for i, n := range r.nodes {
		// Pre-mix the node hash so per-key scoring is one xor + one
		// finalizer, and so structurally similar IDs ("node1"/"node2")
		// land far apart before they ever meet a key.
		r.hashes[i] = splitmix64(fnv1a64(n.ID))
	}
	return r
}

// Nodes returns the membership, sorted by ID.
func (r *Ring) Nodes() []Node { return r.nodes }

// Owners returns the n highest-scoring nodes for key, best first. Ties
// (astronomically unlikely with 64-bit scores) break toward the smaller
// node ID so every member still agrees.
func (r *Ring) Owners(key string, n int) []Node {
	if n <= 0 || len(r.nodes) == 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	kh := fnv1a64(key)
	type scored struct {
		score uint64
		idx   int
	}
	// Top-n by partial selection: cluster sizes are small (3-16), so a
	// full sort of one tiny scratch slice beats cleverness.
	sc := make([]scored, len(r.nodes))
	for i, h := range r.hashes {
		sc[i] = scored{score: splitmix64(h ^ kh), idx: i}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].score != sc[j].score {
			return sc[i].score > sc[j].score
		}
		return r.nodes[sc[i].idx].ID < r.nodes[sc[j].idx].ID
	})
	out := make([]Node, n)
	for i := 0; i < n; i++ {
		out[i] = r.nodes[sc[i].idx]
	}
	return out
}

// IsOwner reports whether node id is among the first n owners of key.
func (r *Ring) IsOwner(key, id string, n int) bool {
	for _, o := range r.Owners(key, n) {
		if o.ID == id {
			return true
		}
	}
	return false
}

// fnv1a64 is the 64-bit FNV-1a hash — cheap, allocation-free, and good
// enough as a pre-mix feeding the splitmix64 finalizer below.
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// splitmix64 is the splitmix64 finalizer: a full-avalanche 64-bit mix,
// the same one the sampling and fault-injection layers use.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
