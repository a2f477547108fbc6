package cluster

import "sync"

// Health is one node's local view of which peers answer. It is passive:
// there is no probe goroutine — outcomes of real forwards drive the
// state. An unhealthy peer is never skipped, only tried after the
// healthy owners (see Order), and its first success marks it healthy
// again. All methods are safe for concurrent use.
type Health struct {
	mu   sync.Mutex
	down map[string]bool
}

// NewHealth returns an empty health view.
func NewHealth() *Health {
	return &Health{down: make(map[string]bool)}
}

// MarkSuccess records a successful exchange with peer id.
func (h *Health) MarkSuccess(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.down, id)
}

// MarkFailure records a transport-level failure talking to peer id. HTTP
// error responses do not count — a peer that answers 4xx/5xx is
// reachable and healthy enough to route to.
func (h *Health) MarkFailure(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.down[id] = true
}

// Healthy reports the current belief about peer id.
func (h *Health) Healthy(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.down[id]
}

// Unhealthy returns how many peers are currently believed down.
func (h *Health) Unhealthy() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.down)
}

// Order sorts owners for a forwarding attempt: nodes currently believed
// healthy keep their rendezvous order and come first; unhealthy ones
// follow as the failover tail. The input slice is not modified.
func (h *Health) Order(owners []Node) []Node {
	out := make([]Node, 0, len(owners))
	var tail []Node
	for _, n := range owners {
		if h.Healthy(n.ID) {
			out = append(out, n)
		} else {
			tail = append(tail, n)
		}
	}
	return append(out, tail...)
}
