package server

import (
	"container/list"
	"sync"
)

// lru is the bounded, exact least-recently-used map behind both of the
// server's memory tiers: the uploaded-trace store and the exploration
// result cache. One mutex guards a recency list and a key index; past
// capacity the least recently used entry goes. Hit, miss and eviction
// counters live under the same lock and back the result cache's /metrics
// series.
type lru[V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // of *lruItem[V], front = most recently used
	items map[string]*list.Element

	hits, misses, evictions int64
}

type lruItem[V any] struct {
	key string
	val V
}

// newLRU returns an LRU holding at most max entries (minimum 1).
func newLRU[V any](max int) *lru[V] {
	if max < 1 {
		max = 1
	}
	return &lru[V]{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value for key, marking it most recently used, and
// counts a hit or a miss.
func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// Put inserts or refreshes key as the most recently used entry.
func (c *lru[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.insertLocked(key, val)
}

// GetOrPut returns the value for key if present, like Get; otherwise it
// inserts mk() under the same lock, so concurrent callers for one key all
// end up with the single value stored. existed reports which happened.
func (c *lru[V]) GetOrPut(key string, mk func() V) (val V, existed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem[V]).val, true
	}
	c.misses++
	val = mk()
	c.insertLocked(key, val)
	return val, false
}

func (c *lru[V]) insertLocked(key string, val V) {
	c.items[key] = c.ll.PushFront(&lruItem[V]{key: key, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Remove(c.ll.Back()).(*lruItem[V])
		delete(c.items, oldest.key)
		c.evictions++
	}
}

// Remove deletes key, reporting whether it was present. A removal is not
// an eviction.
func (c *lru[V]) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	return true
}

// Values returns every value, most recently used first, without touching
// recency.
func (c *lru[V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruItem[V]).val)
	}
	return out
}

// Len returns the number of entries.
func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit, miss and eviction counts.
func (c *lru[V]) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
