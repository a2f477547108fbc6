package server

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestLRUPutGet(t *testing.T) {
	c := newLRU[int](64)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get on empty cache succeeded")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("a", 3) // refresh in place
	if v, _ := c.Get("a"); v != 3 {
		t.Fatalf("refreshed Get(a) = %v", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	hits, misses, evictions := c.Stats()
	if hits != 2 || misses != 1 || evictions != 0 {
		t.Fatalf("Stats = %d, %d, %d, want 2, 1, 0", hits, misses, evictions)
	}
}

func TestLRUEvictsAtCapacity(t *testing.T) {
	c := newLRU[int](1)
	c.Put("k0", 0)
	c.Put("k1", 1) // evicts k0
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if v, ok := c.Get("k1"); !ok || v != 1 {
		t.Fatalf("newest entry missing: %v, %v", v, ok)
	}
	// Refreshing k1 then inserting k2 still evicts k1: the cache holds
	// one entry.
	c.Get("k1")
	c.Put("k2", 2)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, evictions := c.Stats(); evictions != 2 {
		t.Fatalf("evictions = %d, want 2", evictions)
	}
}

func TestLRULeastRecentlyUsedOrder(t *testing.T) {
	// Two slots: touching the older entry must flip which one gets
	// evicted.
	c := newLRU[int](2)
	c.Put("k0", 0)
	c.Put("k1", 1)
	c.Get("k0") // k1 is now least recently used
	c.Put("k2", 2)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("least recently used entry survived")
	}
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("recently touched entry was evicted")
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := newLRU[int](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k-%d", (g*500+i)%200)
				c.Put(key, i)
				c.Get(key)
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	hits, misses, _ := c.Stats()
	if hits+misses != 8*500 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*500)
	}
	if n := c.Len(); n > 128 {
		t.Fatalf("Len = %d exceeds capacity 128", n)
	}
}

// Filling the cache past capacity many times over must keep exact-LRU
// eviction order: the survivor set is always the most recently touched
// capacity-many keys.
func TestLRUShardExactOrderUnderChurn(t *testing.T) {
	const slots = 4
	c := newLRU[string](slots)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("churn-%d", i)
		c.Put(keys[i], keys[i])
	}
	// The last `slots` inserted keys survive, nothing else.
	for i, k := range keys {
		_, ok := c.Get(k)
		if want := i >= len(keys)-slots; ok != want {
			t.Fatalf("key %d present = %v, want %v", i, ok, want)
		}
	}
	survivors := keys[len(keys)-slots:]
	// Touch survivors in reverse, then overflow by one: the least
	// recently touched (the last of the reversed order) must go.
	for i := len(survivors) - 1; i >= 0; i-- {
		c.Get(survivors[i])
	}
	c.Put(keys[0], "back")
	if _, ok := c.Get(survivors[len(survivors)-1]); ok {
		t.Fatal("least recently touched survivor not evicted")
	}
	for _, k := range survivors[:len(survivors)-1] {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("recently touched key %q evicted", k)
		}
	}
}

// Len never exceeds the configured capacity no matter the churn, and the
// cache is full once capacity-many distinct keys have gone in.
func TestLRUShardBounded(t *testing.T) {
	const capacity = 32
	c := newLRU[int](capacity)
	for i := 0; i < 10_000; i++ {
		c.Put(fmt.Sprintf("churn-%d", i), i)
		if n := c.Len(); n > capacity {
			t.Fatalf("Len = %d exceeds capacity %d", n, capacity)
		}
	}
	if n := c.Len(); n != capacity {
		t.Fatalf("Len = %d after churn, want %d", n, capacity)
	}
	if _, _, evictions := c.Stats(); evictions != 10_000-capacity {
		t.Fatalf("evictions = %d, want %d", evictions, 10_000-capacity)
	}
}

// lruModel is the reference the LRU is checked against: a map of values
// and a recency slice, most recently used first, with eviction taking
// the slice's last key.
type lruModel struct {
	max                     int
	vals                    map[string]int
	order                   []string
	hits, misses, evictions int64
}

func (m *lruModel) touch(k string) {
	i := slices.Index(m.order, k)
	m.order = slices.Insert(slices.Delete(m.order, i, i+1), 0, k)
}

func (m *lruModel) get(k string) (int, bool) {
	v, ok := m.vals[k]
	if !ok {
		m.misses++
		return 0, false
	}
	m.hits++
	m.touch(k)
	return v, true
}

func (m *lruModel) put(k string, v int) {
	if _, ok := m.vals[k]; ok {
		m.vals[k] = v
		m.touch(k)
		return
	}
	m.vals[k] = v
	m.order = slices.Insert(m.order, 0, k)
	if len(m.order) > m.max {
		delete(m.vals, m.order[m.max])
		m.order = m.order[:m.max]
		m.evictions++
	}
}

func (m *lruModel) remove(k string) bool {
	i := slices.Index(m.order, k)
	if i < 0 {
		return false
	}
	delete(m.vals, k)
	m.order = slices.Delete(m.order, i, i+1)
	return true
}

// runLRUModel replays ops against the LRU and the model, two bytes per
// step (an opcode and a key over a small universe, so keys recur and the
// cache churns), and fails on the first disagreement in a return value,
// the contents in recency order, or a counter.
func runLRUModel(t *testing.T, capacity int, ops []byte) {
	t.Helper()
	c := newLRU[int](capacity)
	m := &lruModel{max: capacity, vals: map[string]int{}}
	for i := 0; i+1 < len(ops); i += 2 {
		op, k := ops[i]%4, fmt.Sprintf("k%d", ops[i+1]%(2*byte(capacity)+3))
		switch op {
		case 0:
			v, ok := c.Get(k)
			mv, mok := m.get(k)
			if v != mv || ok != mok {
				t.Fatalf("step %d Get(%s) = %d, %v; model %d, %v", i/2, k, v, ok, mv, mok)
			}
		case 1:
			c.Put(k, i)
			m.put(k, i)
		case 2:
			v, existed := c.GetOrPut(k, func() int { return i })
			mv, mok := m.get(k)
			if !mok {
				m.put(k, i)
				mv = i
			}
			if v != mv || existed != mok {
				t.Fatalf("step %d GetOrPut(%s) = %d, %v; model %d, %v", i/2, k, v, existed, mv, mok)
			}
		case 3:
			if got, want := c.Remove(k), m.remove(k); got != want {
				t.Fatalf("step %d Remove(%s) = %v, model %v", i/2, k, got, want)
			}
		}
		vals := c.Values()
		want := make([]int, len(m.order))
		for j, mk := range m.order {
			want[j] = m.vals[mk]
		}
		if !slices.Equal(vals, want) || c.Len() != len(want) {
			t.Fatalf("step %d contents = %v (Len %d), model %v over keys %v",
				i/2, vals, c.Len(), want, m.order)
		}
		h, ms, e := c.Stats()
		if h != m.hits || ms != m.misses || e != m.evictions {
			t.Fatalf("step %d Stats = %d, %d, %d; model %d, %d, %d",
				i/2, h, ms, e, m.hits, m.misses, m.evictions)
		}
	}
}

// TestLRUMatchesModel drives the LRU with random Get/Put/GetOrPut/Remove
// sequences at several capacities and checks it step by step against
// lruModel.
func TestLRUMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 3, 8, 32} {
		for round := 0; round < 20; round++ {
			ops := make([]byte, 2*400)
			rng.Read(ops)
			runLRUModel(t, capacity, ops)
		}
	}
}

// FuzzLRUModel is TestLRUMatchesModel over fuzzed operation sequences;
// the first byte picks a capacity of 1 to 16.
func FuzzLRUModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 2, 1, 3, 0, 1, 1, 4})
	f.Add([]byte{3, 1, 2, 0, 2, 1, 2, 2, 3, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runLRUModel(t, 1+int(data[0]%16), data[1:])
	})
}
