package core

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/example/cachedse/internal/bitset"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/trace"
)

// This file holds the parallel postlude: Explore with Workers > 1 fans
// the accumulate pass out over a work-stealing pool. The paper observes
// that the set formulation "allows for execution of the algorithm on a
// cluster of machines" (§2.4); the same independence yields a
// shared-memory parallelisation here.
//
// The dominant cost is scanning conflict sets: every non-cold occurrence
// of every unique reference is intersected with its row set at every
// level, and occurrences of different references are independent. A single
// split pass walks the BCAT once and enqueues (level, row set) work items
// — large row sets carved into identifier-range chunks — onto per-worker
// queues; workers drain their own queue and steal from the others when it
// runs dry, so nobody repeats the tree walk and load imbalance between
// conflict-heavy and conflict-free rows evens out dynamically. Per-worker
// histograms merge associatively, so results are bit-identical to the
// serial DFS.

// workItem is one unit of postlude work: accumulate the references of set
// whose identifiers fall in [lo, hi) into the level's histogram. The set
// pointer is shared between the chunks of one row; items never mutate it.
type workItem struct {
	set    *bitset.Set
	level  int32
	lo, hi int32
}

// chunkIDs is the identifier-range granularity work items are carved at.
// Word-aligned so ForEachRange never splits a word between two items; small
// enough that the root set of a 40k/1000 trace yields an order of
// magnitude more items than workers, which is what lets stealing balance
// skewed occurrence counts.
const chunkIDs = 256

// splitWork performs the BCAT split once, appending a work item (or
// several chunks for large rows) for every node the sequential DFS would
// visit. Returns the items and the row-set count per level, or ctx's
// error if cancelled mid-walk. Row sets come from sc's freelist — unlike
// the DFS, every set stays live until the workers drain the items, so the
// freelist holds the whole tree's sets at once; the item slice itself is
// also pooled.
func splitWork(s *trace.Stripped, levels int, chk *ctxCheck, sc *Scratch) ([]workItem, []int, error) {
	sc.resetSets()
	zo := s.ZeroOneSetsAlloc(levels, sc.newSet)
	items := sc.items[:0]
	lvlRows := make([]int, levels+1)
	enqueue := func(set *bitset.Set, level int) {
		lvlRows[level]++
		n := int32(set.Cap())
		if set.Count() <= chunkIDs {
			items = append(items, workItem{set: set, level: int32(level), lo: 0, hi: n})
			return
		}
		for lo := int32(0); lo < n; lo += chunkIDs {
			hi := lo + chunkIDs
			if hi > n {
				hi = n
			}
			items = append(items, workItem{set: set, level: int32(level), lo: lo, hi: hi})
		}
	}
	var visit func(set *bitset.Set, level int)
	visit = func(set *bitset.Set, level int) {
		if chk.stop() {
			return
		}
		enqueue(set, level)
		if level >= levels || set.Count() < 2 {
			return
		}
		left := sc.newSet(set.Cap())
		right := sc.newSet(set.Cap())
		left.And(set, zo[level].Zero)
		right.And(set, zo[level].One)
		visit(left, level+1)
		visit(right, level+1)
	}
	root := sc.newSet(s.NUnique())
	for id := 0; id < s.NUnique(); id++ {
		root.Add(id)
	}
	visit(root, 0)
	sc.items = items[:0]
	if chk.err != nil {
		return nil, nil, chk.err
	}
	return items, lvlRows, nil
}

// stealQueue is one worker's share of the item list. Items are only ever
// pushed before the workers start, so a single atomic cursor per queue is
// a race-free pop for both the owner and thieves.
type stealQueue struct {
	items []workItem
	next  atomic.Int64
}

func (q *stealQueue) pop() (workItem, bool) {
	n := q.next.Add(1) - 1
	if int(n) >= len(q.items) {
		return workItem{}, false
	}
	return q.items[n], true
}

// exploreParallel is the work-stealing postlude. workers has already been
// resolved (> 1) by Explore; tiny traces still fall back to the serial
// DFS, whose output is bit-identical. The split sets, item queues and the
// workers' private histograms all come from sc; workers touch disjoint
// scratch regions, so the pool contract (one exploration per Scratch)
// holds across the fan-out.
func exploreParallel(ctx context.Context, s *trace.Stripped, m *MRCT, opts Options, workers int, sc *Scratch) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	levels, err := levelCount(s, opts)
	if err != nil {
		return nil, err
	}
	if workers == 1 || s.NUnique() < 2*workers || levels == 0 {
		return exploreDFS(ctx, s, m, opts, sc)
	}
	r := newResult(s, m, levels)

	_, splitSpan := obs.StartSpan(ctx, "split")
	items, lvlRows, err := splitWork(s, levels, &ctxCheck{ctx: ctx, every: 64}, sc)
	if err != nil {
		return nil, err
	}
	if splitSpan != nil {
		splitSpan.SetAttr("items", len(items))
		splitSpan.SetAttr("levels", levels)
		splitSpan.End()
	}
	_, span := obs.StartSpan(ctx, "postlude")
	span.SetAttr("workers", workers)
	span.SetAttr("items", len(items))
	// Deal items round-robin so each queue sees a slice of every level —
	// neighbouring chunks of the same hot row land on different workers.
	// Queue structs and their item storage persist in the scratch; only
	// the atomic cursors are rewound.
	for len(sc.queues) < workers {
		sc.queues = append(sc.queues, &stealQueue{})
		sc.qitems = append(sc.qitems, nil)
	}
	queues := sc.queues[:workers]
	for w, q := range queues {
		q.items = sc.qitems[w][:0]
		q.next.Store(0)
	}
	for i, it := range items {
		q := queues[i%workers]
		q.items = append(q.items, it)
	}
	for w, q := range queues {
		sc.qitems[w] = q.items
	}

	// Private per-worker histograms ride one flat pooled buffer: worker w
	// owns rows [w*(levels+1), (w+1)*(levels+1)), each m.maxCard+1 wide.
	histLen := m.maxCard + 1
	private := sc.ints(workers * (levels + 1) * histLen)

	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := private[w*(levels+1)*histLen : (w+1)*(levels+1)*histLen]
			chk := &ctxCheck{ctx: ctx, every: 16}
			// Drain the own queue, then steal: visit every queue starting
			// from our own until all are empty.
			for off := 0; off < workers; off++ {
				q := queues[(w+off)%workers]
				for {
					it, ok := q.pop()
					if !ok {
						break
					}
					if chk.stop() {
						return
					}
					hist := mine[int(it.level)*histLen : (int(it.level)+1)*histLen]
					accumulateRangeHist(hist, it.set, m, int(it.lo), int(it.hi))
				}
			}
			mu.Lock()
			for i := 0; i <= levels; i++ {
				mergeHist(r.Levels[i], mine[i*histLen:(i+1)*histLen])
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	finalize(r)
	// Per-level durations are meaningless across overlapping workers, so
	// the level spans carry rows and refs only (nil timing).
	endPostludeSpan(span, "parallel", r, lvlRows, nil)
	return r, nil
}

// mergeHist adds src into dst.Hist, growing as needed.
func mergeHist(dst *LevelResult, src []int) {
	if len(src) > len(dst.Hist) {
		grown := make([]int, len(src))
		copy(grown, dst.Hist)
		dst.Hist = grown
	}
	for d, c := range src {
		dst.Hist[d] += c
	}
}
