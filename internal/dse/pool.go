package dse

import (
	"context"
	"runtime"
	"sync"

	"github.com/example/cachedse/internal/core"
	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/trace"
)

// Space mode's concurrency. Each level stage of an ExploreSpace call runs
// on a goroutine of its own (levelStage.run), and each line of a stage
// starts one goroutine per depth (levelStage.sweepLine), which runs the
// depth's LRU sweep, reads its caps and starts the depth's non-LRU sweeps
// on goroutines of their own. So the policies of a line, the L1I and L1D
// streams and the retained L2 pairs all overlap; only a line waits for
// its sweeps, and the L2 stages for the L1 pairs they are seeded with.
//
// The Go scheduler bounds the CPU, so a run bounds only memory: a stage
// holds one of GOMAXPROCS stage slots, taken in stage order, and a sweep
// holds a sweeper spaceScratch.take grants under MaxSweepWays, waiting on
// a sync.Cond while take refuses. The answer does not depend on the
// schedule: each sweep lands in its own depth's slot, each stage tallies
// its own PruneStats, and the caller reads the stages in stage order.
//
// ctx is read under the run's mutex, once before each sweep and each L2
// filter replay. The first failure — a cancelled ctx, an error or a
// panic — sticks: no ctx read, replay, strip or sweep starts after it.
// Every goroutine recovers its own panic; once all have returned, the
// caller raises the first panic again, as if the sweep had run there, or
// returns the first error.

// MaxSweepWays bounds, in int32 words, the tables a space exploration's
// policy sweeps hold. The server rejects a level whose largest sweep,
// max_depth·A(A+1)/2 replica ways for max_assoc A, would pass it. Within
// an exploration, the sweepers alive at once hold at most MaxSweepWays
// words of ways and residency tables together whenever there are two or
// more of them (spaceScratch.take); a lone sweeper holds what the serial
// sweep would.
const MaxSweepWays = 1 << 24

// spaceScratch holds the policy sweepers of one ExploreSpace call. They
// are granted per sweep and returned after it: busy are out, idle wait
// for the next sweep. ways and residency are the largest ways and
// residency tables, in int32 words, any granted sweep could ask its
// sweeper for, so no sweeper holds more than their sum.
type spaceScratch struct {
	procs           int
	idle            []*onepass.PolicySweeper
	busy            int
	ways, residency int
}

func newSpaceScratch() *spaceScratch {
	return &spaceScratch{procs: runtime.GOMAXPROCS(0)}
}

// sweepLimit is how many sweepers may be alive at once when each holds
// tables of ways+residency words: one per processor, as many as
// MaxSweepWays holds, and at least one.
func (sc *spaceScratch) sweepLimit(ways, residency int) int {
	return min(sc.procs, max(1, MaxSweepWays/(ways+residency)))
}

// take grants a sweeper for a sweep of strip at depth over the
// associativities 1..assoc, whose tables take at most (N′+1)·assoc
// residency and depth·assoc(assoc+1)/2 ways words. It returns nil, and
// changes nothing, while one more busy sweeper would leave more alive
// than sweepLimit admits at the call's largest tables, this sweep's
// included. It never refuses while no sweeper is busy, so a lone sweep
// runs at any size. Idle sweepers past the limit are dropped.
func (sc *spaceScratch) take(strip *trace.Stripped, depth, assoc int) *onepass.PolicySweeper {
	ways := max(sc.ways, depth*assoc*(assoc+1)/2)
	residency := max(sc.residency, (strip.NUnique()+1)*assoc)
	limit := sc.sweepLimit(ways, residency)
	if sc.busy >= limit {
		return nil
	}
	sc.ways, sc.residency = ways, residency
	if keep := limit - sc.busy; len(sc.idle) > keep {
		clear(sc.idle[keep:])
		sc.idle = sc.idle[:keep]
	}
	sc.busy++
	n := len(sc.idle)
	if n == 0 {
		return new(onepass.PolicySweeper)
	}
	sw := sc.idle[n-1]
	sc.idle[n-1] = nil
	sc.idle = sc.idle[:n-1]
	return sw
}

// give returns a sweeper take granted. It waits for the next sweep only
// while the sweepers alive stay within sweepLimit; otherwise it is
// dropped.
func (sc *spaceScratch) give(sw *onepass.PolicySweeper) {
	sc.busy--
	if sc.busy+len(sc.idle) < sc.sweepLimit(sc.ways, sc.residency) {
		sc.idle = append(sc.idle, sw)
	}
}

// stageSlot is the reusable memory of one stage in flight: the strip of
// its current line, the strip's direct-mapped miss lists and, for an L2
// stage, the filtered stream it strips. For a stream of N references it
// holds 4N bytes of strip ids, fewer than 4N bytes of lists and, on an
// L2 stage, 8 bytes per refill or writeback of the filtered stream.
type stageSlot struct {
	strip    trace.Stripped
	lists    onepass.MissLists
	filtered trace.Trace
}

// spaceRun is one ExploreSpace call's limits and failure: its stage
// slots and, under mu, its sweepers and its first error and panic.
type spaceRun struct {
	ctx      context.Context
	slots    chan *stageSlot
	mu       sync.Mutex
	freed    sync.Cond // on mu: a sweeper came back
	sc       *spaceScratch
	err      error
	panicked any
}

// newSpaceRun returns the run of an ExploreSpace call under ctx, with
// GOMAXPROCS stage slots.
func newSpaceRun(ctx context.Context) *spaceRun {
	r := &spaceRun{ctx: ctx, sc: newSpaceScratch()}
	r.freed.L = &r.mu
	r.slots = make(chan *stageSlot, r.sc.procs)
	for range r.sc.procs {
		r.slots <- new(stageSlot)
	}
	return r
}

// run evaluates the stages, each on its own goroutine once it holds a
// slot, and adds their tallies to stats in stage order. It returns once
// every goroutine it started has, with the run's first error, or raises
// its first panic again.
func (r *spaceRun) run(stats *core.PruneStats, stages ...*levelStage) error {
	var wg sync.WaitGroup
	for _, st := range stages {
		slot := <-r.slots
		if r.failed() {
			r.slots <- slot
			break
		}
		r.spawn(&wg, func() {
			defer func() { r.slots <- slot }()
			st.run(r, slot)
		})
	}
	wg.Wait()
	if r.panicked != nil {
		panic(r.panicked)
	}
	if r.err != nil {
		return r.err
	}
	for _, st := range stages {
		stats.Candidates += st.stats.Candidates
		stats.Evaluated += st.stats.Evaluated
		stats.PrunedDominated += st.stats.PrunedDominated
		stats.PrunedThreshold += st.stats.PrunedThreshold
	}
	return nil
}

// spawn runs f on a goroutine of wg, recording its panic as the run's.
func (r *spaceRun) spawn(wg *sync.WaitGroup, f func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				r.fail(nil, p)
			}
		}()
		f()
	}()
}

// fail records err or the panic p, keeping the first of each.
func (r *spaceRun) fail(err error, p any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
	if r.panicked == nil {
		r.panicked = p
	}
}

// stopped reports whether the run has failed, reading no ctx. r.mu must
// be held.
func (r *spaceRun) stopped() bool { return r.err != nil || r.panicked != nil }

// failed is stopped for a caller not holding r.mu.
func (r *spaceRun) failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped()
}

// live reads ctx, unless the run has failed, recording its error as the
// run's, and reports whether the run goes on. r.mu must be held.
func (r *spaceRun) live() bool {
	if !r.stopped() {
		r.err = r.ctx.Err()
	}
	return !r.stopped()
}

// sweep runs q's sweep of strip at depth 2^lvl over the associativities
// 1..assoc once take grants it a sweeper, reading ctx then, and files it
// in q.out; q's first sweep starts q's "sweep" span. It returns the
// sweep, or nil once the run has failed. take refuses only while another
// sweeper is busy, and each comes back with a broadcast, so a waiting
// sweep always wakes, and sees a failure then.
func (r *spaceRun) sweep(q *policyRun, strip *trace.Stripped, ids []int32, lvl, assoc int) (out *onepass.AssocSweep) {
	r.mu.Lock()
	sw := r.sc.take(strip, 1<<lvl, assoc)
	for sw == nil && !r.stopped() {
		r.freed.Wait()
		sw = r.sc.take(strip, 1<<lvl, assoc)
	}
	if sw == nil {
		r.mu.Unlock()
		return nil
	}
	defer func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.sc.give(sw)
		r.freed.Broadcast()
		if q.left--; out != nil && q.left == 0 && q.span != nil {
			q.span.SetAttr("policy", q.policy.String())
			q.span.SetAttr("line", strip.LineWords)
			q.span.SetAttr("depths", len(q.out))
			q.span.SetAttr("cells", q.cells)
			q.span.SetAttr("refs", q.refs)
			q.span.End()
		}
	}()
	live := r.live()
	if live && q.cells == 0 {
		_, q.span = obs.StartSpan(r.ctx, "sweep")
	}
	q.cells += assoc
	q.refs += len(ids)
	r.mu.Unlock()
	if !live {
		return nil
	}
	err := faultinject.Hit("dse.sweep")
	if err == nil {
		out, err = sw.SweepList(strip, ids, 1<<lvl, assoc, onepassOf(q.policy))
	}
	if err != nil {
		r.fail(err, nil)
		return nil
	}
	q.out[lvl] = out
	return out
}
