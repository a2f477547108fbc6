package dse

import (
	"context"
	"runtime"
	"sync"

	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
	"github.com/example/cachedse/internal/onepass"
	"github.com/example/cachedse/internal/trace"
)

// The sweep pool: each ExploreSpace call runs every job of its level
// stages — a stage's filter replay and strips, and its one-pass sweeps —
// on one set of GOMAXPROCS worker goroutines. The calling goroutine
// schedules. It starts stages while a stage slot is free, hands ready
// jobs to idle workers, and on each finished job moves its stage on: an
// LRU sweep's caps queue the non-LRU sweeps of its depth at once, and a
// line whose sweeps are all in gets its candidates and the next line's
// strip. So the policies of a line, the L1I and L1D streams and the
// retained L2 pairs all overlap, and nothing waits at a barrier but the
// L2 stage for the L1 pairs it is seeded with.
//
// The answer does not depend on the schedule. A sweep's result lands in
// its depth's slot of its policy, a line's candidates are assembled in
// policy and depth order once all of them are in, and the caller reads
// each stage's candidates in stage order; the front is built from those
// exactly as a serial walk builds it.
//
// Only the calling goroutine reads ctx: once before it hands out each
// sweep and each L2 filter replay, the work units a cancellation stops
// between. The first failure — a cancelled ctx, a job's error or a job's
// panic — stops all dispatch and ctx checks; the pool waits for the jobs
// in flight, then returns the error or raises the panic again on the
// calling goroutine, as if the job had run there.

// MaxSweepWays bounds, in int32 words, the tables a space exploration's
// policy sweeps hold. The server rejects a level whose largest sweep,
// max_depth·A(A+1)/2 replica ways for max_assoc A, would pass it. Within
// an exploration, the sweepers alive at once hold at most MaxSweepWays
// words of ways and residency tables together whenever there are two or
// more of them (spaceScratch.take); a lone sweeper holds what the serial
// sweep would.
const MaxSweepWays = 1 << 24

// spaceScratch is the working memory of one ExploreSpace call, reused
// across its level stages and touched only by the calling goroutine. A
// stage in flight holds a slot: the strip of its current line and, for an
// L2 stage, the filtered stream it strips. There are at most procs
// slots, so no more stages are in flight than there are workers, and at
// GOMAXPROCS 1 one slot serves every stage in turn. The policy sweepers
// are granted per sweep and returned after it: busy are out, idle wait
// for the next sweep. ways and residency are the largest ways and
// residency tables, in int32 words, any granted sweep could ask its
// sweeper for, so no sweeper holds more than their sum.
type spaceScratch struct {
	procs           int
	free            []*stageSlot // slots no stage holds
	idle            []*onepass.PolicySweeper
	busy            int
	ways, residency int
}

// stageSlot is the reusable memory of one stage in flight.
type stageSlot struct {
	strip    trace.Stripped
	filtered trace.Trace
}

func newSpaceScratch() *spaceScratch {
	sc := &spaceScratch{procs: runtime.GOMAXPROCS(0)}
	for range sc.procs {
		sc.free = append(sc.free, new(stageSlot))
	}
	return sc
}

// slot returns a free stage slot, or nil when procs stages are in
// flight.
func (sc *spaceScratch) slot() *stageSlot {
	n := len(sc.free)
	if n == 0 {
		return nil
	}
	s := sc.free[n-1]
	sc.free = sc.free[:n-1]
	return s
}

// release returns a slot for the next stage.
func (sc *spaceScratch) release(s *stageSlot) { sc.free = append(sc.free, s) }

// sweepLimit is how many sweepers may be alive at once when each holds
// tables of ways+residency words: one per worker, as many as
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

// poolJob is one unit of a stage's work on a worker: a sweep of the
// stage's strip by run's policy at depth 2^lvl, or, with run nil, the
// stage's preparation of its current line (levelStage.prepare).
type poolJob struct {
	st    *levelStage
	run   *policyRun
	lvl   int
	assoc int
	strip *trace.Stripped
	sw    *onepass.PolicySweeper
	out   *onepass.AssocSweep
	err   error
	panic any
}

// do runs the job, catching its panic for the caller to raise again.
func (j *poolJob) do(ctx context.Context) {
	defer func() { j.panic = recover() }()
	if j.run == nil {
		j.err = j.st.prepare(ctx)
		return
	}
	if j.err = faultinject.Hit("dse.sweep"); j.err == nil {
		j.out, j.err = j.sw.SweepLines(j.strip, 1<<j.lvl, j.assoc, onepassOf(j.run.policy))
	}
}

// sweepPool is one ExploreSpace call's workers and schedule. Its fields
// other than the channels belong to the calling goroutine.
type sweepPool struct {
	ctx      context.Context
	sc       *spaceScratch
	jobs     chan *poolJob
	done     chan *poolJob
	wg       sync.WaitGroup
	inflight int
	preps    []*poolJob // ready line preparations, run before sweeps
	sweeps   []*poolJob // ready sweeps, in the order they became ready
	err      error
	panicked any
}

// newSweepPool starts one worker per processor for an ExploreSpace call
// under ctx. close stops them.
func newSweepPool(ctx context.Context) *sweepPool {
	sc := newSpaceScratch()
	// At most procs jobs are in flight, so with procs slots each a
	// dispatch never waits for a worker and a worker never waits to hand
	// a job back.
	p := &sweepPool{
		ctx:  ctx,
		sc:   sc,
		jobs: make(chan *poolJob, sc.procs),
		done: make(chan *poolJob, sc.procs),
	}
	p.wg.Add(sc.procs)
	for range sc.procs {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				j.do(ctx)
				p.done <- j
			}
		}()
	}
	return p
}

// close stops the workers and waits for them; no job is in flight once
// run has returned or panicked.
func (p *sweepPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// failed reports whether a failure has stopped the pool.
func (p *sweepPool) failed() bool { return p.err != nil || p.panicked != nil }

// run evaluates the stages, starting each in order as a slot frees, and
// returns once all are done. After a failure it returns once the jobs in
// flight are, with the first error, or raises the first job panic again.
func (p *sweepPool) run(stages ...*levelStage) error {
	for {
		for len(stages) > 0 && !p.failed() {
			slot := p.sc.slot()
			if slot == nil {
				break
			}
			stages[0].start(p, slot)
			stages = stages[1:]
		}
		p.dispatch()
		if p.inflight == 0 {
			break
		}
		p.finish(<-p.done)
	}
	if p.panicked != nil {
		panic(p.panicked)
	}
	return p.err
}

// dispatch hands ready jobs to idle workers, line preparations first, and
// sweeps in order while take grants them a sweeper. It reads ctx before
// each sweep and each L2 filter replay.
func (p *sweepPool) dispatch() {
	for !p.failed() && p.inflight < p.sc.procs {
		var j *poolJob
		switch {
		case len(p.preps) > 0:
			j = p.preps[0]
			if j.st.filters() && !p.live() {
				return
			}
			p.preps = p.preps[1:]
		case len(p.sweeps) > 0:
			j = p.sweeps[0]
			if j.sw = p.sc.take(j.strip, 1<<j.lvl, j.assoc); j.sw == nil {
				return
			}
			if !p.live() {
				p.sc.give(j.sw)
				return
			}
			p.sweeps = p.sweeps[1:]
		default:
			return
		}
		p.inflight++
		p.jobs <- j
	}
}

// live checks ctx, recording its error as the pool's failure.
func (p *sweepPool) live() bool {
	p.err = p.ctx.Err()
	return p.err == nil
}

// finish takes a job back from a worker and moves its stage on.
func (p *sweepPool) finish(j *poolJob) {
	p.inflight--
	if j.sw != nil {
		p.sc.give(j.sw)
		j.sw = nil
	}
	switch {
	case j.panic != nil:
		if p.panicked == nil {
			p.panicked = j.panic
		}
	case j.err != nil:
		if p.err == nil {
			p.err = j.err
		}
	case p.failed():
	case j.run == nil:
		j.st.prepared(p)
	default:
		j.st.swept(p, j)
	}
}

// queue makes run's sweep at depth 2^lvl over associativities 1..assoc
// ready. Under a recorder, run's "sweep" span starts with its first.
func (p *sweepPool) queue(st *levelStage, run *policyRun, lvl, assoc int) {
	if run.queued == 0 {
		_, run.span = obs.StartSpan(p.ctx, "sweep")
	}
	run.queued++
	run.cells += assoc
	p.sweeps = append(p.sweeps, &poolJob{st: st, run: run, lvl: lvl, assoc: assoc, strip: st.strip})
}
