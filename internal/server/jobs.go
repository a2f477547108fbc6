package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/example/cachedse/internal/faultinject"
	"github.com/example/cachedse/internal/obs"
)

// JobState is the lifecycle of a queued exploration.
type JobState string

// Job lifecycle states. queued → running → done | failed | canceled; a
// queued job cancelled before a worker picks it up goes straight to
// canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Submission errors.
var (
	ErrQueueFull   = errors.New("server: job queue full")
	ErrQueueClosed = errors.New("server: job queue shut down")
)

// Job is one unit of work flowing through the queue. All fields are
// guarded by mu; Snapshot returns a consistent copy for serving.
type Job struct {
	id   string
	kind string
	fn   func(context.Context) (any, error)
	// recorder collects the job's span tree; set by the dispatcher right
	// after Submit, read by the trace endpoint. Atomic because the worker
	// may finish (and a poller may fetch) before SetRecorder runs.
	recorder atomic.Pointer[obs.Recorder]

	// deadline, when non-zero, caps the job context: the client's
	// propagated X-Request-Deadline rides the job into the worker.
	deadline time.Time

	mu       sync.Mutex
	state    JobState
	result   any
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc // non-nil while running
	canceled bool               // cancellation requested
	done     chan struct{}      // closed on reaching a terminal state
}

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`
	Result   any        `json:"result,omitempty"`
	// TraceID names the distributed trace the job's spans belong to —
	// the join key for exemplars, /v1/debug/slow and cluster stitching.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the condensed span breakdown (phases, wall time, N, N',
	// dedup hit rate) once the job has produced spans.
	Trace *obs.Summary `json:"trace,omitempty"`
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// SetRecorder attaches the span recorder whose trace the job exposes.
func (j *Job) SetRecorder(r *obs.Recorder) { j.recorder.Store(r) }

// TraceExport returns the job's recorded span trace, or ok=false when the
// job has no recorder attached.
func (j *Job) TraceExport() (obs.Trace, bool) {
	r := j.recorder.Load()
	if r == nil {
		return obs.Trace{}, false
	}
	return r.Export(), true
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot returns the job's current status.
func (j *Job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Kind: j.kind, State: j.state,
		Created: j.created, Error: j.errMsg, Result: j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if r := j.recorder.Load(); r != nil {
		st.TraceID = r.TraceID().String()
		if st.Finished != nil {
			st.Trace = r.Export().Summary()
		}
	}
	return st
}

func (j *Job) terminal(state JobState, result any, errMsg string) {
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = time.Now()
	j.cancel = nil
	close(j.done)
}

// Queue runs jobs through a fixed pool of workers fed by a bounded
// channel: submission is non-blocking and fails fast with ErrQueueFull
// when the backlog is at capacity, which the HTTP layer maps to 503. Every
// job runs under a context derived from the queue's base context plus the
// per-job timeout, so cancellation and shutdown reach the exploration
// loops.
type Queue struct {
	baseCtx    context.Context
	baseCancel context.CancelFunc
	timeout    time.Duration
	ch         chan *Job
	wg         sync.WaitGroup

	mu          sync.Mutex
	byID        map[string]*Job
	finished    []string // terminal job ids, oldest first, for pruning
	maxFinished int
	closed      bool

	nextID  atomic.Uint64
	running atomic.Int64
	counts  map[JobState]*atomic.Int64

	forcedMu sync.Mutex
	forced   []ForcedJob
}

// ForcedJob identifies one job that was still running when Shutdown's
// drain deadline expired and had to be cancelled mid-flight.
type ForcedJob struct {
	ID      string
	Kind    string
	Elapsed time.Duration
}

// NewQueue starts workers goroutines servicing a backlog of depth jobs.
// workers <= 0 uses GOMAXPROCS; timeout <= 0 means no per-job timeout.
// Finished jobs stay queryable until maxFinished newer jobs have finished.
func NewQueue(workers, depth int, timeout time.Duration, maxFinished int) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth < 1 {
		depth = 1
	}
	if maxFinished < 1 {
		maxFinished = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		baseCtx:     ctx,
		baseCancel:  cancel,
		timeout:     timeout,
		ch:          make(chan *Job, depth),
		byID:        make(map[string]*Job),
		maxFinished: maxFinished,
		counts: map[JobState]*atomic.Int64{
			JobDone: new(atomic.Int64), JobFailed: new(atomic.Int64), JobCanceled: new(atomic.Int64),
		},
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// SubmitOption tweaks one submission.
type SubmitOption func(*Job)

// WithJobDeadline caps the job's context at t (the client's propagated
// request deadline). The zero time means no cap beyond the queue timeout.
func WithJobDeadline(t time.Time) SubmitOption {
	return func(j *Job) { j.deadline = t }
}

// Submit enqueues fn as a job of the given kind.
func (q *Queue) Submit(kind string, fn func(context.Context) (any, error), opts ...SubmitOption) (*Job, error) {
	if err := faultinject.Hit("queue.submit"); err != nil {
		// An injected submit fault presents as a full backlog: the
		// admission path the chaos suite wants to exercise.
		return nil, fmt.Errorf("%w (%v)", ErrQueueFull, err)
	}
	job := &Job{
		id:      fmt.Sprintf("job-%06d", q.nextID.Add(1)),
		kind:    kind,
		fn:      fn,
		state:   JobQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(job)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrQueueClosed
	}
	select {
	case q.ch <- job:
	default:
		return nil, ErrQueueFull
	}
	q.byID[job.id] = job
	return job, nil
}

// Get returns the job with the given id, if it is still tracked.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byID[id]
	return j, ok
}

// Cancel requests cancellation of a job: a queued job is marked canceled
// immediately (the worker will skip it); a running job has its context
// cancelled. Returns false if the job is unknown or already terminal.
func (q *Queue) Cancel(id string) bool {
	j, ok := q.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobQueued:
		j.canceled = true
		j.terminal(JobCanceled, nil, context.Canceled.Error())
		q.noteFinished(j)
		return true
	case JobRunning:
		j.canceled = true
		if j.cancel != nil {
			j.cancel()
		}
		return true
	default:
		return false
	}
}

// Depth returns the number of jobs waiting in the backlog.
func (q *Queue) Depth() int { return len(q.ch) }

// Accepting reports whether Submit can still enqueue work (i.e. Shutdown
// has not begun).
func (q *Queue) Accepting() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return !q.closed
}

// Running returns the number of jobs currently executing.
func (q *Queue) Running() int64 { return q.running.Load() }

// Finished returns the cumulative count of jobs that reached the given
// terminal state.
func (q *Queue) Finished(state JobState) int64 {
	if c, ok := q.counts[state]; ok {
		return c.Load()
	}
	return 0
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for job := range q.ch {
		job.mu.Lock()
		if job.canceled {
			// Cancelled while queued; already terminal.
			job.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(q.baseCtx)
		if q.timeout > 0 {
			ctx, cancel = context.WithTimeout(q.baseCtx, q.timeout)
		}
		if !job.deadline.IsZero() {
			// The client's deadline composes with the queue timeout:
			// whichever expires first cancels the job.
			dctx, dcancel := context.WithDeadline(ctx, job.deadline)
			inner := cancel
			ctx, cancel = dctx, func() { dcancel(); inner() }
		}
		// The job ID is only assigned at Submit, after the closure is
		// built, so the worker is the natural place to thread it into the
		// context for log correlation.
		ctx = obs.WithJobID(ctx, job.id)
		job.state = JobRunning
		job.started = time.Now()
		job.cancel = cancel
		job.mu.Unlock()

		q.running.Add(1)
		result, err := q.runJob(ctx, job)
		q.running.Add(-1)
		cancel()

		job.mu.Lock()
		switch {
		case err == nil:
			job.terminal(JobDone, result, "")
		case errors.Is(err, context.Canceled):
			job.terminal(JobCanceled, nil, err.Error())
		default:
			job.terminal(JobFailed, nil, err.Error())
		}
		job.mu.Unlock()
		q.noteFinished(job)
	}
}

// runJob executes the job body behind the queue.run failpoint and a panic
// net: a panicking exploration (or an injected panic) downs neither the
// worker goroutine nor the process — the job just fails.
func (q *Queue) runJob(ctx context.Context, job *Job) (result any, err error) {
	defer func() {
		if p := recover(); p != nil {
			result, err = nil, fmt.Errorf("server: job panicked: %v", p)
		}
	}()
	if err := faultinject.Hit("queue.run"); err != nil {
		return nil, err
	}
	return job.fn(ctx)
}

// noteFinished records a terminal transition and prunes the oldest
// finished jobs past the retention bound. Callers may hold job.mu; only
// q.mu is taken here.
func (q *Queue) noteFinished(j *Job) {
	if c, ok := q.counts[j.state]; ok {
		c.Add(1)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.finished = append(q.finished, j.id)
	for len(q.finished) > q.maxFinished {
		delete(q.byID, q.finished[0])
		q.finished = q.finished[1:]
	}
}

// Shutdown stops accepting jobs, drains the backlog and waits for
// in-flight jobs to flush. If ctx expires first, running jobs are
// cancelled via the base context and Shutdown still waits for the workers
// to return before reporting ctx's error.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	close(q.ch)
	q.mu.Unlock()

	doneCh := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
		return nil
	case <-ctx.Done():
		// Record who is about to be cut off before pulling the base
		// context, so the caller can log the force-cancelled jobs.
		now := time.Now()
		q.mu.Lock()
		var forced []ForcedJob
		for _, j := range q.byID {
			j.mu.Lock()
			if j.state == JobRunning {
				forced = append(forced, ForcedJob{ID: j.id, Kind: j.kind, Elapsed: now.Sub(j.started)})
			}
			j.mu.Unlock()
		}
		q.mu.Unlock()
		q.forcedMu.Lock()
		q.forced = append(q.forced, forced...)
		q.forcedMu.Unlock()
		q.baseCancel()
		<-doneCh
		return ctx.Err()
	}
}

// ForceCanceled returns the jobs cancelled at Shutdown's drain deadline.
func (q *Queue) ForceCanceled() []ForcedJob {
	q.forcedMu.Lock()
	defer q.forcedMu.Unlock()
	out := make([]ForcedJob, len(q.forced))
	copy(out, q.forced)
	return out
}
