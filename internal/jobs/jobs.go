// Package jobs is the execution tier of roughsimd: a bounded FIFO queue
// drained by a fixed pool of workers, with per-job context deadlines,
// explicit cancellation, progress reporting for streaming endpoints,
// and graceful drain on shutdown (stop intake, finish what is running,
// escalate to cancellation only when the drain deadline expires).
//
// It deliberately reuses the repository's resilience conventions: job
// failures are classified through resilience.Classify, worker panics
// are recovered into classified errors instead of killing the daemon,
// and every state transition is observable through telemetry (queue
// depth, running gauge, submitted/completed/failed/rejected counters,
// job latency histogram).
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// Status is the lifecycle state of a job.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusSucceeded Status = "succeeded"
	StatusFailed    Status = "failed"
	StatusCanceled  Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusSucceeded || s == StatusFailed || s == StatusCanceled
}

// Runner is the work a job performs. It must honor ctx (per-job
// deadline, explicit cancel, queue shutdown) and may report progress
// (monotone done out of total) for streaming consumers.
type Runner func(ctx context.Context, progress func(done, total int)) (any, error)

// Job is one unit of queued work. All accessors are safe for
// concurrent use.
type Job struct {
	ID string

	run         Runner
	ctx         context.Context // derived from the queue base at Submit
	cancel      context.CancelFunc
	done        chan struct{}
	maxAttempts int
	backoff     resilience.Backoff
	idHash      uint64 // decorrelates backoff jitter across jobs

	trace    *trace.Trace // per-job trace (nil when the queue has no tracer)
	waitSpan *trace.Span  // queue.wait span, Submit → worker pickup

	mu        sync.Mutex
	status    Status
	result    any
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	queueWait time.Duration
	attempt   int           // attempts started so far (lease accounting)
	changed   chan struct{} // closed and replaced on every observable change

	progDone, progTotal atomic.Int64
}

// Attempt returns how many times a worker has started this job.
func (j *Job) Attempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

// Info is a point-in-time snapshot of a job, shaped for JSON.
type Info struct {
	ID        string    `json:"id"`
	Status    Status    `json:"status"`
	Error     string    `json:"error,omitempty"`
	Done      int64     `json:"progress_done"`
	Total     int64     `json:"progress_total"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Attempt counts worker pickups; > 1 means the job was retried
	// after a transient failure (or resumed from a journal replay).
	Attempt     int `json:"attempt,omitempty"`
	MaxAttempts int `json:"max_attempts,omitempty"`
	// QueueWaitSeconds is Submit → worker-pickup latency, 0 until the
	// job leaves the queue.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
}

// Snapshot returns the job's current state.
func (j *Job) Snapshot() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := Info{
		ID:               j.ID,
		Status:           j.status,
		Done:             j.progDone.Load(),
		Total:            j.progTotal.Load(),
		Submitted:        j.submitted,
		Started:          j.started,
		Finished:         j.finished,
		Attempt:          j.attempt,
		MaxAttempts:      j.maxAttempts,
		QueueWaitSeconds: j.queueWait.Seconds(),
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// Done closes when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// Changed returns a channel closed at the job's next observable change
// (status transition or progress update). Streaming consumers wait on
// it instead of polling: subscribe with Changed() BEFORE reading
// Snapshot(), then block — any change between the two closes the
// returned channel, so no update can be missed.
func (j *Job) Changed() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.changed
}

// notifyLocked wakes every Changed() waiter. Caller holds j.mu.
func (j *Job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// Trace returns the job's trace (nil when tracing is disabled).
func (j *Job) Trace() *trace.Trace { return j.trace }

// Result returns the job's outcome; valid only after Done() closes.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Queue errors.
var (
	// ErrQueueFull: the bounded FIFO is at capacity; the caller should
	// shed load (the server maps this to 503).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed: the queue is draining or closed and accepts no work.
	ErrClosed = errors.New("jobs: queue closed")
)

// retainTerminal is how many terminal jobs the queue keeps for Get: when
// one more job turns terminal, the one that turned terminal longest ago
// is forgotten. Queued, running and retry-waiting jobs are never
// forgotten.
const retainTerminal = 4096

// Queue is a bounded FIFO drained by a fixed worker pool.
type Queue struct {
	ch      chan *Job
	timeout time.Duration
	base    context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// draining ends when Drain begins: from then on Submit refuses work
	// and a job waiting out a retry backoff is abandoned.
	draining   context.Context
	beginDrain context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	terminal []string // IDs of the terminal jobs in jobs, oldest first
	observer func(*Job)

	depth                                  *telemetry.Gauge
	running                                *telemetry.Gauge
	submitted, completed, failed, rejected *telemetry.Counter
	canceled, retried, dropped             *telemetry.Counter
	jobSeconds                             *telemetry.Histogram
	waitSeconds                            *telemetry.Histogram

	tracer *trace.Recorder
}

// NewQueue starts workers goroutines draining a FIFO of at most
// capacity queued jobs. jobTimeout > 0 bounds each job's run time.
func NewQueue(workers, capacity int, jobTimeout time.Duration, m *telemetry.Registry) (*Queue, error) {
	if workers <= 0 || capacity <= 0 {
		return nil, fmt.Errorf("jobs: need workers > 0 and capacity > 0 (got %d, %d)", workers, capacity)
	}
	base, cancel := context.WithCancel(context.Background())
	draining, beginDrain := context.WithCancel(context.Background())
	q := &Queue{
		ch:         make(chan *Job, capacity),
		timeout:    jobTimeout,
		base:       base,
		cancel:     cancel,
		draining:   draining,
		beginDrain: beginDrain,
		jobs:       map[string]*Job{},
		depth:      m.Gauge("queue.depth"),
		running:    m.Gauge("queue.running"),
		submitted:  m.Counter("queue.jobs_submitted"),
		completed:  m.Counter("queue.jobs_completed"),
		failed:     m.Counter("queue.jobs_failed"),
		rejected:   m.Counter("queue.jobs_rejected"),
		canceled:   m.Counter("queue.jobs_canceled"),
		retried:    m.Counter("queue.jobs_retried"),
		dropped:    m.Counter("jobs.dropped_at_shutdown"),
		jobSeconds: m.Histogram("queue.job_seconds"),
		// Queue wait is routinely sub-millisecond on an idle service, so
		// its buckets start two decades below the job-latency ones.
		waitSeconds: m.HistogramBuckets("queue.wait_seconds", telemetry.ExpBuckets(1e-5, 4, 16)),
	}
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q, nil
}

// SetTracer attaches a trace recorder: every job submitted afterwards
// gets a trace (ID = job ID) with a queue.wait span covering Submit →
// worker pickup and a job.run span wrapping the runner, propagated to
// the runner through its context. Call before serving traffic; a nil
// recorder disables tracing.
func (q *Queue) SetTracer(rec *trace.Recorder) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tracer = rec
}

// SetObserver registers fn to be called once per job, at the moment it
// reaches a terminal status (after the status is visible through
// Snapshot, outside the job's lock). The service tier uses it to funnel
// every outcome into one place: journal terminal records, checkpoint
// cleanup, circuit-breaker accounting. Call before serving traffic.
func (q *Queue) SetObserver(fn func(*Job)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.observer = fn
}

// Depth returns the number of queued (not yet picked up) jobs.
func (q *Queue) Depth() int { return len(q.ch) }

// Cap returns the queue's capacity.
func (q *Queue) Cap() int { return cap(q.ch) }

// Draining reports whether Drain has begun — terminal states reached
// after this point may be shutdown artifacts rather than real
// outcomes, which the journal must not record as terminal.
func (q *Queue) Draining() bool { return q.draining.Err() != nil }

// NewID returns a fresh random job ID in the queue's format. The
// service tier pre-allocates IDs so a job can be journaled durably
// before it becomes visible in the queue.
func NewID() string { return newID() }

// newID returns a random 128-bit hex job ID.
func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// SubmitOptions extends Submit with lease/attempt accounting and
// journal-replay identity. The zero value reproduces plain Submit.
type SubmitOptions struct {
	// ID fixes the job ID instead of generating one — journal replay
	// resubmits a crashed job under its original ID so client-held
	// status URLs survive the restart. Duplicate IDs are rejected.
	ID string
	// Attempt seeds the attempt counter with work already spent before
	// this submission (prior attempts from a replayed journal).
	Attempt int
	// MaxAttempts bounds total attempts (default 1: no retry). A job
	// failing with a retryable kind (resilience.Retryable) below the
	// bound runs again, in the same worker, after the Backoff delay;
	// permanent failures (invalid input, singular systems,
	// cancellation) terminalize immediately regardless of remaining
	// budget.
	MaxAttempts int
	// Backoff schedules the delay between attempts (zero: immediate).
	Backoff resilience.Backoff
}

// Submit enqueues run, returning ErrQueueFull when the FIFO is at
// capacity and ErrClosed after Drain has begun.
func (q *Queue) Submit(run Runner) (*Job, error) {
	return q.SubmitOpts(run, SubmitOptions{})
}

// SubmitOpts enqueues run with explicit lease/retry options.
func (q *Queue) SubmitOpts(run Runner, opt SubmitOptions) (*Job, error) {
	id := opt.ID
	if id == "" {
		id = newID()
	}
	maxAttempts := opt.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	// A replayed job arrives with its budget partly spent; always leave
	// at least one attempt, or a crash loop could strand work as
	// permanently queued-but-unrunnable.
	if opt.Attempt >= maxAttempts {
		maxAttempts = opt.Attempt + 1
	}
	j := &Job{ID: id, run: run, status: StatusQueued, submitted: time.Now(),
		attempt: opt.Attempt, maxAttempts: maxAttempts, backoff: opt.Backoff,
		idHash: resilience.StringHash(id),
		done:   make(chan struct{}), changed: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancel(q.base)

	q.mu.Lock()
	if q.Draining() {
		q.mu.Unlock()
		j.cancel()
		q.rejected.Inc()
		return nil, ErrClosed
	}
	if _, dup := q.jobs[j.ID]; dup {
		q.mu.Unlock()
		j.cancel()
		return nil, fmt.Errorf("jobs: duplicate job ID %s", j.ID)
	}
	// The trace must exist before the job is visible to a worker: runJob
	// reads j.trace/j.waitSpan without locking, relying on the channel
	// send as the happens-before edge.
	tracer := q.tracer
	if tracer != nil {
		j.trace = tracer.New(j.ID)
		j.waitSpan = j.trace.Root().StartChild("queue.wait")
	}
	select {
	case q.ch <- j:
		q.jobs[j.ID] = j
		q.mu.Unlock()
	default:
		q.mu.Unlock()
		tracer.Remove(j.ID)
		j.cancel()
		q.rejected.Inc()
		return nil, ErrQueueFull
	}
	q.submitted.Inc()
	q.depth.Set(float64(len(q.ch)))
	return j, nil
}

// Get returns the job with the given ID: a queued, running or
// retry-waiting job, or one of the last retainTerminal jobs to finish.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Cancel cancels a queued, running or retry-waiting job: the job's
// context expires, which a running Runner observes directly and the
// worker translates into StatusCanceled when it reaches (or finishes)
// the job or its backoff wait.
func (q *Queue) Cancel(id string) bool {
	j, ok := q.Get(id)
	if ok {
		j.cancel()
	}
	return ok
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.ch {
		q.depth.Set(float64(len(q.ch)))
		q.runJob(j)
	}
}

// Meta identifies the job execution a Runner invocation belongs to. The
// queue attaches it to every runner context so the service tier can tag
// journal records and checkpoints with the job that produced them.
type Meta struct {
	JobID   string
	Attempt int // 1-based pickup count, > 1 on a retry or replay
}

type metaKey struct{}

// MetaFrom extracts the job meta from a runner context; ok is false
// when ctx did not come from a queue worker.
func MetaFrom(ctx context.Context) (Meta, bool) {
	m, ok := ctx.Value(metaKey{}).(Meta)
	return m, ok
}

// runJob runs j's attempts. A transient failure with attempt budget
// left waits out its backoff here, in the worker, and runs again, so
// every terminal transition happens below.
func (q *Queue) runJob(j *Job) {
	var (
		v         any
		err       error
		status    Status
		attempt   int
		retryable bool
	)
	for {
		attempt, v, err = q.runAttempt(j)
		status, retryable = outcome(err)
		if !retryable || attempt >= j.maxAttempts {
			break
		}
		j.mu.Lock()
		j.err = err
		j.status = StatusQueued
		j.notifyLocked()
		j.mu.Unlock()
		q.retried.Inc()
		if q.waitRetry(j, attempt) != nil {
			if j.ctx.Err() != nil {
				status = StatusCanceled
				break
			}
			// Drain began: abandon the job without a terminal
			// transition. No terminal journal record is written, so a
			// restart replays it; jobs.dropped_at_shutdown counts it.
			q.dropped.Inc()
			return
		}
	}

	switch status {
	case StatusSucceeded:
		q.completed.Inc()
	case StatusCanceled:
		q.canceled.Inc()
	default:
		q.failed.Inc()
	}
	j.finishTrace(status)
	// Retire j before it turns terminal, so whoever waits on Done sees
	// the retention already applied; j itself is the newest entry.
	q.retire(j)
	j.mu.Lock()
	j.finished = time.Now()
	j.result, j.err = v, err
	j.status = status
	elapsed := j.finished.Sub(j.started)
	close(j.done)
	j.notifyLocked()
	j.mu.Unlock()
	q.jobSeconds.Observe(elapsed.Seconds())
	q.notifyObserver(j)
}

// retire records j as terminal and forgets the oldest terminal job past
// retainTerminal.
func (q *Queue) retire(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.terminal = append(q.terminal, j.ID)
	if len(q.terminal) > retainTerminal {
		delete(q.jobs, q.terminal[0])
		q.terminal = q.terminal[1:]
	}
}

// runAttempt runs one attempt of j under the per-attempt timeout and
// returns its 1-based attempt number with the runner's outcome.
func (q *Queue) runAttempt(j *Job) (attempt int, v any, err error) {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.attempt++
	attempt = j.attempt
	firstPickup := j.queueWait == 0
	if firstPickup {
		j.queueWait = j.started.Sub(j.submitted)
	}
	wait := j.queueWait
	j.notifyLocked()
	j.mu.Unlock()
	if firstPickup {
		q.waitSeconds.Observe(wait.Seconds())
		j.waitSpan.End()
		j.waitSpan = nil
	}
	q.running.Add(1)
	defer q.running.Add(-1)

	ctx := j.ctx
	if q.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.timeout)
		defer cancel()
	}
	ctx = context.WithValue(ctx, metaKey{}, Meta{JobID: j.ID, Attempt: attempt})
	if j.trace != nil {
		ctx = trace.ContextWithSpan(ctx, j.trace.Root())
	}
	runCtx, runSpan := trace.StartSpan(ctx, "job.run")
	progress := func(done, total int) {
		j.progDone.Store(int64(done))
		j.progTotal.Store(int64(total))
		j.mu.Lock()
		j.notifyLocked()
		j.mu.Unlock()
	}
	v, err = runRecovered(runCtx, j.run, progress)
	runSpan.End()
	return attempt, v, err
}

// outcome maps an attempt's error to the status it would end the job
// with, and reports whether another attempt could change it.
func outcome(err error) (status Status, retryable bool) {
	if err == nil {
		return StatusSucceeded, false
	}
	kind := resilience.Classify(err)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		kind == resilience.KindCanceled {
		return StatusCanceled, false
	}
	return StatusFailed, resilience.Retryable(kind)
}

// waitRetry waits out j's backoff after its attempt-th failure. It
// returns nil when the backoff elapses, and an error when the job's
// context ends (Cancel, the drain deadline) or Drain begins first.
func (q *Queue) waitRetry(j *Job, attempt int) error {
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	defer context.AfterFunc(q.draining, cancel)()
	return resilience.Sleep(ctx, j.backoff.Delay(attempt, j.idHash))
}

// finishTrace ends the job's root span with its terminal status. The
// terminal transition calls it before the job turns terminal, so no
// observer sees a terminal job whose trace is still open, and the
// trace's sink never runs under j.mu.
func (j *Job) finishTrace(status Status) {
	if j.trace != nil {
		j.trace.Root().SetAttr("status", string(status))
		j.trace.Finish()
	}
}

func (q *Queue) notifyObserver(j *Job) {
	q.mu.Lock()
	fn := q.observer
	q.mu.Unlock()
	if fn != nil {
		fn(j)
	}
}

// runRecovered invokes the runner through resilience.Call, so a panic
// fails the job with KindPanic instead of taking down a worker (and
// with it the daemon).
func runRecovered(ctx context.Context, run Runner, progress func(int, int)) (v any, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	err = resilience.Call(ctx, 0, func(ctx context.Context, _ int) (err error) {
		v, err = run(ctx, progress)
		return err
	})
	return v, err
}

// Drain gracefully shuts the queue down: new submissions are rejected,
// queued and running jobs are given until ctx expires to finish, then
// every remaining job is cancelled and the workers are joined. A job
// waiting out a retry backoff is abandoned without a terminal
// transition — no terminal journal record is written for it, so a
// restart against the same journal replays it; the abandoned count is
// exposed as jobs.dropped_at_shutdown. Drain returns nil when all
// accepted work finished (or was so abandoned) before the deadline.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if q.Draining() {
		q.mu.Unlock()
		return nil
	}
	q.beginDrain()
	close(q.ch)
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Deadline: cancel everything still in flight and wait for the
		// workers to notice.
		q.cancel()
		<-done
		return ctx.Err()
	}
}
