package jobs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
)

// The lease state machine of the distributed compute plane. A LeaseTable
// holds column-granular tasks the coordinator offers; workers claim one
// at a time over HTTP, renew the lease while computing, and complete it
// with a result or a classified error. Losing a worker is an expected
// event, not a failure: an expired lease re-queues its task (exactly
// once per loss, bounded by MaxLosses), and a result arriving after its
// lease expired — the worker was slow, not dead — is discarded
// idempotently by token mismatch, so a task can never complete twice
// with conflicting results. Deterministic rejections (invalid input,
// singular systems, recovered panics) fail the task immediately: the
// resilience taxonomy says retrying them cannot change the outcome.
//
// The table is intentionally independent of the wire format: payloads
// are opaque, so the queue package stays free of HTTP and the cluster
// package free of lease bookkeeping.

// ErrStaleLease reports a renew or complete whose lease is no longer
// current: the task is unknown, finished, canceled, or re-leased to
// another worker after an expiry. Callers discard the operation — the
// authoritative result is (or will be) someone else's.
var ErrStaleLease = errors.New("jobs: stale or unknown lease")

// LeaseOptions wires a LeaseTable.
type LeaseOptions struct {
	// TTL is how long a claim stays valid without a renew (default 30s).
	TTL time.Duration
	// MaxLosses bounds how many times one task survives losing its
	// worker (lease expiry or a retryable completion error) before it
	// fails (default 3).
	MaxLosses int
	// Metrics receives lease.* telemetry; nil disables it.
	Metrics *telemetry.Registry
}

// Lease is one granted claim.
type Lease struct {
	TaskID  string
	Token   string
	Payload any
	TTL     time.Duration
}

type taskState int

const (
	taskPending taskState = iota
	taskLeased
	taskDone
)

type leaseTask struct {
	id      string
	payload any
	state   taskState
	worker  string
	token   string
	expires time.Time
	losses  int
	result  any
	err     error
}

// LeaseTable is the coordinator-side claim/renew/complete ledger. All
// methods are safe for concurrent use.
type LeaseTable struct {
	opt LeaseOptions

	mu      sync.Mutex
	tasks   map[string]*leaseTask
	order   []string // claim order; entries whose task is not pending are skipped
	workers map[string]time.Time
	changed chan struct{}

	stop     chan struct{}
	stopOnce sync.Once

	m      *telemetry.Registry
	tasksG *telemetry.Gauge
	workG  *telemetry.Gauge
}

// NewLeaseTable builds the table and starts its expiry scanner.
func NewLeaseTable(opt LeaseOptions) *LeaseTable {
	if opt.TTL <= 0 {
		opt.TTL = 30 * time.Second
	}
	if opt.MaxLosses <= 0 {
		opt.MaxLosses = 3
	}
	if opt.Metrics == nil {
		opt.Metrics = telemetry.NewRegistry()
	}
	lt := &LeaseTable{
		opt:     opt,
		tasks:   map[string]*leaseTask{},
		workers: map[string]time.Time{},
		changed: make(chan struct{}),
		stop:    make(chan struct{}),
		m:       opt.Metrics,
		tasksG:  opt.Metrics.Gauge("lease.tasks"),
		workG:   opt.Metrics.Gauge("cluster.workers"),
	}
	go lt.scan()
	return lt
}

// Close stops the expiry scanner. Outstanding tasks stay readable.
func (lt *LeaseTable) Close() {
	if lt == nil {
		return
	}
	lt.stopOnce.Do(func() { close(lt.stop) })
}

// scan expires lapsed leases on a period well under the TTL.
func (lt *LeaseTable) scan() {
	period := lt.opt.TTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-lt.stop:
			return
		case now := <-tick.C:
			lt.expire(now)
		}
	}
}

// expire re-queues (or, past MaxLosses, fails) every task whose lease
// lapsed, and forgets workers not seen within the liveness window.
func (lt *LeaseTable) expire(now time.Time) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	expired := false
	for _, t := range lt.tasks {
		if t.state != taskLeased || now.Before(t.expires) {
			continue
		}
		expired = true
		lt.m.CounterL("lease.expired", telemetry.L("worker", t.worker)).Inc()
		lt.loseLocked(t, fmt.Errorf("jobs: lease lost %d times (worker %s expired)", t.losses+1, t.worker))
	}
	window := 2 * lt.opt.TTL
	for w, seen := range lt.workers {
		if now.Sub(seen) > window {
			delete(lt.workers, w)
		}
	}
	lt.workG.Set(float64(len(lt.workers)))
	if expired {
		lt.notifyLocked()
	}
}

// loseLocked records one worker loss for a leased task: back to pending
// (exactly one re-queue per loss), or terminally failed with failErr
// once the loss budget is spent. Caller holds lt.mu.
func (lt *LeaseTable) loseLocked(t *leaseTask, failErr error) {
	t.losses++
	t.worker, t.token = "", ""
	if t.losses > lt.opt.MaxLosses {
		lt.m.Counter("lease.exhausted").Inc()
		t.state = taskDone
		t.err = failErr
		return
	}
	lt.m.Counter("lease.requeued").Inc()
	t.state = taskPending
	lt.order = append(lt.order, t.id)
}

// Offer adds a task, idempotently by ID: a duplicate offer leaves the
// existing task's state alone. Its outcome is read with Result.
func (lt *LeaseTable) Offer(id string, payload any) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if _, ok := lt.tasks[id]; ok {
		return
	}
	lt.tasks[id] = &leaseTask{id: id, payload: payload, state: taskPending}
	lt.order = append(lt.order, id)
	lt.tasksG.Set(float64(len(lt.tasks)))
	lt.m.Counter("lease.offered").Inc()
	lt.notifyLocked()
}

// Claim leases the oldest pending task to worker (registering the
// worker as live either way); ok is false when nothing is pending.
func (lt *LeaseTable) Claim(worker string) (Lease, bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.touchLocked(worker)
	var t *leaseTask
	for len(lt.order) > 0 {
		id := lt.order[0]
		lt.order = lt.order[1:]
		if c, ok := lt.tasks[id]; ok && c.state == taskPending {
			t = c
			break
		}
	}
	if t == nil {
		return Lease{}, false
	}
	t.state = taskLeased
	t.worker = worker
	t.token = newID()
	t.expires = time.Now().Add(lt.opt.TTL)
	lt.m.CounterL("lease.claims", telemetry.L("worker", worker)).Inc()
	return Lease{TaskID: t.id, Token: t.token, Payload: t.payload, TTL: lt.opt.TTL}, true
}

// Renew extends a current lease by one TTL; ErrStaleLease otherwise.
func (lt *LeaseTable) Renew(id, token string) error {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	t, ok := lt.tasks[id]
	if !ok || t.state != taskLeased || t.token != token {
		lt.m.Counter("lease.stale_renews").Inc()
		return ErrStaleLease
	}
	t.expires = time.Now().Add(lt.opt.TTL)
	lt.touchLocked(t.worker)
	lt.m.Counter("lease.renews").Inc()
	return nil
}

// Complete finishes a leased task. A stale token (the lease expired and
// the task was re-queued or re-leased) discards the completion
// idempotently with ErrStaleLease — the re-queued execution's result is
// the authoritative one. taskErr, when non-nil, is routed through the
// resilience taxonomy: a deterministic rejection (invalid input,
// singular, panic) fails the task immediately; anything else counts as
// one loss and re-queues within the MaxLosses budget.
func (lt *LeaseTable) Complete(id, token string, result any, taskErr error) error {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	t, ok := lt.tasks[id]
	if !ok || t.state != taskLeased || t.token != token {
		lt.m.Counter("lease.stale_results").Inc()
		return ErrStaleLease
	}
	worker := t.worker
	lt.touchLocked(worker)
	if taskErr != nil {
		switch resilience.Classify(taskErr) {
		case resilience.KindInvalidInput, resilience.KindSingular, resilience.KindPanic:
			// Deterministic rejection: re-running it cannot change the
			// outcome, so it must never burn re-queue budget.
			lt.m.Counter("lease.rejected").Inc()
			t.state = taskDone
			t.worker, t.token = "", ""
			t.err = taskErr
		default:
			lt.loseLocked(t, taskErr)
		}
		lt.notifyLocked()
		return nil
	}
	t.state = taskDone
	t.worker, t.token = "", ""
	t.result = result
	lt.m.CounterL("lease.completes", telemetry.L("worker", worker)).Inc()
	lt.notifyLocked()
	return nil
}

// Result returns a task's outcome. done is false while it is still
// pending or leased; an unknown (canceled or forgotten) task reads as
// done with ErrStaleLease, so a waiter can never deadlock on it.
func (lt *LeaseTable) Result(id string) (result any, err error, done bool) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	t, ok := lt.tasks[id]
	if !ok {
		return nil, ErrStaleLease, true
	}
	if t.state != taskDone {
		return nil, nil, false
	}
	return t.result, t.err, true
}

// Cancel abandons a task: it is removed from the table, so Result reads
// it as done with ErrStaleLease and any in-flight completion for it
// becomes a stale no-op.
func (lt *LeaseTable) Cancel(id string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if _, ok := lt.tasks[id]; !ok {
		return
	}
	delete(lt.tasks, id)
	lt.tasksG.Set(float64(len(lt.tasks)))
	lt.notifyLocked()
}

// Forget drops a finished task's record (the caller consumed its
// result). Unfinished tasks are left alone.
func (lt *LeaseTable) Forget(id string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if t, ok := lt.tasks[id]; ok && t.state == taskDone {
		delete(lt.tasks, id)
		lt.tasksG.Set(float64(len(lt.tasks)))
	}
}

// Leave removes a departing worker (graceful drain): its leased tasks
// re-queue immediately — a rebalance, deliberately not charged against
// any task's loss budget — instead of waiting out their TTLs.
func (lt *LeaseTable) Leave(worker string) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	delete(lt.workers, worker)
	lt.workG.Set(float64(len(lt.workers)))
	for _, t := range lt.tasks {
		if t.state == taskLeased && t.worker == worker {
			t.state = taskPending
			t.worker, t.token = "", ""
			lt.order = append(lt.order, t.id)
			lt.m.Counter("lease.rebalanced").Inc()
		}
	}
	lt.notifyLocked()
}

// LiveWorkers counts workers seen (claim, renew, complete) within the
// liveness window — the coordinator dispatches remotely only when this
// is positive.
func (lt *LeaseTable) LiveWorkers() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	n, window := 0, 2*lt.opt.TTL
	now := time.Now()
	for _, seen := range lt.workers {
		if now.Sub(seen) <= window {
			n++
		}
	}
	return n
}

// Changed returns a channel closed at the table's next observable
// change (offer, completion, expiry, cancel). Subscribe before reading
// Result so no transition can be missed.
func (lt *LeaseTable) Changed() <-chan struct{} {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.changed
}

func (lt *LeaseTable) notifyLocked() {
	close(lt.changed)
	lt.changed = make(chan struct{})
}

func (lt *LeaseTable) touchLocked(worker string) {
	lt.workers[worker] = time.Now()
	lt.workG.Set(float64(len(lt.workers)))
}
