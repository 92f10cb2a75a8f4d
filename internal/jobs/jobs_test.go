package jobs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

func await(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

func TestFIFOOrderAndResult(t *testing.T) {
	m := telemetry.NewRegistry()
	q, err := NewQueue(1, 8, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	var order []int
	var jobsList []*Job
	for i := 0; i < 4; i++ {
		i := i
		j, err := q.Submit(func(context.Context, func(int, int)) (any, error) {
			order = append(order, i) // single worker ⇒ no race
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobsList = append(jobsList, j)
	}
	for i, j := range jobsList {
		await(t, j)
		v, err := j.Result()
		if err != nil || v.(int) != i*i {
			t.Fatalf("job %d: v=%v err=%v", i, v, err)
		}
		if s := j.Snapshot(); s.Status != StatusSucceeded {
			t.Fatalf("job %d status %s", i, s.Status)
		}
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v not FIFO", order)
		}
	}
	if n := m.Counter("queue.jobs_completed").Value(); n != 4 {
		t.Fatalf("completed = %d", n)
	}
}

func TestBoundedQueueRejectsWhenFull(t *testing.T) {
	m := telemetry.NewRegistry()
	q, err := NewQueue(1, 1, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	// One running (occupying the worker) + one queued fills the system.
	j1, err := q.Submit(func(context.Context, func(int, int)) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := q.Submit(func(context.Context, func(int, int)) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(func(context.Context, func(int, int)) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	if n := m.Counter("queue.jobs_rejected").Value(); n != 1 {
		t.Fatalf("rejected = %d", n)
	}
	close(block)
	await(t, j1)
	await(t, j2)
}

func TestPerJobTimeout(t *testing.T) {
	q, err := NewQueue(1, 2, 30*time.Millisecond, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	j, err := q.Submit(func(ctx context.Context, _ func(int, int)) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	await(t, j)
	if s := j.Snapshot(); s.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", s.Status)
	}
}

func TestCancelRunningJob(t *testing.T) {
	q, err := NewQueue(1, 2, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	started := make(chan struct{})
	j, err := q.Submit(func(ctx context.Context, _ func(int, int)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !q.Cancel(j.ID) {
		t.Fatal("cancel returned false")
	}
	await(t, j)
	if s := j.Snapshot(); s.Status != StatusCanceled {
		t.Fatalf("status = %s", s.Status)
	}
	if q.Cancel("no-such-id") {
		t.Fatal("cancel of unknown id must return false")
	}
}

func TestCanceledWhileQueuedNeverRuns(t *testing.T) {
	q, err := NewQueue(1, 2, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	j1, _ := q.Submit(func(context.Context, func(int, int)) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	var ran atomic.Bool
	j2, err := q.Submit(func(ctx context.Context, _ func(int, int)) (any, error) {
		if ctx.Err() == nil {
			ran.Store(true)
		}
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	q.Cancel(j2.ID)
	close(block)
	await(t, j1)
	await(t, j2)
	if ran.Load() {
		t.Fatal("canceled queued job must not run its body")
	}
	if s := j2.Snapshot(); s.Status != StatusCanceled {
		t.Fatalf("status = %s", s.Status)
	}
}

func TestPanicIsRecoveredAndClassified(t *testing.T) {
	m := telemetry.NewRegistry()
	q, err := NewQueue(2, 2, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	j, err := q.Submit(func(context.Context, func(int, int)) (any, error) {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	await(t, j)
	_, jerr := j.Result()
	if resilience.Classify(jerr) != resilience.KindPanic {
		t.Fatalf("err = %v, want panic classification", jerr)
	}
	// The worker survived: the queue still executes jobs.
	j2, err := q.Submit(func(context.Context, func(int, int)) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatal(err)
	}
	await(t, j2)
	if v, err := j2.Result(); err != nil || v.(string) != "ok" {
		t.Fatalf("post-panic job: v=%v err=%v", v, err)
	}
	if n := m.Counter("queue.jobs_failed").Value(); n != 1 {
		t.Fatalf("failed = %d", n)
	}
}

func TestProgressReporting(t *testing.T) {
	q, err := NewQueue(1, 1, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	j, err := q.Submit(func(_ context.Context, progress func(int, int)) (any, error) {
		for i := 1; i <= 3; i++ {
			progress(i, 3)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	await(t, j)
	if s := j.Snapshot(); s.Done != 3 || s.Total != 3 {
		t.Fatalf("progress %d/%d", s.Done, s.Total)
	}
}

func TestGracefulDrainFinishesQueuedWork(t *testing.T) {
	q, err := NewQueue(2, 8, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	var last *Job
	for i := 0; i < 6; i++ {
		last, err = q.Submit(func(context.Context, func(int, int)) (any, error) {
			time.Sleep(5 * time.Millisecond)
			ran.Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 6 {
		t.Fatalf("drain finished %d of 6 jobs", n)
	}
	await(t, last)
	if _, err := q.Submit(func(context.Context, func(int, int)) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain submit: %v", err)
	}
	// A second Drain is a no-op.
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	q, err := NewQueue(1, 2, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	j, err := q.Submit(func(ctx context.Context, _ func(int, int)) (any, error) {
		close(started)
		<-ctx.Done() // only queue escalation can stop this job
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v", err)
	}
	await(t, j)
	if s := j.Snapshot(); s.Status != StatusCanceled {
		t.Fatalf("straggler status = %s", s.Status)
	}
}

// TestQueueWaitIsMeasured is the regression test for the unmeasured
// queue-wait bug: with one worker blocked, a second job's wait between
// Submit and pickup must land in queue.wait_seconds and in the job's
// Info snapshot.
func TestQueueWaitIsMeasured(t *testing.T) {
	m := telemetry.NewRegistry()
	q, err := NewQueue(1, 8, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	release := make(chan struct{})
	first, err := q.Submit(func(context.Context, func(int, int)) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := q.Submit(func(context.Context, func(int, int)) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the second job accumulate queue wait
	close(release)
	await(t, first)
	await(t, second)

	if got := second.Snapshot().QueueWaitSeconds; got < 0.02 {
		t.Fatalf("second job queue_wait_seconds = %g, want ≥ 0.02", got)
	}
	if first.Snapshot().QueueWaitSeconds <= 0 {
		t.Fatal("first job should still record a (tiny) positive queue wait")
	}
	hs := m.Snapshot().Histograms["queue.wait_seconds"]
	if hs.Count != 2 {
		t.Fatalf("queue.wait_seconds count = %d, want 2", hs.Count)
	}
	if hs.Sum < 0.02 {
		t.Fatalf("queue.wait_seconds sum = %g, want ≥ 0.02", hs.Sum)
	}
}

// TestChangedBroadcast verifies the event-driven subscription: a
// channel obtained before a change closes at that change, and the
// subscribe-then-snapshot pattern cannot miss updates.
func TestChangedBroadcast(t *testing.T) {
	q, err := NewQueue(1, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	step := make(chan struct{})
	j, err := q.Submit(func(ctx context.Context, progress func(int, int)) (any, error) {
		progress(0, 2)
		<-step
		progress(1, 2)
		<-step
		progress(2, 2)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := []int64{}
	var last Info
	sends := 0
	deadline := time.After(10 * time.Second)
	for !last.Status.Terminal() {
		ch := j.Changed() // subscribe BEFORE snapshot
		info := j.Snapshot()
		if info.Done != last.Done || info.Status != last.Status {
			if info.Done != last.Done {
				seen = append(seen, info.Done)
			}
			last = info
			continue // re-check: more changes may have landed already
		}
		// Nothing new: release the runner. The job consumes exactly two
		// steps; the cap keeps a stale snapshot from over-sending.
		if sends < 2 {
			step <- struct{}{}
			sends++
			continue
		}
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("no change signal; last %+v", last)
		}
	}
	if len(seen) == 0 || seen[len(seen)-1] != 2 {
		t.Fatalf("progress changes seen: %v", seen)
	}
	// After the terminal notify, Changed() must simply never fire again
	// (no goroutine is left signaling) — give it a moment to prove it.
	select {
	case <-j.Changed():
		t.Fatal("Changed fired after terminal state")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestJobTraceSpans: with a tracer attached, every job yields a trace
// whose queue.wait and job.run spans nest under the root and whose
// stage rollup is complete.
func TestJobTraceSpans(t *testing.T) {
	rec := trace.NewRecorder(8)
	q, err := NewQueue(1, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	q.SetTracer(rec)
	j, err := q.Submit(func(ctx context.Context, progress func(int, int)) (any, error) {
		_, sp := trace.StartSpan(ctx, "sweep.synthesize")
		sp.End()
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	await(t, j)
	tr := rec.Get(j.ID)
	if tr == nil || j.Trace() != tr {
		t.Fatal("job trace not recorded")
	}
	sum := tr.Summary()
	if sum.Spans.InProgress {
		t.Fatal("root span not finished")
	}
	names := map[string]bool{}
	for _, c := range sum.Spans.Children {
		names[c.Name] = true
	}
	if !names["queue.wait"] || !names["job.run"] {
		t.Fatalf("root children: %+v", sum.Spans.Children)
	}
	var runSpan *trace.SpanSummary
	for _, c := range sum.Spans.Children {
		if c.Name == "job.run" {
			runSpan = c
		}
	}
	if len(runSpan.Children) != 1 || runSpan.Children[0].Name != "sweep.synthesize" {
		t.Fatalf("runner spans must nest under job.run: %+v", runSpan)
	}
	if got := sum.Spans.Attrs["status"]; got != string(StatusSucceeded) {
		t.Fatalf("root status attr = %v", got)
	}
	// A full queue must not leak a trace for the rejected job.
	q2, err := NewQueue(1, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Drain(context.Background())
	release := make(chan struct{})
	defer close(release) // LIFO: runs before Drain, unblocking the worker
	started := make(chan struct{})
	q2.SetTracer(rec)
	if _, err := q2.Submit(func(context.Context, func(int, int)) (any, error) {
		close(started)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started // worker holds the first job; the buffer is empty
	if _, err := q2.Submit(func(context.Context, func(int, int)) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err) // fills the buffer
	}
	if rj, err := q2.Submit(func(context.Context, func(int, int)) (any, error) { return nil, nil }); err == nil {
		t.Fatalf("expected queue full, got job %v", rj.ID)
	} else if got := len(rec.Recent(0)); got != 3 {
		t.Fatalf("rejected job left a trace: %d recorded, want 3", got)
	}
}

func transientErr() error {
	return resilience.Errorf(resilience.KindConvergence, "test.op", "transient")
}

// A retryable failure below the attempt bound must re-enqueue the job
// and eventually succeed, with the pickup count visible in snapshots.
func TestRetryableFailureRetriesThenSucceeds(t *testing.T) {
	m := telemetry.NewRegistry()
	q, err := NewQueue(1, 4, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())

	var calls atomic.Int64
	j, err := q.SubmitOpts(func(ctx context.Context, _ func(int, int)) (any, error) {
		if calls.Add(1) < 3 {
			return nil, transientErr()
		}
		meta, ok := MetaFrom(ctx)
		if !ok || meta.Attempt != 3 {
			return nil, errors.New("runner context meta missing or wrong")
		}
		return "ok", nil
	}, SubmitOptions{MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	await(t, j)
	if v, err := j.Result(); err != nil || v != "ok" {
		t.Fatalf("result = %v, %v", v, err)
	}
	info := j.Snapshot()
	if info.Attempt != 3 || info.MaxAttempts != 3 {
		t.Fatalf("attempt accounting = %d/%d, want 3/3", info.Attempt, info.MaxAttempts)
	}
	if got := m.Counter("queue.jobs_retried").Value(); got != 2 {
		t.Fatalf("jobs_retried = %d, want 2", got)
	}
}

// Permanent failure kinds must not consume retry budget.
func TestPermanentFailureDoesNotRetry(t *testing.T) {
	m := telemetry.NewRegistry()
	q, err := NewQueue(1, 4, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())

	var calls atomic.Int64
	j, err := q.SubmitOpts(func(context.Context, func(int, int)) (any, error) {
		calls.Add(1)
		return nil, resilience.Errorf(resilience.KindInvalidInput, "test.op", "bad input")
	}, SubmitOptions{MaxAttempts: 5})
	if err != nil {
		t.Fatal(err)
	}
	await(t, j)
	if calls.Load() != 1 {
		t.Fatalf("permanent failure ran %d times", calls.Load())
	}
	if info := j.Snapshot(); info.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", info.Status)
	}
	if got := m.Counter("queue.jobs_retried").Value(); got != 0 {
		t.Fatalf("jobs_retried = %d, want 0", got)
	}
}

// Exhausting the attempt budget terminalizes with the last error.
func TestRetryBudgetExhausted(t *testing.T) {
	q, err := NewQueue(1, 4, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())

	var calls atomic.Int64
	j, err := q.SubmitOpts(func(context.Context, func(int, int)) (any, error) {
		calls.Add(1)
		return nil, transientErr()
	}, SubmitOptions{MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	await(t, j)
	if calls.Load() != 3 {
		t.Fatalf("ran %d times, want 3", calls.Load())
	}
	_, jerr := j.Result()
	if resilience.Classify(jerr) != resilience.KindConvergence {
		t.Fatalf("final error %v lost its classification", jerr)
	}
}

// The backoff schedule must actually separate attempts in time.
func TestRetryHonorsBackoff(t *testing.T) {
	q, err := NewQueue(1, 4, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())

	var calls atomic.Int64
	start := time.Now()
	j, err := q.SubmitOpts(func(context.Context, func(int, int)) (any, error) {
		if calls.Add(1) < 3 {
			return nil, transientErr()
		}
		return nil, nil
	}, SubmitOptions{MaxAttempts: 3, Backoff: resilience.Backoff{Base: 25 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	await(t, j)
	// Two parks: 25ms + 50ms of scheduled backoff.
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("3 attempts in %v; backoff not applied", elapsed)
	}
}

// Draining while a job waits out its backoff abandons the job without a
// terminal transition and counts it in jobs.dropped_at_shutdown.
func TestDrainDropsRetryWaiters(t *testing.T) {
	m := telemetry.NewRegistry()
	q, err := NewQueue(1, 4, 0, m)
	if err != nil {
		t.Fatal(err)
	}

	running := make(chan struct{}, 8)
	j, err := q.SubmitOpts(func(context.Context, func(int, int)) (any, error) {
		running <- struct{}{}
		return nil, transientErr()
	}, SubmitOptions{MaxAttempts: 2, Backoff: resilience.Backoff{Base: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	<-running
	// Wait until the job is parked on its hour-long backoff timer.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if info := j.Snapshot(); info.Status == StatusQueued && info.Attempt == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never parked for retry")
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := m.Counter("jobs.dropped_at_shutdown").Value(); got != 1 {
		t.Fatalf("dropped_at_shutdown = %d, want 1", got)
	}
	if info := j.Snapshot(); info.Status.Terminal() {
		t.Fatalf("abandoned job terminalized as %s; must stay replayable", info.Status)
	}
}

// Canceling a job parked on a backoff timer terminalizes it immediately
// instead of waiting out the backoff.
func TestCancelParkedRetry(t *testing.T) {
	q, err := NewQueue(1, 4, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())

	j, err := q.SubmitOpts(func(context.Context, func(int, int)) (any, error) {
		return nil, transientErr()
	}, SubmitOptions{MaxAttempts: 2, Backoff: resilience.Backoff{Base: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		if info := j.Snapshot(); info.Status == StatusQueued && info.Attempt == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never parked for retry")
		}
		time.Sleep(time.Millisecond)
	}
	if !q.Cancel(j.ID) {
		t.Fatal("cancel refused")
	}
	await(t, j)
	if info := j.Snapshot(); info.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", info.Status)
	}
}

// The terminal observer fires exactly once per job, after the terminal
// status is visible, including for retried jobs.
func TestObserverFiresOncePerTerminalJob(t *testing.T) {
	q, err := NewQueue(2, 8, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())

	var mu sync.Mutex
	seen := map[string][]Status{}
	// Room for duplicate calls too, so a regression fails the assertions
	// below instead of blocking a queue worker.
	fired := make(chan struct{}, 8)
	q.SetObserver(func(j *Job) {
		mu.Lock()
		seen[j.ID] = append(seen[j.ID], j.Snapshot().Status)
		mu.Unlock()
		fired <- struct{}{}
	})

	var calls atomic.Int64
	ok, err := q.SubmitOpts(func(context.Context, func(int, int)) (any, error) {
		if calls.Add(1) < 2 {
			return nil, transientErr()
		}
		return nil, nil
	}, SubmitOptions{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := q.Submit(func(context.Context, func(int, int)) (any, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	await(t, ok)
	await(t, bad)
	// A job's done channel closes before the observer runs, so wait for
	// both observer calls before asserting.
	deadline := time.After(10 * time.Second)
	for range 2 {
		select {
		case <-fired:
		case <-deadline:
			t.Fatal("observer did not fire for both terminal jobs")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got := seen[ok.ID]; len(got) != 1 || got[0] != StatusSucceeded {
		t.Fatalf("observer for retried job saw %v", got)
	}
	if got := seen[bad.ID]; len(got) != 1 || got[0] != StatusFailed {
		t.Fatalf("observer for failed job saw %v", got)
	}
}

// Explicit IDs (journal replay) round-trip, and duplicates are refused.
func TestExplicitIDAndDuplicateRejection(t *testing.T) {
	q, err := NewQueue(1, 4, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())

	block := make(chan struct{})
	j, err := q.SubmitOpts(func(context.Context, func(int, int)) (any, error) {
		<-block
		return nil, nil
	}, SubmitOptions{ID: "replayed-job-1", Attempt: 2, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "replayed-job-1" {
		t.Fatalf("ID = %s", j.ID)
	}
	if _, err := q.SubmitOpts(func(context.Context, func(int, int)) (any, error) {
		return nil, nil
	}, SubmitOptions{ID: "replayed-job-1"}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	close(block)
	await(t, j)
	// Replay with spent budget still got its one attempt: seeded 2, ran once.
	if info := j.Snapshot(); info.Attempt != 3 {
		t.Fatalf("attempt = %d, want 3 (seeded 2 + 1 run)", info.Attempt)
	}
}
