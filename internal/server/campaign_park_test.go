package server

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"roughsim/internal/jobs"
)

// busySubmit returns a preallocated queue-full error n times, then
// accepts. It deliberately allocates nothing per call so the regression
// test below measures submitWithRetry's own allocations, not the stub's.
func busySubmit(n int) func() (*jobs.Job, error) {
	busy := errors.Join(jobs.ErrQueueFull)
	job := &jobs.Job{}
	return func() (*jobs.Job, error) {
		if n > 0 {
			n--
			return nil, busy
		}
		return job, nil
	}
}

// Regression test for the retry-park timer: submitWithRetry used to
// allocate a fresh, unstoppable time.After timer per queue-full
// iteration, so a long backpressure episode accumulated thousands of
// live runtime timers. With one reused timer, parking N times must cost
// far fewer than N allocations.
func TestSubmitWithRetryReusesTimer(t *testing.T) {
	const parks = 2000
	submit := busySubmit(parks)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := submitWithRetry(context.Background(), 10*time.Microsecond, submit); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	// One reused timer: well under one allocation per park. The old
	// time.After path allocated a timer plus channel per iteration
	// (≥ 2·parks mallocs), so the bound separates the behaviors with a
	// wide margin in both directions.
	if delta := after.Mallocs - before.Mallocs; delta > parks {
		t.Fatalf("submitWithRetry allocated %d times across %d parks; timer is not being reused", delta, parks)
	}
}

// Cancellation must still win a park instantly with the reused timer.
func TestSubmitWithRetryCancelDuringPark(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		// A park the test would never outlive.
		_, err := submitWithRetry(ctx, time.Hour, busySubmit(1<<30))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("canceled park returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not interrupt the retry park")
	}
}
