package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"roughsim/internal/jobs"
)

// busySubmit returns a queue-full error n times, then accepts.
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

// Cancellation must win a park instantly.
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
