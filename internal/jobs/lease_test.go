package jobs

import (
	"errors"
	"testing"
	"time"

	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
)

func testLeaseTable(t *testing.T, opt LeaseOptions) *LeaseTable {
	t.Helper()
	lt := NewLeaseTable(opt)
	t.Cleanup(lt.Close)
	return lt
}

func counter(m *telemetry.Registry, name string) int64 {
	return m.Counter(name).Value()
}

func TestLeaseClaimCompleteRoundTrip(t *testing.T) {
	m := telemetry.NewRegistry()
	lt := testLeaseTable(t, LeaseOptions{TTL: time.Second, Metrics: m})
	lt.Offer("t1", "payload")
	lease, ok := lt.Claim("w1")
	if !ok {
		t.Fatal("claim found nothing")
	}
	if lease.TaskID != "t1" || lease.Payload != "payload" || lease.Token == "" {
		t.Fatalf("bad lease: %+v", lease)
	}
	if _, ok := lt.Claim("w2"); ok {
		t.Fatal("second claim should find nothing: the only task is leased")
	}
	if _, _, finished := lt.Result("t1"); finished {
		t.Fatal("leased task reads as finished")
	}
	if err := lt.Complete("t1", lease.Token, []float64{1, 2}, nil); err != nil {
		t.Fatalf("complete: %v", err)
	}
	res, err, finished := lt.Result("t1")
	if !finished || err != nil {
		t.Fatalf("result: done=%v err=%v", finished, err)
	}
	if col := res.([]float64); len(col) != 2 || col[0] != 1 {
		t.Fatalf("wrong result %v", col)
	}
	if lt.LiveWorkers() != 2 {
		t.Fatalf("LiveWorkers = %d, want 2 (both claimants touched)", lt.LiveWorkers())
	}
}

func TestLeaseOfferIdempotent(t *testing.T) {
	m := telemetry.NewRegistry()
	lt := testLeaseTable(t, LeaseOptions{TTL: time.Second, Metrics: m})
	lt.Offer("t1", 1)
	lt.Offer("t1", 2)
	if got := counter(m, "lease.offered"); got != 1 {
		t.Fatalf("lease.offered = %d after a duplicate offer, want 1", got)
	}
	lease, ok := lt.Claim("w")
	if !ok || lease.Payload != 1 {
		t.Fatalf("duplicate offer reset the payload: %+v", lease)
	}
	if _, ok := lt.Claim("w"); ok {
		t.Fatal("duplicate offer enqueued the task twice")
	}
}

// One lease expiry re-queues the task exactly once; the late completion
// from the lost worker is discarded idempotently by token mismatch.
func TestLeaseExpiryRequeuesOnceAndDiscardsStaleResult(t *testing.T) {
	m := telemetry.NewRegistry()
	lt := testLeaseTable(t, LeaseOptions{TTL: 30 * time.Millisecond, Metrics: m})
	lt.Offer("t1", nil)
	old, ok := lt.Claim("w-lost")
	if !ok {
		t.Fatal("claim failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	var fresh Lease
	for {
		if fresh, ok = lt.Claim("w-live"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired task never re-queued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := counter(m, "lease.requeued"); got != 1 {
		t.Fatalf("lease.requeued = %v, want exactly 1 per loss", got)
	}
	// The lost worker finally reports: stale token, discarded, and the
	// authoritative in-flight lease is untouched.
	if err := lt.Complete("t1", old.Token, []float64{9}, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale complete returned %v, want ErrStaleLease", err)
	}
	if got := counter(m, "lease.stale_results"); got != 1 {
		t.Fatalf("lease.stale_results = %v, want 1", got)
	}
	if _, _, done := lt.Result("t1"); done {
		t.Fatal("stale completion finished the task")
	}
	if err := lt.Complete("t1", fresh.Token, []float64{7}, nil); err != nil {
		t.Fatalf("authoritative complete: %v", err)
	}
	res, err, done := lt.Result("t1")
	if !done || err != nil || res.([]float64)[0] != 7 {
		t.Fatalf("authoritative result lost: %v %v %v", res, err, done)
	}
}

func TestLeaseExhaustionAfterMaxLosses(t *testing.T) {
	m := telemetry.NewRegistry()
	lt := testLeaseTable(t, LeaseOptions{TTL: 20 * time.Millisecond, MaxLosses: 2, Metrics: m})
	lt.Offer("t1", nil)
	losses := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := lt.Claim("w"); ok {
			losses++
		}
		if _, err, finished := lt.Result("t1"); finished {
			if err == nil {
				t.Fatal("exhausted task should fail")
			}
			if losses != 3 {
				// MaxLosses=2 budgets two re-queues: three claims total.
				t.Fatalf("task was claimed %d times, want 3", losses)
			}
			if got := counter(m, "lease.exhausted"); got != 1 {
				t.Fatalf("lease.exhausted = %v, want 1", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("task never exhausted (claims so far: %d)", losses)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A deterministic rejection fails the task immediately: re-running
// invalid input cannot change the outcome, so it must not burn budget.
func TestLeasePermanentErrorFailsImmediately(t *testing.T) {
	m := telemetry.NewRegistry()
	lt := testLeaseTable(t, LeaseOptions{TTL: time.Second, Metrics: m})
	lt.Offer("t1", nil)
	lease, _ := lt.Claim("w")
	bad := resilience.Errorf(resilience.KindInvalidInput, "test", "bad input")
	if err := lt.Complete("t1", lease.Token, nil, bad); err != nil {
		t.Fatalf("complete: %v", err)
	}
	_, err, done := lt.Result("t1")
	if !done || resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("want immediate invalid-input failure, got done=%v err=%v", done, err)
	}
	if got := counter(m, "lease.requeued"); got != 0 {
		t.Fatalf("deterministic rejection was re-queued %v times", got)
	}
	if got := counter(m, "lease.rejected"); got != 1 {
		t.Fatalf("lease.rejected = %v, want 1", got)
	}
}

// A retryable completion error counts as one loss and re-queues.
func TestLeaseRetryableErrorRequeues(t *testing.T) {
	m := telemetry.NewRegistry()
	lt := testLeaseTable(t, LeaseOptions{TTL: time.Second, Metrics: m})
	lt.Offer("t1", nil)
	lease, _ := lt.Claim("w")
	flaky := resilience.Errorf(resilience.KindNumerical, "test", "transient")
	if err := lt.Complete("t1", lease.Token, nil, flaky); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if _, _, done := lt.Result("t1"); done {
		t.Fatal("retryable error finished the task")
	}
	if _, ok := lt.Claim("w2"); !ok {
		t.Fatal("retryable error did not re-queue the task")
	}
	if got := counter(m, "lease.requeued"); got != 1 {
		t.Fatalf("lease.requeued = %v, want 1", got)
	}
}

// Leave re-queues a departing worker's leases without charging losses.
func TestLeaseLeaveRebalances(t *testing.T) {
	m := telemetry.NewRegistry()
	lt := testLeaseTable(t, LeaseOptions{TTL: time.Minute, Metrics: m})
	lt.Offer("t1", nil)
	old, _ := lt.Claim("w-drain")
	lt.Leave("w-drain")
	lease, ok := lt.Claim("w-live")
	if !ok {
		t.Fatal("leave did not re-queue the lease")
	}
	if got := counter(m, "lease.rebalanced"); got != 1 {
		t.Fatalf("lease.rebalanced = %v, want 1", got)
	}
	if got := counter(m, "lease.requeued"); got != 0 {
		t.Fatalf("graceful leave charged a loss: requeued=%v", got)
	}
	if err := lt.Complete("t1", old.Token, nil, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("pre-leave token still valid: %v", err)
	}
	if err := lt.Complete("t1", lease.Token, []float64{1}, nil); err != nil {
		t.Fatalf("post-rebalance complete: %v", err)
	}
}

func TestLeaseCancelAndForget(t *testing.T) {
	lt := testLeaseTable(t, LeaseOptions{TTL: time.Second})
	lt.Offer("t1", nil)
	lease, _ := lt.Claim("w")
	lt.Cancel("t1")
	// Canceled and forgotten tasks read as done (stale) so no waiter can
	// deadlock, and an in-flight completion is a no-op.
	if _, err, finished := lt.Result("t1"); !finished || !errors.Is(err, ErrStaleLease) {
		t.Fatalf("canceled task: done=%v err=%v", finished, err)
	}
	if err := lt.Complete("t1", lease.Token, []float64{1}, nil); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("completion after cancel: %v", err)
	}

	lt.Offer("t2", nil)
	l2, _ := lt.Claim("w")
	lt.Forget("t2") // unfinished: must be left alone
	if err := lt.Complete("t2", l2.Token, []float64{1}, nil); err != nil {
		t.Fatalf("forget removed an unfinished task: %v", err)
	}
	lt.Forget("t2")
	if _, err, finished := lt.Result("t2"); !finished || !errors.Is(err, ErrStaleLease) {
		t.Fatalf("forgotten task: done=%v err=%v", finished, err)
	}
}

func TestLeaseChangedSignalsOnCompletion(t *testing.T) {
	lt := testLeaseTable(t, LeaseOptions{TTL: time.Second})
	lt.Offer("t1", nil)
	lease, _ := lt.Claim("w")
	ch := lt.Changed()
	go lt.Complete("t1", lease.Token, []float64{1}, nil)
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("Changed never signaled the completion")
	}
}
