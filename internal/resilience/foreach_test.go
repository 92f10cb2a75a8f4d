package resilience

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

// TestUnitPanicRecovered: a unit panicking on one of ForEach's own
// goroutines fails the run with a classified error carrying the panic
// value and its stack, instead of killing the process.
func TestUnitPanicRecovered(t *testing.T) {
	err := ForEach(context.Background(), 6, 2, func(_ context.Context, i int) error {
		if i == 3 {
			panic("collocation node blew up")
		}
		return nil
	})
	if Classify(err) != KindPanic {
		t.Fatalf("expected panic classification, got %v: %v", Classify(err), err)
	}
	for _, want := range []string{"collocation node blew up", "goroutine"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("recovered panic lacks %q: %v", want, err)
		}
	}
}

// TestUnitErrorClassified: a failing unit's error reaches the caller
// with its classification intact.
func TestUnitErrorClassified(t *testing.T) {
	err := ForEach(context.Background(), 5, 2, func(_ context.Context, i int) error {
		if i == 2 {
			return Errorf(KindConvergence, "solver", "no convergence")
		}
		return nil
	})
	if Classify(err) != KindConvergence {
		t.Fatalf("expected convergence classification, got %v", err)
	}
}

// TestForEachCancelStopsFeeding: a cancelled context stops handing out
// units, and the run returns the context's error.
func TestForEachCancelStopsFeeding(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n, workers = 10000, 4
	var ran atomic.Int64
	err := ForEach(ctx, n, workers, func(_ context.Context, i int) error {
		if ran.Add(1) == 1 {
			cancel()
		}
		return nil
	})
	if Classify(err) != KindCanceled {
		t.Fatalf("expected cancellation, got %v", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d units ran after the cancel", got)
	}
}
