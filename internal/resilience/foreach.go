package resilience

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for i ∈ [0, n) across min(n, workers) goroutines.
// The first error wins; later units are skipped (not cancelled — units
// already running finish). A cancelled ctx stops feeding promptly and
// returns ctx.Err(). A panicking unit fails the run with a KindPanic
// error carrying its stack, not the process.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, n)
	var failed atomic.Bool
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() {
					continue
				}
				if err := Call(ctx, i, fn); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Call runs fn(ctx, i), recovering a panic into a KindPanic error with
// the panic value and its stack: ForEach's goroutines are its own, so no
// caller's recover sees them, and a caller that goes on past a failed
// unit (the sweep engine's failure budget) calls it directly.
func Call(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = Errorf(KindPanic, "resilience.Call",
				"unit %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	return fn(ctx, i)
}
