package resilience

import (
	"context"
	"math"
	"time"
)

// Backoff is a deterministic exponential-backoff-with-jitter schedule
// for retrying transient failures (queue job attempts, cluster client
// requests). The zero value disables waiting entirely, so existing call
// sites keep their immediate-retry behavior.
type Backoff struct {
	// Base is the delay after the first failed attempt; 0 disables
	// backoff.
	Base time.Duration
	// Factor is the per-attempt growth (default 2).
	Factor float64
	// Max caps the delay (0 means uncapped).
	Max time.Duration
	// Jitter spreads the delay by ±Jitter fraction (in [0, 1)) to
	// decorrelate retry storms. The jitter is deterministic — derived
	// from (key, attempt) through the same seed-free hash the fault
	// injector uses — so tests and replays are reproducible.
	Jitter float64
}

// Delay returns the wait before the retry that follows the attempt-th
// failure (attempt is 1-based). key decorrelates the jitter of distinct
// jobs that fail in lockstep.
func (b Backoff) Delay(attempt int, key uint64) time.Duration {
	if b.Base <= 0 || attempt <= 0 {
		return 0
	}
	factor := b.Factor
	if factor <= 0 {
		factor = 2
	}
	d := float64(b.Base) * math.Pow(factor, float64(attempt-1))
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if j := b.Jitter; j > 0 && j < 1 {
		u := faultHash("backoff", key^(uint64(attempt)*0x9e3779b97f4a7c15))
		d *= 1 - j + 2*j*u
		if b.Max > 0 && d > float64(b.Max) {
			d = float64(b.Max)
		}
	}
	return time.Duration(d)
}

// Sleep waits d, or until ctx ends if that comes first, in which case
// it returns ctx.Err(). It serves every backoff and poll wait: its one
// timer is stopped on return, so a wait cut short leaves nothing
// behind.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retryable reports whether a failure of kind k can plausibly succeed
// on another attempt: iterative-solver non-convergence and numerical
// contamination are load- and conditioning-dependent, so they are;
// everything else (invalid input, a singular system, a recovered
// panic, cancellation) is permanent — retrying cannot change the
// outcome, so callers fail fast instead of burning attempts.
func Retryable(k Kind) bool {
	return k == KindConvergence || k == KindNumerical
}
