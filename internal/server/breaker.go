package server

import (
	"sync"
	"time"

	"roughsim/internal/telemetry"
)

// The circuit breaker guards the exact-solve tier. Sweep jobs are
// minutes of dense linear algebra; when they start failing persistently
// (bad material table on disk, a poisoned shared cache, resource
// exhaustion) every new admission burns a worker for nothing and starves
// the queue for recoverable work. The breaker watches terminal job
// outcomes and, past a failure ratio, stops admitting new exact-solve
// work for a cooldown — the surrogate/cache fast path (GET /k on
// admitted models, cached exact points) keeps serving throughout, so an
// open breaker degrades the service to read-mostly instead of letting it
// thrash.

const (
	// breakerWindow is the sliding window of terminal outcomes the
	// failure ratio is computed over.
	breakerWindow = 32
	// breakerMinSamples gates tripping until the window holds at least
	// this many outcomes, so one early failure cannot open a fresh
	// breaker.
	breakerMinSamples = 8
	// breakerFailureRatio opens the breaker when failures/window
	// reaches it.
	breakerFailureRatio = 0.5
)

// Breaker states, published through the breaker.state gauge so a
// scraper can alert on != 0.
const (
	breakerClosed   = 0.0
	breakerHalfOpen = 1.0
	breakerOpen     = 2.0
)

type breaker struct {
	// cooldown is how long the breaker stays open before letting a
	// probe through (half-open).
	cooldown time.Duration

	mu       sync.Mutex
	outcomes []bool // ring of terminal outcomes, true = success
	next     int
	filled   int
	state    float64
	openedAt time.Time

	stateG *telemetry.Gauge
	trips  *telemetry.Counter
	sheds  *telemetry.Counter
}

func newBreaker(m *telemetry.Registry) *breaker {
	b := &breaker{
		cooldown: 15 * time.Second,
		outcomes: make([]bool, breakerWindow),
		stateG:   m.Gauge("breaker.state"),
		trips:    m.Counter("breaker.trips"),
		sheds:    m.Counter("breaker.sheds"),
	}
	b.stateG.Set(breakerClosed)
	return b
}

// Allow reports whether new exact-solve work may be admitted. When it
// refuses, retry is how long the caller should advertise via
// Retry-After. An open breaker past its cooldown moves to half-open and
// admits the caller as the probe whose outcome decides the next state.
func (b *breaker) Allow() (retry time.Duration, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		wait := b.cooldown - time.Since(b.openedAt)
		if wait > 0 {
			b.sheds.Inc()
			return wait, false
		}
		b.setStateLocked(breakerHalfOpen)
		return 0, true
	default: // closed or half-open: admit (half-open probes in flight)
		return 0, true
	}
}

// Record feeds one terminal job outcome into the window (cancellations
// are not outcomes; the caller filters them).
func (b *breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		if success {
			// The probe came back healthy: close and forget the bad window.
			b.resetLocked()
			b.setStateLocked(breakerClosed)
		} else {
			b.openLocked()
		}
		return
	}
	b.outcomes[b.next] = success
	b.next = (b.next + 1) % len(b.outcomes)
	if b.filled < len(b.outcomes) {
		b.filled++
	}
	if b.state == breakerClosed && b.filled >= breakerMinSamples {
		failures := 0
		for i := 0; i < b.filled; i++ {
			if !b.outcomes[i] {
				failures++
			}
		}
		if float64(failures) >= breakerFailureRatio*float64(b.filled) {
			b.openLocked()
		}
	}
}

func (b *breaker) openLocked() {
	b.openedAt = time.Now()
	b.trips.Inc()
	b.resetLocked()
	b.setStateLocked(breakerOpen)
}

func (b *breaker) resetLocked() {
	for i := range b.outcomes {
		b.outcomes[i] = false
	}
	b.next, b.filled = 0, 0
}

func (b *breaker) setStateLocked(state float64) {
	b.state = state
	b.stateG.Set(state)
}

// State returns the published state value (breakerClosed/HalfOpen/Open).
func (b *breaker) State() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
