package mom

import (
	"context"
	"sync/atomic"

	"roughsim/internal/memo"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// TableKey identifies one TableSet: every input NewTableSet folds into
// the tables. Options.Workers is deliberately excluded — it is an
// execution detail that never changes table content — so solvers with
// different parallelism budgets share entries.
type TableKey struct {
	P     Params
	L     float64
	M     int
	ZSpan float64
	Near  int
	Sub   int
}

// TableCache is a bounded, concurrency-safe LRU of Green's-function
// table sets, shared across sweep frequencies, solvers and (in
// roughsimd) jobs. Concurrent requests for the same key are
// single-flighted (see internal/memo): one caller builds, outside the
// cache lock so builds for distinct frequencies proceed in parallel, and
// the rest wait out the build and share the result.
//
// Telemetry (tables.hits / tables.misses / tables.shared /
// tables.built / tables.evictions counters, tables.entries gauge) goes
// to the registry set via SetMetrics; a nil registry disables
// instrumentation. Build time is the tables.build span.
type TableCache struct {
	metrics atomic.Pointer[telemetry.Registry]
	builds  atomic.Int64
	sets    *memo.LRU[TableKey, *TableSet]
}

// DefaultTableCacheCap bounds a cache built with capacity ≤ 0. An M=20
// table set with the default near-field options holds about 0.85 MB
// (the slots of a symmetry orbit share coefficient vectors; 2 MB at
// M=40), so the default keeps the worst case well under typical service
// memory.
const DefaultTableCacheCap = 32

// NewTableCache builds a cache holding up to capacity table sets
// (DefaultTableCacheCap when capacity ≤ 0).
func NewTableCache(capacity int, m *telemetry.Registry) *TableCache {
	if capacity <= 0 {
		capacity = DefaultTableCacheCap
	}
	c := &TableCache{}
	c.sets = memo.NewLRU[TableKey, *TableSet](capacity, memo.Hooks{
		Hit:      func() { c.reg().Counter("tables.hits").Inc() },
		Shared:   func() { c.reg().Counter("tables.shared").Inc() },
		Computed: func() { c.reg().Counter("tables.misses").Inc() },
		Resized: func(evicted, size int) {
			if evicted > 0 {
				c.reg().Counter("tables.evictions").Add(int64(evicted))
			}
			c.reg().Gauge("tables.entries").Set(float64(size))
		},
	})
	c.SetMetrics(m)
	return c
}

// SetMetrics points the cache's instrumentation at r (nil disables it).
// Safe to call concurrently with Get.
func (c *TableCache) SetMetrics(r *telemetry.Registry) {
	if r != nil {
		c.metrics.Store(r)
	}
}

func (c *TableCache) reg() *telemetry.Registry { return c.metrics.Load() }

// Len returns the number of cached table sets.
func (c *TableCache) Len() int { return c.sets.Len() }

// Builds returns how many table sets this cache has constructed — the
// quantity the dedup tests assert on (one build per distinct key, no
// matter how many concurrent callers).
func (c *TableCache) Builds() int64 { return c.builds.Load() }

// Get returns the table set for the given assembly inputs, building it
// at most once across all concurrent callers. Waiters block until the
// builder finishes (NewTableSet is not cancellable; the wait is bounded
// by one build).
func (c *TableCache) Get(p Params, L float64, M int, zspan float64, opt Options) *TableSet {
	return c.GetCtx(context.Background(), p, L, M, zspan, opt)
}

// GetCtx is Get with trace propagation: a build forced by a cache miss
// runs under a "tables.build" span of the context's trace (hits and
// shared waits add no span — they are lock-bounded).
func (c *TableCache) GetCtx(ctx context.Context, p Params, L float64, M int, zspan float64, opt Options) *TableSet {
	opt = opt.withDefaults()
	key := TableKey{P: p, L: L, M: M, ZSpan: zspan, Near: opt.NearRadius, Sub: opt.NearSubdiv}
	// The wait is not bounded by ctx: waiters wait out the build.
	ts, _, err := c.sets.Do(context.Background(), key, func() (*TableSet, error) {
		_, sp := trace.StartSpan(ctx, "tables.build")
		sp.SetAttr("grid", M)
		ts := NewTableSet(p, L, M, zspan, opt)
		sp.End()
		c.builds.Add(1)
		c.reg().Counter("tables.built").Inc()
		return ts, nil
	})
	if err != nil {
		// Only a build that panicked fails; its waiters re-raise the panic.
		panic(err)
	}
	return ts
}
