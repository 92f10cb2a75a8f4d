package surrogate

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"roughsim/internal/memo"
	"roughsim/internal/rescache"
	"roughsim/internal/telemetry"
)

// Status of a registry record.
type Status string

const (
	// StatusBuilding: a fit/validate pass is in flight for the key.
	StatusBuilding Status = "building"
	// StatusAdmitted: the model beat its tolerance and is servable.
	StatusAdmitted Status = "admitted"
	// StatusRejected: validation failed the tolerance; Reason says why.
	// Rejected keys stay rejected (deterministic inputs rebuild the
	// same model) until evicted.
	StatusRejected Status = "rejected"
)

// Record is one registry entry: the admission outcome for a key, plus
// the model when admitted.
type Record struct {
	Key       string  `json:"key"`
	Status    Status  `json:"status"`
	Model     *Model  `json:"-"` // servable model (admitted only)
	Reason    string  `json:"reason,omitempty"`
	MaxRelErr float64 `json:"max_rel_err"`
	Tol       float64 `json:"tol"`
	// Spec echoes the build parameters (Meta carries the originating
	// config), so the serve tier can reconstruct the exact path for
	// fallback on non-admitted keys.
	Spec FitSpec `json:"spec"`
}

// Registry is the content-addressed surrogate store: a bounded memory
// LRU of admission records over an optional persistent disk tier of
// admitted models, with single-flight builds (see internal/memo). Safe
// for concurrent use.
type Registry struct {
	dir  string
	recs *memo.LRU[rescache.Key, *Record]

	hits, misses             *telemetry.Counter
	admitted, rejected       *telemetry.Counter
	evictions, diskErrors    *telemetry.Counter
	buildSeconds, evalObserv *telemetry.Histogram
}

const defaultCapacity = 64

// NewRegistry builds a registry holding up to capacity records in
// memory (default 64 when capacity ≤ 0); dir, when non-empty, enables
// the persistent tier for admitted models.
func NewRegistry(capacity int, dir string, m *telemetry.Registry) *Registry {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	r := &Registry{
		dir:          dir,
		hits:         m.CounterL("surrogate.requests", telemetry.L("outcome", "hit")),
		misses:       m.CounterL("surrogate.requests", telemetry.L("outcome", "miss")),
		admitted:     m.CounterL("surrogate.admission", telemetry.L("outcome", "admitted")),
		rejected:     m.CounterL("surrogate.admission", telemetry.L("outcome", "rejected")),
		evictions:    m.Counter("surrogate.evictions"),
		diskErrors:   m.Counter("surrogate.disk_errors"),
		buildSeconds: m.Histogram("surrogate.build_seconds"),
		evalObserv:   m.Histogram("surrogate.eval_seconds"),
	}
	entries := m.Gauge("surrogate.entries")
	r.recs = memo.NewLRU[rescache.Key, *Record](capacity, memo.Hooks{
		Shared: m.Counter("surrogate.builds_shared").Inc,
		Resized: func(evicted, size int) {
			r.evictions.Add(int64(evicted))
			entries.Set(float64(size))
		},
	})
	return r
}

// ObserveEval feeds the serve-path latency histogram (the sub-ms p99
// the fast path is sized for).
func (r *Registry) ObserveEval(seconds float64) { r.evalObserv.Observe(seconds) }

// Len returns the number of memory-resident records.
func (r *Registry) Len() int { return r.recs.Len() }

// Get resolves key for the serve path, counting a hit only when an
// admitted model is present (memory first, then the persistent tier);
// anything else — absent, building, rejected, torn disk entry — counts
// as a miss the caller must fall back from.
func (r *Registry) Get(key rescache.Key) (*Record, bool) { return r.lookup(key, true) }

// Peek is Get without touching the hit/miss accounting — the status
// and listing endpoints use it so polling does not skew serve metrics.
func (r *Registry) Peek(key rescache.Key) (*Record, bool) {
	return r.lookup(key, false)
}

// lookup resolves key from memory, where a running build reads as its
// StatusBuilding record, then from the persistent tier.
func (r *Registry) lookup(key rescache.Key, count bool) (*Record, bool) {
	rec, ok := r.recs.Get(key)
	if !ok {
		if rec = r.loadDisk(key); rec != nil {
			r.recs.Add(key, rec)
			ok = true
		}
	}
	if count {
		if ok && rec.Status == StatusAdmitted {
			r.hits.Inc()
		} else {
			r.misses.Inc()
		}
	}
	return rec, ok
}

// GetOrBuild returns the admission record for spec.Key, running the
// fit → validate → admit pipeline at most once across concurrent
// callers. An existing record (admitted or rejected) is returned as
// is: builds are deterministic, so a rejected key is not retried until
// evicted. The build runs under the first caller's ctx.
func (r *Registry) GetOrBuild(ctx context.Context, src Source, spec FitSpec) (*Record, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	building := &Record{Key: spec.Key.String(), Status: StatusBuilding, Tol: spec.Tol, Spec: spec}
	rec, _, err := r.recs.DoPending(ctx, spec.Key, building, func() (*Record, error) {
		return r.build(ctx, src, spec)
	})
	return rec, err
}

// build runs the admission pipeline once: a disk probe (an admitted
// model may predate this process), then Admit's fit, validation and
// tolerance verdict.
func (r *Registry) build(ctx context.Context, src Source, spec FitSpec) (*Record, error) {
	if rec := r.loadDisk(spec.Key); rec != nil {
		return rec, nil
	}
	start := time.Now()
	model, reason, err := Admit(ctx, src, spec)
	if err != nil {
		return nil, err
	}
	r.buildSeconds.Observe(time.Since(start).Seconds())
	rec := &Record{Key: spec.Key.String(), MaxRelErr: model.MaxRelErr, Tol: spec.Tol, Spec: spec}
	if reason != "" {
		rec.Status = StatusRejected
		rec.Reason = reason
		r.rejected.Inc()
		return rec, nil
	}
	rec.Status = StatusAdmitted
	rec.Model = model
	r.admitted.Inc()
	if r.dir != "" {
		b, err := Encode(model)
		if err == nil {
			err = rescache.WriteFileAtomic(r.dir, r.filename(spec.Key), b)
		}
		if err != nil {
			r.diskErrors.Inc()
		}
	}
	return rec, nil
}

// List snapshots every memory-resident record, most recently used
// first, then the StatusBuilding records of in-flight builds.
func (r *Registry) List() []*Record { return r.recs.Values() }

// Evict removes the record from the memory tier and deletes the
// persisted model, reporting whether anything was removed. An
// in-flight build is not interrupted (its record lands afterwards and
// can be evicted again).
func (r *Registry) Evict(key rescache.Key) bool {
	removed := r.recs.Remove(key)
	if r.dir != "" {
		if err := os.Remove(filepath.Join(r.dir, r.filename(key))); err == nil {
			removed = true
		}
	}
	if removed {
		r.evictions.Inc()
	}
	return removed
}

func (r *Registry) filename(key rescache.Key) string {
	// A distinct suffix keeps surrogate models recognizable next to
	// rescache point entries if an operator points both at one
	// directory.
	return key.String() + ".surrogate.json"
}

// loadDisk resolves an admitted model from the persistent tier. Any
// decode or shape failure (torn write predating the fsync discipline,
// schema bump, key mismatch) is a miss, never an error.
func (r *Registry) loadDisk(key rescache.Key) *Record {
	if r.dir == "" {
		return nil
	}
	b, err := os.ReadFile(filepath.Join(r.dir, r.filename(key)))
	if err != nil {
		return nil
	}
	model, err := Decode(b)
	if err != nil || model.Key != key.String() {
		r.diskErrors.Inc()
		return nil
	}
	return &Record{
		Key:       model.Key,
		Status:    StatusAdmitted,
		Model:     model,
		MaxRelErr: model.MaxRelErr,
		Spec: FitSpec{
			Key:     key,
			FMinHz:  model.FMinHz,
			FMaxHz:  model.FMaxHz,
			Order:   model.Order,
			Anchors: len(model.XNodes),
			Meta:    model.Meta,
		},
	}
}
