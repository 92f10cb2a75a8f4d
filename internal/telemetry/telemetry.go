// Package telemetry is the observability layer of the service tier: a
// small metrics registry (counters, gauges, histograms — optionally
// labeled) shared by the solver core, the stochastic drivers, the
// result cache and the job queue, with an expvar-style JSON snapshot
// and a Prometheus text exposition served at /metrics.
//
// The design constraints, in order:
//
//  1. Hot-path cost. Counters and histogram observations sit inside the
//     per-sample solver loop, so every mutation is a single atomic op —
//     no locks, no allocation after metric creation.
//  2. Optionality. Every producer takes a *Registry that may be nil
//     (library use without a service around it); all methods are
//     nil-receiver safe no-ops, so call sites never branch.
//  3. One place. The registry is handed down from roughsimd through the
//     facade into core and the sweep engine, so cache hit rate, queue depth,
//     solve latency and fallback-stage counts are observable together.
//
// Metric names are flat dotted strings ("cache.hits", "solve.seconds");
// labeled series append a canonical {k="v"} suffix. The full catalogue
// is documented in DESIGN.md §8 and §10.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float-valued metric that can move both ways (queue depth,
// in-flight jobs). The value is stored as IEEE-754 bits in an atomic
// word; Add uses a CAS loop.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on a nil receiver).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add offsets the gauge by dv (no-op on a nil receiver).
func (g *Gauge) Add(dv float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + dv)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed cumulative buckets
// (Prometheus-style "le" semantics) plus a running count and sum.
// Non-finite observations are rejected into a dropped-sample counter:
// a single NaN folded into the CAS sum loop would poison Sum() forever
// and break the JSON exposition (encoding/json rejects NaN).
type Histogram struct {
	bounds  []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float bits, CAS-updated
	dropped atomic.Int64  // non-finite observations rejected
}

// DefBuckets are the default latency buckets in seconds: 1 ms … ~524 s
// in powers of two, wide enough for both a single Clenshaw-table solve
// and a full high-resolution sweep.
var DefBuckets = ExpBuckets(1e-3, 2, 20)

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor — the shape latency distributions want.
// Invalid arguments yield nil, which every histogram constructor treats
// as "use DefBuckets".
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Observe records one sample (no-op on a nil receiver). NaN and ±Inf
// samples are counted in Dropped instead of being folded in.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.dropped.Add(1)
		return
	}
	// First bucket whose bound is ≥ v; sort.SearchFloat64s is fine here
	// (≤ ~20 bounds, branch-predictable), and the slice is immutable.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of (finite) observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Dropped returns how many non-finite observations were rejected.
func (h *Histogram) Dropped() int64 {
	if h == nil {
		return 0
	}
	return h.dropped.Load()
}

// Label is one key/value dimension of a labeled metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesKey canonically encodes a metric name plus labels: the plain
// name when unlabeled (so existing JSON snapshot keys are unchanged),
// otherwise name{k="v",…} with keys sorted. The encoded form is both
// the registry map key and the JSON snapshot key.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// series carries the decoded identity of one registered metric, kept
// alongside the metric so the Prometheus writer never re-parses keys.
type series struct {
	name   string
	labels []Label // canonically sorted
}

type counterEntry struct {
	series
	c *Counter
}
type gaugeEntry struct {
	series
	g *Gauge
}
type histogramEntry struct {
	series
	h *Histogram
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is a valid no-op
// sink: Counter/Gauge/Histogram return nil metrics whose methods do
// nothing.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*counterEntry
	gauges     map[string]*gaugeEntry
	histograms map[string]*histogramEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*counterEntry{},
		gauges:     map[string]*gaugeEntry{},
		histograms: map[string]*histogramEntry{},
	}
}

// sortedLabels returns a canonically sorted copy.
func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter { return r.CounterL(name) }

// CounterL returns (creating on first use) the labeled counter series.
func (r *Registry) CounterL(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	e, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return e.c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.counters[key]; ok {
		return e.c
	}
	e = &counterEntry{series: series{name: name, labels: sortedLabels(labels)}, c: &Counter{}}
	r.counters[key] = e
	return e.c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeL(name) }

// GaugeL returns (creating on first use) the labeled gauge series.
func (r *Registry) GaugeL(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	e, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return e.g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.gauges[key]; ok {
		return e.g
	}
	e = &gaugeEntry{series: series{name: name, labels: sortedLabels(labels)}, g: &Gauge{}}
	r.gauges[key] = e
	return e.g
}

// Histogram returns (creating on first use) the named histogram with
// DefBuckets bounds.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramL(name, nil) }

// HistogramBuckets returns (creating on first use) the named histogram
// with custom bucket bounds (sorted ascending; nil selects DefBuckets).
// Bounds are fixed at creation: later calls with different bounds
// return the existing histogram.
func (r *Registry) HistogramBuckets(name string, bounds []float64) *Histogram {
	return r.HistogramL(name, bounds)
}

// HistogramL returns (creating on first use) the labeled histogram
// series with the given bucket bounds (nil selects DefBuckets).
func (r *Registry) HistogramL(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	e, ok := r.histograms[key]
	r.mu.RUnlock()
	if ok {
		return e.h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.histograms[key]; ok {
		return e.h
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	} else {
		bounds = append([]float64(nil), bounds...)
		sort.Float64s(bounds)
	}
	e = &histogramEntry{
		series: series{name: name, labels: sortedLabels(labels)},
		h:      &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))},
	}
	r.histograms[key] = e
	return e.h
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Dropped int64   `json:"dropped,omitempty"`
	Buckets []struct {
		LE    float64 `json:"le"`
		Count int64   `json:"count"`
	} `json:"buckets"`
}

// Snapshot is a point-in-time copy of every metric, shaped for JSON.
// Labeled series appear under their canonical name{k="v"} key.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every metric. Nil registries
// snapshot as empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for key, e := range r.counters {
		s.Counters[key] = e.c.Value()
	}
	for key, e := range r.gauges {
		s.Gauges[key] = e.g.Value()
	}
	for key, e := range r.histograms {
		h := e.h
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Dropped: h.Dropped()}
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			hs.Buckets = append(hs.Buckets, struct {
				LE    float64 `json:"le"`
				Count int64   `json:"count"`
			}{b, cum})
		}
		s.Histograms[key] = hs
	}
	return s
}

// Handler serves the registry as the /metrics endpoint of roughsimd:
// an indented JSON snapshot by default, or Prometheus text exposition
// when the request asks for it (?format=prometheus, or an Accept
// header naming text/plain or openmetrics — what Prometheus scrapers
// send).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if wantsPrometheus(req) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := r.WritePrometheus(w); err != nil {
				http.Error(w, fmt.Sprintf("telemetry: %v", err), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Snapshot()); err != nil {
			http.Error(w, fmt.Sprintf("telemetry: %v", err), http.StatusInternalServerError)
		}
	})
}

// wantsPrometheus decides the exposition format of one request. An
// explicit ?format= wins; otherwise the Accept header decides (JSON
// stays the default for bare curl / existing clients).
func wantsPrometheus(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}
