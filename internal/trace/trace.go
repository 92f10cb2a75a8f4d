// Package trace is the per-request observability layer of roughsimd: a
// lightweight, dependency-free span tracer that answers "where did this
// sweep spend its time" — queue wait vs. surface synthesis vs.
// Green's-function table builds vs. MoM assembly vs. the resilient
// solve chain vs. the PC surrogate fit.
//
// It deliberately mirrors the design constraints of internal/telemetry:
//
//  1. Optionality. Spans propagate through context.Context; a context
//     without a trace yields nil spans whose methods are no-ops, so the
//     solver core pays nothing when tracing is off (library use).
//  2. Boundedness. The span tree of one trace is capped (overflow spans
//     are detached: they still feed the per-stage aggregate but are not
//     retained individually) and the Recorder keeps only a ring of the
//     most recent traces.
//  3. Monotonic timing. All durations come from time.Time values carrying
//     Go's monotonic clock reading, so spans are immune to wall-clock
//     steps.
//
// One trace is created per sweep job (ID = job ID) by the jobs queue;
// the server serves the full span tree at /debug/trace/{id} and folds
// the compact per-stage rollup into job status payloads. A Recorder's
// sink feeds every ended span's duration to metrics: one clock.
package trace

import (
	"context"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the retained span tree of one trace. Spans started
// past the cap are detached — timed and folded into the per-stage
// aggregate, but not linked into the tree — so a pathological sweep
// (every (frequency × node) unit solving) cannot balloon one trace.
const maxSpans = 2048

// Attr is one key/value annotation on a span (solve winner, anchor
// count, cache hit…). Values should be JSON-marshalable.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed stage of a trace. A nil *Span is a valid no-op:
// every method returns immediately, so instrumented code never branches
// on whether tracing is enabled.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
	detached bool
}

// stageAgg accumulates per-name totals across every span of a trace —
// including detached overflow spans — so the compact job-status rollup
// is complete even when the tree is truncated.
type stageAgg struct {
	count int64
	dur   time.Duration
}

// Trace is the span tree of one unit of work (one sweep job). All
// methods are safe for concurrent use; a nil *Trace is a valid no-op.
type Trace struct {
	id    string
	begin time.Time
	sink  func(name string, d time.Duration)

	mu      sync.Mutex
	root    *Span
	nspans  int
	dropped int64
	stages  map[string]stageAgg
}

// New starts a trace whose root span is named "job". The root ends at
// Finish.
func New(id string) *Trace {
	tr := &Trace{id: id, begin: time.Now(), stages: map[string]stageAgg{}}
	tr.root = &Span{tr: tr, name: "job", start: tr.begin}
	tr.nspans = 1
	return tr
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span (idempotent).
func (t *Trace) Finish() { t.Root().End() }

// StartChild starts a sub-span of s. On a nil receiver it returns nil,
// so instrumentation composes without branching. Children may be
// started concurrently from multiple goroutines.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	tr := s.tr
	c := &Span{tr: tr, name: name, start: time.Now()}
	tr.mu.Lock()
	if tr.nspans >= maxSpans {
		tr.dropped++
		c.detached = true
	} else {
		tr.nspans++
		s.children = append(s.children, c)
	}
	tr.mu.Unlock()
	return c
}

// End stops the span's clock, folds it into the trace's per-stage
// aggregate and hands its duration to the trace's sink, outside the
// trace lock (idempotent: only the first End counts; nil-safe).
func (s *Span) End() {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	if !s.end.IsZero() {
		tr.mu.Unlock()
		return
	}
	s.end = time.Now()
	d := s.end.Sub(s.start)
	agg := tr.stages[s.name]
	agg.count++
	agg.dur += d
	tr.stages[s.name] = agg
	tr.mu.Unlock()
	if tr.sink != nil {
		tr.sink(s.name, d)
	}
}

// SetAttr annotates the span (nil-safe). A repeated key keeps the last
// value.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

type ctxKey struct{}

// ContextWithSpan returns ctx carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the current span, or nil when ctx carries no
// trace.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan starts a child of the context's current span and returns a
// derived context carrying it. On an untraced context it returns (ctx,
// nil) without allocating, so library call paths pay (almost) nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	cur := SpanFromContext(ctx)
	if cur == nil {
		return ctx, nil
	}
	s := cur.StartChild(name)
	if s == nil || s.detached {
		// Overflow spans still time their stage but are not the current
		// span of anything: their children would be dropped anyway.
		return ctx, s
	}
	return ContextWithSpan(ctx, s), s
}

// SpanSummary is the JSON shape of one span. Offsets and durations are
// seconds relative to the trace begin; a span still running reports its
// duration so far with InProgress set.
type SpanSummary struct {
	Name            string         `json:"name"`
	StartSeconds    float64        `json:"start_s"`
	DurationSeconds float64        `json:"duration_s"`
	InProgress      bool           `json:"in_progress,omitempty"`
	Attrs           map[string]any `json:"attrs,omitempty"`
	Children        []*SpanSummary `json:"children,omitempty"`
}

// StageTotal is the per-stage rollup entry: how many spans of this name
// ran and their total time, across the whole trace (including spans
// dropped from the tree).
type StageTotal struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Summary is the full point-in-time export of a trace.
type Summary struct {
	ID              string       `json:"id"`
	Begin           time.Time    `json:"begin"`
	DurationSeconds float64      `json:"duration_s"`
	SpansDropped    int64        `json:"spans_dropped,omitempty"`
	Stages          []StageTotal `json:"stages"`
	Spans           *SpanSummary `json:"spans"`
}

// StageSummary is the compact rollup embedded in job status payloads.
type StageSummary struct {
	ID              string       `json:"id"`
	DurationSeconds float64      `json:"duration_s"`
	Stages          []StageTotal `json:"stages"`
}

// Summary exports the trace (nil-safe: nil on a nil trace). Safe to
// call while the trace is still running.
func (t *Trace) Summary() *Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	return &Summary{
		ID:              t.id,
		Begin:           t.begin,
		DurationSeconds: t.root.durationLocked(now).Seconds(),
		SpansDropped:    t.dropped,
		Stages:          t.stagesLocked(),
		Spans:           t.root.summaryLocked(t.begin, now),
	}
}

// Stages exports the compact per-stage rollup (nil-safe).
func (t *Trace) Stages() *StageSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &StageSummary{
		ID:              t.id,
		DurationSeconds: t.root.durationLocked(time.Now()).Seconds(),
		Stages:          t.stagesLocked(),
	}
}

// stagesLocked snapshots the aggregate sorted by name (deterministic
// JSON). Caller holds t.mu.
func (t *Trace) stagesLocked() []StageTotal {
	out := make([]StageTotal, 0, len(t.stages))
	for name, agg := range t.stages {
		out = append(out, StageTotal{Name: name, Count: agg.count, Seconds: agg.dur.Seconds()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// durationLocked returns the span's duration, using now for a span
// still running. Caller holds tr.mu.
func (s *Span) durationLocked(now time.Time) time.Duration {
	if s.end.IsZero() {
		return now.Sub(s.start)
	}
	return s.end.Sub(s.start)
}

// summaryLocked exports the subtree rooted at s. Caller holds tr.mu.
func (s *Span) summaryLocked(begin, now time.Time) *SpanSummary {
	out := &SpanSummary{
		Name:            s.name,
		StartSeconds:    s.start.Sub(begin).Seconds(),
		DurationSeconds: s.durationLocked(now).Seconds(),
		InProgress:      s.end.IsZero(),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.summaryLocked(begin, now))
	}
	return out
}

// Recorder keeps the most recent traces in a bounded ring, keyed by
// trace ID. A nil *Recorder is a valid no-op source of nil traces.
type Recorder struct {
	mu       sync.Mutex
	capacity int
	order    []string // oldest first
	byID     map[string]*Trace
	sink     func(name string, d time.Duration)
}

// WithSink makes every trace r creates from now on call sink once per
// ended span, detached overflow spans included, on the ending goroutine
// after the trace lock is released: sink may read the trace and must be
// safe for concurrent use. Call it before the first New; it returns r.
func (r *Recorder) WithSink(sink func(name string, d time.Duration)) *Recorder {
	r.sink = sink
	return r
}

// DefaultRecorderCap bounds a recorder built with capacity ≤ 0.
const DefaultRecorderCap = 128

// NewRecorder builds a ring holding up to capacity traces
// (DefaultRecorderCap when capacity ≤ 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCap
	}
	return &Recorder{capacity: capacity, byID: map[string]*Trace{}}
}

// New creates and registers a trace, evicting the oldest past capacity
// (nil-safe: returns nil on a nil recorder).
func (r *Recorder) New(id string) *Trace {
	if r == nil {
		return nil
	}
	tr := New(id)
	tr.sink = r.sink
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; !ok {
		r.order = append(r.order, id)
	}
	r.byID[id] = tr
	for len(r.order) > r.capacity {
		delete(r.byID, r.order[0])
		r.order = r.order[1:]
	}
	return tr
}

// Remove drops a trace from the ring (a job rejected after its trace
// was created). Nil-safe; unknown IDs are ignored.
func (r *Recorder) Remove(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; !ok {
		return
	}
	delete(r.byID, id)
	for i, v := range r.order {
		if v == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// Get returns the trace with the given ID, or nil.
func (r *Recorder) Get(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// Recent returns the compact rollups of the most recent traces, newest
// first, at most n (all retained traces when n ≤ 0).
func (r *Recorder) Recent(n int) []*StageSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	r.mu.Unlock()
	if n <= 0 || n > len(ids) {
		n = len(ids)
	}
	out := make([]*StageSummary, 0, n)
	for i := len(ids) - 1; i >= 0 && len(out) < n; i-- {
		if tr := r.Get(ids[i]); tr != nil {
			out = append(out, tr.Stages())
		}
	}
	return out
}
