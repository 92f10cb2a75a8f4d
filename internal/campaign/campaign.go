// Package campaign is the batch tier of roughsimd: it turns one
// CampaignConfig — a parameter grid over the surface process — into a
// deduplicated, fanned-out, resumable set of sweep cells with aggregate
// tracking and a combined artifact.
//
// Lifecycle: plan (expand the grid deterministically, fold duplicate
// cells, shortcut flat reference cells) → fan out (cells run through an
// injected Runner — the job queue in roughsimd, in-process solves in
// the CLI — under resilience.ForEach with a per-campaign concurrency
// cap so a campaign cannot starve interactive sweeps) → aggregate
// (per-cell status, partial-failure policy over the resilience
// taxonomy, ETA from the campaign.cell_seconds histogram) → artifact
// (JSON, or CSV with the cross-model comparison columns of
// internal/experiments).
//
// Durability is layered: each finished cell's points live in the
// content-addressed result cache, and the campaign itself is journaled
// by the server (internal/journal campaign records). A kill -9
// mid-campaign therefore resumes under the original campaign ID — the
// config's content address — with finished cells served from the cache
// and only unfinished cells re-solved.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"roughsim"
	"roughsim/internal/rescache"
	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// Runner executes one cell sweep. roughsimd backs it with the job
// queue + result cache; the CLI runs cells in-process (LocalRunner).
type Runner interface {
	// Run solves cfg and blocks until it finishes or ctx ends. It calls
	// started once the cell is submitted, with the job ID (empty when
	// there is no job); a cell that fails before then never started.
	Run(ctx context.Context, cfg roughsim.SweepConfig, started func(jobID string)) (*roughsim.SweepResult, error)
	// Cached returns the complete sweep result when every frequency of
	// cfg is already in the result cache — the resume fast path.
	Cached(cfg roughsim.SweepConfig) (*roughsim.SweepResult, bool)
}

// Hooks observe durability-relevant transitions: the server journals
// Terminal and crash-tests at CellDone. Nil funcs are skipped.
type Hooks struct {
	// CellDone fires after a cell's result is durably in the result
	// cache (or synthesized for flat cells).
	CellDone func(campaignID string, cell int)
	// Terminal fires exactly once per campaign with its final status.
	Terminal func(campaignID string, st Status, err error)
}

// Options wires an Engine.
type Options struct {
	Runner Runner
	// MaxConcurrent caps the cells one campaign keeps in flight
	// (default 1), so batch work cannot monopolize the worker pool.
	MaxConcurrent int
	Metrics       *telemetry.Registry
	// Tracer, when set, records one trace per campaign (keyed by the
	// campaign ID) with campaign.plan and per-cell campaign.cell spans.
	Tracer *trace.Recorder
	Hooks  Hooks
}

// Status is the campaign-level state machine.
type Status string

const (
	StatusRunning   Status = "running"
	StatusSucceeded Status = "succeeded"
	StatusFailed    Status = "failed"
	StatusCanceled  Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool { return s != StatusRunning }

// CellStatus is the per-cell state machine.
type CellStatus string

const (
	CellPending  CellStatus = "pending"
	CellRunning  CellStatus = "running"
	CellDone     CellStatus = "done"
	CellCached   CellStatus = "cached" // done, served entirely from the result cache
	CellFailed   CellStatus = "failed"
	CellCanceled CellStatus = "canceled"
)

// CellState is one cell's public status record.
type CellState struct {
	Index  int        `json:"index"`
	Status CellStatus `json:"status"`
	Key    string     `json:"key"`
	JobID  string     `json:"job_id,omitempty"`
	// Duplicates counts the extra requested cells folded into this one
	// by the planner.
	Duplicates int    `json:"duplicates,omitempty"`
	Error      string `json:"error,omitempty"`
	Kind       string `json:"kind,omitempty"` // resilience.Kind label of a failure
}

// Aggregate is the campaign progress snapshot served by the API.
type Aggregate struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`

	CellsTotal    int `json:"cells_total"`
	CellsPending  int `json:"cells_pending"`
	CellsRunning  int `json:"cells_running"`
	CellsDone     int `json:"cells_done"` // includes cached
	CellsCached   int `json:"cells_cached"`
	CellsFailed   int `json:"cells_failed"`
	CellsCanceled int `json:"cells_canceled,omitempty"`
	// DuplicatesFolded counts requested cells the planner folded into
	// identical ones (each solved exactly once).
	DuplicatesFolded int `json:"duplicates_folded"`

	// ETASeconds estimates the remaining wall time from the running
	// mean of campaign.cell_seconds (0 = unknown or terminal).
	ETASeconds float64 `json:"eta_seconds,omitempty"`

	SubmittedUnix int64 `json:"submitted_unix"`
	FinishedUnix  int64 `json:"finished_unix,omitempty"`

	// Cells is the per-cell detail (only on the single-campaign view).
	Cells []CellState `json:"cells,omitempty"`
}

// planCell is one deduplicated unit of work.
type planCell struct {
	cfg  roughsim.SweepConfig
	key  rescache.Key
	flat bool // σ = 0: K ≡ 1 analytically, no solver run
}

// Campaign is one running or finished parameter study.
type Campaign struct {
	ID     string
	Config roughsim.CampaignConfig

	eng   *Engine
	cells []planCell
	freqs []float64
	trace *trace.Trace

	mu         sync.Mutex
	status     Status
	errMsg     string
	states     []CellState
	results    []*roughsim.SweepResult
	dupsFolded int
	submitted  time.Time
	finished   time.Time
	canceled   bool
	changed    chan struct{}

	cancel context.CancelFunc
	done   chan struct{}
}

// Engine plans, runs and tracks campaigns.
type Engine struct {
	opt   Options
	mu    sync.Mutex
	camps map[string]*Campaign
	order []string
}

// NewEngine builds an engine; opt.Runner is required.
func NewEngine(opt Options) *Engine {
	if opt.MaxConcurrent <= 0 {
		opt.MaxConcurrent = 1
	}
	return &Engine{opt: opt, camps: map[string]*Campaign{}}
}

// Start plans and launches the campaign, or returns the existing one
// when the same study (same content address) is already known —
// POSTing a campaign twice is idempotent. created reports which. The
// lookup, the plan and the insert share one lock, so racing Starts of
// one study plan it exactly once (one trace, one set of plan counters).
func (e *Engine) Start(cfg roughsim.CampaignConfig) (c *Campaign, created bool, err error) {
	cfg = cfg.WithDefaults()
	id, err := cfg.ID()
	if err != nil {
		return nil, false, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.camps[id]; ok {
		return prev, false, nil
	}
	c, err = e.plan(id, cfg)
	if err != nil {
		return nil, false, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	e.camps[id] = c
	e.order = append(e.order, id)
	e.opt.Metrics.Counter("campaign.submitted").Inc()
	go c.run(ctx)
	return c, true, nil
}

// Get returns a known campaign by ID.
func (e *Engine) Get(id string) (*Campaign, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.camps[id]
	return c, ok
}

// List returns aggregate snapshots in submission order.
func (e *Engine) List() []Aggregate {
	e.mu.Lock()
	ids := append([]string(nil), e.order...)
	e.mu.Unlock()
	out := make([]Aggregate, 0, len(ids))
	for _, id := range ids {
		if c, ok := e.Get(id); ok {
			out = append(out, c.Aggregate(false))
		}
	}
	return out
}

// Remove forgets a terminal campaign (its cached cell results stay in
// the result cache). Running campaigns are not removable — cancel
// first.
func (e *Engine) Remove(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.camps[id]
	if !ok {
		return fmt.Errorf("campaign: no such campaign %q", id)
	}
	c.mu.Lock()
	terminal := c.status.Terminal()
	c.mu.Unlock()
	if !terminal {
		return fmt.Errorf("campaign: %s is still %s; cancel it first", id, StatusRunning)
	}
	delete(e.camps, id)
	for i, v := range e.order {
		if v == id {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	return nil
}

// plan expands and deduplicates the campaign's cells under the
// campaign.plan span (a no-op when the engine has no tracer).
func (e *Engine) plan(id string, cfg roughsim.CampaignConfig) (*Campaign, error) {
	submitted := time.Now()
	tr := e.opt.Tracer.New(id)
	sp := tr.Root().StartChild("campaign.plan")
	expanded, err := cfg.ExpandCells()
	var freqs []float64
	if err == nil {
		freqs, err = cfg.Frequencies()
	}
	if err != nil {
		sp.End()
		tr.Finish()
		return nil, err
	}
	c := &Campaign{
		ID: id, Config: cfg, eng: e, freqs: freqs, trace: tr,
		status: StatusRunning, submitted: submitted, done: make(chan struct{}),
	}
	seen := map[rescache.Key]int{}
	for _, sc := range expanded {
		k := sc.Key()
		if at, ok := seen[k]; ok {
			c.states[at].Duplicates++
			c.dupsFolded++
			continue
		}
		seen[k] = len(c.cells)
		c.cells = append(c.cells, planCell{cfg: sc, key: k, flat: !(sc.Spec.Sigma > 0)})
		c.states = append(c.states, CellState{
			Index: len(c.cells) - 1, Status: CellPending, Key: k.String(),
		})
	}
	c.results = make([]*roughsim.SweepResult, len(c.cells))
	sp.SetAttr("cells", len(c.cells))
	sp.SetAttr("duplicates_folded", c.dupsFolded)
	sp.End()
	m := e.opt.Metrics
	m.Counter("campaign.cells_total").Add(int64(len(c.cells)))
	m.Counter("campaign.cells_deduped").Add(int64(c.dupsFolded))
	return c, nil
}

// run is the campaign's fan-out: cells launch in plan order, at most
// MaxConcurrent at a time. Every unit returns nil, so one failed cell
// never stops the others; a cell the cancellation reaches before it
// starts stays pending and terminalize marks it canceled.
func (c *Campaign) run(ctx context.Context) {
	resilience.ForEach(ctx, len(c.cells), c.eng.opt.MaxConcurrent, c.runCell)
	c.terminalize()
}

// runCell takes one cell to its terminal state: flat and fully cached
// cells complete inline, the rest go to the Runner. A panicking Runner
// fails only its own cell (KindPanic).
func (c *Campaign) runCell(ctx context.Context, i int) error {
	if ctx.Err() != nil {
		return nil
	}
	pc := c.cells[i]
	span := c.startCellSpan(i)
	if pc.flat {
		c.eng.opt.Metrics.Counter("campaign.cells_flat").Inc()
		c.cellDone(i, flatResult(pc.cfg), nil, CellDone, span)
		return nil
	}
	if res, ok := c.eng.opt.Runner.Cached(pc.cfg); ok {
		c.eng.opt.Metrics.Counter("campaign.cells_cached").Inc()
		c.cellDone(i, res, nil, CellCached, span)
		return nil
	}
	var res *roughsim.SweepResult
	var start time.Time
	err := resilience.Call(ctx, i, func(ctx context.Context, i int) (err error) {
		res, err = c.eng.opt.Runner.Run(ctx, pc.cfg, func(jobID string) {
			start = time.Now()
			c.setRunning(i, jobID)
		})
		return err
	})
	if !start.IsZero() {
		c.eng.opt.Metrics.Histogram("campaign.cell_seconds").Observe(time.Since(start).Seconds())
	}
	if err != nil {
		c.cellDone(i, nil, err, cellStatusFor(err), span)
		return nil
	}
	c.cellDone(i, res, nil, CellDone, span)
	return nil
}

// cellStatusFor maps a cell error onto its terminal status via the
// resilience taxonomy: cancellations are not failures.
func cellStatusFor(err error) CellStatus {
	if resilience.Classify(err) == resilience.KindCanceled {
		return CellCanceled
	}
	return CellFailed
}

// startCellSpan opens the campaign.cell span for one cell (nil when the
// campaign is untraced; spans are nil-safe).
func (c *Campaign) startCellSpan(i int) *trace.Span {
	sp := c.trace.Root().StartChild("campaign.cell")
	sp.SetAttr("cell", i)
	return sp
}

func (c *Campaign) endSpan(sp *trace.Span, st CellStatus) {
	sp.SetAttr("status", string(st))
	sp.End()
}

func (c *Campaign) setRunning(i int, jobID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.states[i].Status = CellRunning
	c.states[i].JobID = jobID
	c.notifyLocked()
}

// cellDone records one cell's terminal state and fires the durability
// hook for successful cells.
func (c *Campaign) cellDone(i int, res *roughsim.SweepResult, err error, st CellStatus, span *trace.Span) {
	c.endSpan(span, st)
	c.mu.Lock()
	cs := &c.states[i]
	cs.Status = st
	if err != nil {
		cs.Error = err.Error()
		cs.Kind = resilience.Classify(err).String()
	}
	c.results[i] = res
	c.notifyLocked()
	c.mu.Unlock()
	switch st {
	case CellDone, CellCached:
		if h := c.eng.opt.Hooks.CellDone; h != nil {
			h(c.ID, i)
		}
	case CellFailed:
		c.eng.opt.Metrics.Counter("campaign.cells_failed").Inc()
	}
}

// terminalize applies the partial-failure policy and fires the terminal
// hook exactly once.
func (c *Campaign) terminalize() {
	c.mu.Lock()
	for i := range c.states {
		if c.states[i].Status == CellPending {
			c.states[i].Status = CellCanceled
		}
	}
	total := len(c.states)
	var failed, canceled int
	for _, cs := range c.states {
		switch cs.Status {
		case CellFailed:
			failed++
		case CellCanceled:
			canceled++
		}
	}
	st := StatusSucceeded
	var errMsg string
	switch {
	case c.canceled || canceled > 0:
		st = StatusCanceled
		errMsg = fmt.Sprintf("%d of %d cells canceled", canceled, total)
	case failed > 0 && float64(failed) > c.Config.MaxFailFrac*float64(total):
		st = StatusFailed
		errMsg = fmt.Sprintf("%d of %d cells failed (max_fail_frac %g)", failed, total, c.Config.MaxFailFrac)
	}
	c.status = st
	c.errMsg = errMsg
	c.finished = time.Now()
	c.notifyLocked()
	c.mu.Unlock()
	close(c.done)
	if c.trace != nil {
		c.trace.Finish()
	}
	c.eng.opt.Metrics.CounterL("campaign.terminal", telemetry.L("status", string(st))).Inc()
	if h := c.eng.opt.Hooks.Terminal; h != nil {
		var terr error
		if errMsg != "" {
			terr = errors.New(errMsg)
		}
		h(c.ID, st, terr)
	}
}

// Cancel stops the campaign: pending cells never launch, running cells
// see their context end. Idempotent; no-op once terminal.
func (c *Campaign) Cancel() {
	c.mu.Lock()
	if c.status.Terminal() || c.canceled {
		c.mu.Unlock()
		return
	}
	c.canceled = true
	c.cancel()
	c.notifyLocked()
	c.mu.Unlock()
}

// Done closes when the campaign reaches a terminal status.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Changed returns a channel that closes on the next state change —
// subscribe before snapshotting and missed updates are impossible.
func (c *Campaign) Changed() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.changed == nil {
		c.changed = make(chan struct{})
	}
	return c.changed
}

func (c *Campaign) notifyLocked() {
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}
}

// Aggregate snapshots the campaign's progress; withCells includes the
// per-cell detail.
func (c *Campaign) Aggregate(withCells bool) Aggregate {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := Aggregate{
		ID: c.ID, Status: c.status, Error: c.errMsg,
		CellsTotal: len(c.states), DuplicatesFolded: c.dupsFolded,
		SubmittedUnix: c.submitted.Unix(),
	}
	for _, cs := range c.states {
		switch cs.Status {
		case CellPending:
			agg.CellsPending++
		case CellRunning:
			agg.CellsRunning++
		case CellDone:
			agg.CellsDone++
		case CellCached:
			agg.CellsDone++
			agg.CellsCached++
		case CellFailed:
			agg.CellsFailed++
		case CellCanceled:
			agg.CellsCanceled++
		}
	}
	if !c.finished.IsZero() {
		agg.FinishedUnix = c.finished.Unix()
	}
	if !c.status.Terminal() {
		agg.ETASeconds = c.eng.eta(agg.CellsPending + agg.CellsRunning)
	}
	if withCells {
		agg.Cells = append([]CellState(nil), c.states...)
	}
	return agg
}

// eta estimates remaining wall time: remaining cells × the running mean
// of campaign.cell_seconds, divided by the fan-out cap.
func (e *Engine) eta(remaining int) float64 {
	h := e.opt.Metrics.Histogram("campaign.cell_seconds")
	n := h.Count()
	if remaining == 0 || n == 0 {
		return 0
	}
	return h.Sum() / float64(n) * float64(remaining) / float64(e.opt.MaxConcurrent)
}

// flatResult synthesizes the exact flat-surface sweep: a σ = 0 process
// has no roughness loss, so K ≡ 1 across SWM and every baseline — no
// solver run (the solver cannot even be constructed for σ = 0).
func flatResult(cfg roughsim.SweepConfig) *roughsim.SweepResult {
	pts := make([]roughsim.SweepPoint, len(cfg.Freqs))
	for i, f := range cfg.Freqs {
		pts[i] = roughsim.SweepPoint{
			FreqHz: f, SkinDepthM: cfg.Stack.SkinDepth(f),
			KSWM: 1, KSPM2: 1, KEmpirical: 1,
		}
	}
	return &roughsim.SweepResult{Config: cfg, Points: pts}
}
