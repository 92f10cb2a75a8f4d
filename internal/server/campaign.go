package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"roughsim"
	"roughsim/internal/campaign"
	"roughsim/internal/jobs"
	"roughsim/internal/journal"
	"roughsim/internal/resilience"
)

// This file wires the campaign engine into the HTTP tier: cells fan out
// through the same bounded queue as interactive sweeps (under the
// campaign's own concurrency cap), durability rides on one campaign
// journal record plus the content-addressed result cache, and the
// combined artifact is served as JSON or CSV.

// cellRunner adapts the server's queue + result cache to
// campaign.Runner.
type cellRunner struct{ s *Server }

// cellRetry is the pause before a cell parked on a full queue submits
// again.
const cellRetry = 100 * time.Millisecond

// Run enqueues a cell as a plain queue job, outside the durable
// registry: the campaign record already covers it, and its result is
// durable in the cache, so it writes no per-job journal records. It
// then waits for the job; when ctx ends first it cancels the job and
// still waits for it to finish.
func (r cellRunner) Run(ctx context.Context, cfg roughsim.SweepConfig, started func(jobID string)) (*roughsim.SweepResult, error) {
	job, err := submitWithRetry(ctx, cellRetry, func() (*jobs.Job, error) {
		return r.s.queue.SubmitOpts(r.s.runSweep(cfg), r.s.submitOptions("", 0))
	})
	if err != nil {
		return nil, err
	}
	started(job.ID)
	select {
	case <-job.Done():
	case <-ctx.Done():
		r.s.queue.Cancel(job.ID)
		<-job.Done()
	}
	v, err := job.Result()
	if err != nil {
		return nil, err
	}
	res, ok := v.(*roughsim.SweepResult)
	if !ok {
		return nil, fmt.Errorf("server: cell job %s returned %T, not a sweep result", job.ID, v)
	}
	return res, nil
}

// submitWithRetry calls submit until it lands. A full queue is
// backpressure, not failure — campaigns are batch work — so the cell
// parks for the every interval and tries again, until ctx ends. A
// cancel during a park is a KindCanceled error.
func submitWithRetry(ctx context.Context, every time.Duration, submit func() (*jobs.Job, error)) (*jobs.Job, error) {
	for {
		job, err := submit()
		if !errors.Is(err, jobs.ErrQueueFull) {
			return job, err
		}
		if resilience.Sleep(ctx, every) != nil {
			return nil, resilience.Errorf(resilience.KindCanceled, "campaign", "campaign canceled")
		}
	}
}

// Cached reports a complete sweep already in the result cache — how a
// resumed campaign skips every cell that finished before the crash.
func (r cellRunner) Cached(cfg roughsim.SweepConfig) (*roughsim.SweepResult, bool) {
	pts := make([]roughsim.SweepPoint, len(cfg.Freqs))
	for i, f := range cfg.Freqs {
		v, ok := r.s.cache.Get(cfg.KeyAt(f))
		if !ok {
			return nil, false
		}
		pts[i] = v.(roughsim.SweepPoint)
	}
	return &roughsim.SweepResult{Config: cfg, Points: pts}, true
}

// campaignCellDone is the campaign.cell chaos point: it fires after a
// cell's points are durable in the result cache, so "crash at the n-th
// campaign cell" leaves n cells for resume's cache probe to skip.
func (s *Server) campaignCellDone(string, int) {
	s.chaos.Crash("campaign.cell", s.campCellSeq.Add(1))
}

// campaignTerminal closes the campaign out in the journal with the
// same terminal records, and the same drain rule, as a job.
func (s *Server) campaignTerminal(id string, st campaign.Status, cerr error) {
	op := journal.OpCanceled
	switch st {
	case campaign.StatusSucceeded:
		op = journal.OpCompleted
	case campaign.StatusFailed:
		op = journal.OpFailed
	}
	if rec, ok := s.terminalRecord(id, op, cerr); ok && s.journal != nil {
		s.journal.Append(rec)
	}
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var cfg roughsim.CampaignConfig
	if !decodeBody(w, r, &cfg) {
		return
	}
	cfg = cfg.WithDefaults()
	cells, err := cfg.ExpandCells()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(cells) > s.cfg.MaxCampaignCells {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"campaign expands to %d cells; the service limit is %d", len(cells), s.cfg.MaxCampaignCells))
		return
	}
	for i, c := range cells {
		if err := validate(c); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("cell %d: %w", i, err))
			return
		}
	}
	// A campaign is hours of batch work riding on the journal and the
	// cache's disk tier: refuse to accept one onto a wedged disk.
	if h := s.readiness(); !h.Ready {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("service not ready: %s", h.unready()))
		return
	}
	if wait, ok := s.brk.Allow(); !ok {
		writeRetryError(w, http.StatusTooManyRequests, wait, errBreakerOpen)
		return
	}
	id, err := cfg.ID()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Idempotent by content address: re-POSTing the same study returns
	// the existing campaign (200) instead of relaunching it.
	if c, ok := s.camps.Get(id); ok {
		writeJSON(w, http.StatusOK, c.Aggregate(false))
		return
	}
	// Journal-before-start: an acknowledged campaign always survives a
	// crash.
	if err := s.journalSubmit(journal.OpCampaignSubmitted, id, id, cfg); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	c, created, err := s.camps.Start(cfg)
	if err != nil {
		s.campaignTerminal(id, campaign.StatusFailed, err)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusAccepted
	if !created {
		status = http.StatusOK
	}
	writeJSON(w, status, c.Aggregate(false))
}

func (s *Server) campaignByID(w http.ResponseWriter, r *http.Request) (*campaign.Campaign, bool) {
	c, ok := s.camps.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such campaign %q", r.PathValue("id")))
		return nil, false
	}
	return c, true
}

func (s *Server) handleCampaignList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.camps.List())
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	if c, ok := s.campaignByID(w, r); ok {
		writeJSON(w, http.StatusOK, c.Aggregate(true))
	}
}

// handleCampaignDelete cancels a running campaign; deleting a terminal
// one forgets it (its cell results stay cached).
func (s *Server) handleCampaignDelete(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(w, r)
	if !ok {
		return
	}
	if agg := c.Aggregate(false); agg.Status.Terminal() {
		if err := s.camps.Remove(c.ID); err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, agg)
		return
	}
	c.Cancel()
	writeJSON(w, http.StatusOK, c.Aggregate(false))
}

// handleCampaignEvents streams SSE aggregate progress: one "progress"
// event per change of status or cell counts, then a final "done" event
// carrying the per-cell detail.
func (s *Server) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(w, r)
	if !ok {
		return
	}
	s.stream(w, r, c.ID, c.Changed, func() (any, any, bool) {
		agg := c.Aggregate(false)
		return agg, [6]any{agg.Status, agg.CellsDone, agg.CellsRunning, agg.CellsFailed,
			agg.CellsCached, agg.CellsCanceled}, agg.Status.Terminal()
	}, func() any { return c.Aggregate(true) })
}

// handleCampaignResult serves the combined artifact with content
// negotiation: JSON by default, CSV via ?format=csv or Accept:
// text/csv.
func (s *Server) handleCampaignResult(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignByID(w, r)
	if !ok {
		return
	}
	agg := c.Aggregate(false)
	if !agg.Status.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("campaign %s is %s; result not ready", c.ID, agg.Status))
		return
	}
	art := c.Artifact()
	if r.URL.Query().Get("format") == "csv" || strings.Contains(r.Header.Get("Accept"), "text/csv") {
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(http.StatusOK)
		if err := art.WriteCSV(w); err != nil {
			s.log.Warn("campaign csv write failed", "campaign", c.ID, "err", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, art)
}

// healthFacet is one readiness probe result.
type healthFacet struct {
	Name  string `json:"name"`
	Path  string `json:"path"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// healthPayload is the /healthz body: liveness (it answered) plus
// readiness facets over the durable directories.
type healthPayload struct {
	Status string        `json:"status"` // "ok" | "degraded"
	Ready  bool          `json:"ready"`
	Facets []healthFacet `json:"facets,omitempty"`
}

func (h healthPayload) unready() string {
	var parts []string
	for _, f := range h.Facets {
		if !f.OK {
			parts = append(parts, fmt.Sprintf("%s (%s): %s", f.Name, f.Path, f.Error))
		}
	}
	return strings.Join(parts, "; ")
}

// readiness probes the journal and cache directories for writability —
// the two places a campaign's durability lives. Facets only exist for
// configured tiers: a memory-only server is always ready.
func (s *Server) readiness() healthPayload {
	h := healthPayload{Status: "ok", Ready: true}
	probe := func(name, dir string) {
		f := healthFacet{Name: name, Path: dir, OK: true}
		if err := probeDir(dir); err != nil {
			f.OK = false
			f.Error = err.Error()
			h.Ready = false
			h.Status = "degraded"
		}
		h.Facets = append(h.Facets, f)
	}
	if s.cfg.JournalPath != "" {
		probe("journal", filepath.Dir(s.cfg.JournalPath))
	}
	if s.cfg.CacheDir != "" {
		probe("cache", s.cfg.CacheDir)
	}
	return h
}

// probeDir verifies dir is (creatable and) writable by round-tripping a
// temp file — an actual write, not a permission-bit guess, so it also
// catches full and read-only filesystems.
func probeDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".healthz-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if err := f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Remove(name)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.readiness()
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
