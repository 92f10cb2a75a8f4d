package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"time"

	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
)

// requestTimeout bounds every coordinator HTTP call of a worker.
const requestTimeout = 30 * time.Second

// WorkerConfig sizes one worker process. Zero values select the
// defaults noted on each field.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// ID names the worker in leases and telemetry labels (default a
	// random "worker-<hex>" tag).
	ID string
	// Poll is the idle claim interval (default 500ms).
	Poll time.Duration
	// Grace bounds how long an in-flight solve may run on after Run's
	// context is canceled — the drain window (default 2m).
	Grace time.Duration
	// Metrics receives worker telemetry; default a fresh registry.
	Metrics *telemetry.Registry
	// Log receives worker events; default slog.Default().
	Log *slog.Logger
	// Solve computes one claimed task's column (required); usually
	// (*Columns).Solve.
	Solve func(ctx context.Context, t Task) ([]float64, error)
	// OnClaim observes each granted lease before the solve starts
	// (test hook; may be nil).
	OnClaim func(t Task)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		c.ID = fmt.Sprintf("worker-%08x", rand.Uint32())
	}
	if c.Poll <= 0 {
		c.Poll = 500 * time.Millisecond
	}
	if c.Grace <= 0 {
		c.Grace = 2 * time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// Worker pulls column tasks from a coordinator, solves them, and pushes
// the results back: claim → solve (with a renewal heartbeat) →
// complete. It is deliberately stateless — all durable state lives on
// the coordinator — so killing a worker at any instant loses at most
// the lease it holds, which expires and re-queues.
type Worker struct {
	cfg    WorkerConfig
	client *Client
}

// NewWorker validates cfg and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	if cfg.Coordinator == "" {
		return nil, errors.New("cluster: worker needs a coordinator URL")
	}
	if cfg.Solve == nil {
		return nil, errors.New("cluster: worker needs a Solve function")
	}
	return &Worker{
		cfg:    cfg,
		client: NewClient(cfg.Coordinator, requestTimeout, cfg.ID),
	}, nil
}

// Run claims and solves tasks until ctx is canceled, then drains: the
// in-flight solve gets up to Grace to finish and report before the
// worker leaves. Run only returns ctx's error.
func (w *Worker) Run(ctx context.Context) error {
	w.cfg.Log.Info("cluster.worker: running",
		"worker", w.cfg.ID, "coordinator", w.cfg.Coordinator)
	for ctx.Err() == nil {
		task, token, ttl, err := w.client.Claim(ctx, w.cfg.ID)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.cfg.Metrics.Counter("worker.claim_errors").Inc()
			w.cfg.Log.Warn("cluster.worker: claim failed", "worker", w.cfg.ID, "error", err)
			_ = resilience.Sleep(ctx, w.cfg.Poll) // the loop condition sees ctx end
			continue
		}
		if task == nil {
			_ = resilience.Sleep(ctx, w.cfg.Poll)
			continue
		}
		w.cfg.Metrics.Counter("worker.claims").Inc()
		if w.cfg.OnClaim != nil {
			w.cfg.OnClaim(*task)
		}
		w.process(ctx, *task, token, ttl)
	}
	// Graceful departure: hand any still-pending lease back immediately
	// instead of letting the coordinator wait out the TTL.
	leaveCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), requestTimeout)
	defer cancel()
	if err := w.client.Leave(leaveCtx, w.cfg.ID); err != nil {
		w.cfg.Log.Warn("cluster.worker: leave failed", "worker", w.cfg.ID, "error", err)
	}
	w.cfg.Log.Info("cluster.worker: drained", "worker", w.cfg.ID)
	return ctx.Err()
}

// process runs one leased task to completion (or stale abandonment).
// The solve survives Run-context cancellation for up to Grace so a
// SIGTERM drains cleanly instead of discarding minutes of work.
func (w *Worker) process(ctx context.Context, task Task, token string, ttl time.Duration) {
	runCtx, cancelRun := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelRun()
	drainDone := make(chan struct{})
	defer close(drainDone)
	go func() {
		select {
		case <-drainDone:
		case <-ctx.Done():
			t := time.NewTimer(w.cfg.Grace)
			defer t.Stop()
			select {
			case <-drainDone:
			case <-t.C:
				cancelRun()
			}
		}
	}()

	// Renewal heartbeat: extend the lease at TTL/3 while the solve runs.
	// A stale renew means the coordinator already re-queued the task —
	// cancel the solve, its result would be discarded anyway.
	heartbeat := ttl / 3
	if heartbeat < 50*time.Millisecond {
		heartbeat = 50 * time.Millisecond
	}
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		tick := time.NewTicker(heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
				if err := w.client.Renew(runCtx, task.ID, token); err != nil {
					if errors.Is(err, ErrStale) {
						w.cfg.Metrics.Counter("worker.stale").Inc()
						w.cfg.Log.Warn("cluster.worker: lease lapsed mid-solve",
							"worker", w.cfg.ID, "task", task.ID)
						cancelRun()
						return
					}
					if runCtx.Err() == nil {
						w.cfg.Log.Warn("cluster.worker: renew failed",
							"worker", w.cfg.ID, "task", task.ID, "error", err)
					}
				}
			}
		}
	}()

	col, solveErr := w.cfg.Solve(runCtx, task)
	interrupted := runCtx.Err() != nil // read BEFORE our own cancel below
	cancelRun()
	<-renewDone

	if interrupted && solveErr != nil {
		// Canceled by staleness or drain-grace expiry: nothing to report.
		return
	}
	req := CompleteRequest{TaskID: task.ID, Token: token, Worker: w.cfg.ID}
	if solveErr != nil {
		w.cfg.Metrics.Counter("worker.errors").Inc()
		req.Error = solveErr.Error()
		req.Kind = resilience.Classify(solveErr).String()
	} else {
		w.cfg.Metrics.Counter("worker.solved").Inc()
		req.Column = col
	}
	// Completion must outlive Run-context cancellation too: the column is
	// computed, losing it to a drain race would waste the whole solve.
	compCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), requestTimeout)
	defer cancel()
	if err := w.client.Complete(compCtx, req); err != nil {
		if errors.Is(err, ErrStale) {
			w.cfg.Metrics.Counter("worker.stale").Inc()
			return
		}
		w.cfg.Metrics.Counter("worker.complete_errors").Inc()
		w.cfg.Log.Warn("cluster.worker: complete failed",
			"worker", w.cfg.ID, "task", task.ID, "error", err)
	}
}
