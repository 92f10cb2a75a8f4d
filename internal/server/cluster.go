package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"roughsim"
	"roughsim/internal/cluster"
	"roughsim/internal/jobs"
	"roughsim/internal/resilience"
	"roughsim/internal/sweepengine"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// This file is the coordinator side of the distributed compute plane:
//
//   - the claim/renew/complete/leave endpoints workers pull column
//     tasks through (lease bookkeeping lives in jobs.LeaseTable);
//   - the per-sweep dispatcher that, when live workers exist, offers a
//     sweep's missing columns to the lease table and feeds completed
//     columns back through the checkpoint store — so the engine's final
//     run loads them as checkpoint hits and the distributed result is
//     bitwise identical to a single-process one;
//   - the consistent-hash shard router that 307-redirects /k queries
//     and sweep submissions to the peer whose caches are warm for them.
//
// Worker loss is handled entirely by lease semantics: an expired lease
// re-queues its task (bounded by MaxTaskLosses), a stale completion is
// discarded idempotently, and when every worker is gone the dispatcher
// abandons cleanly — the local engine run computes whatever columns
// never arrived. Deterministic rejections (invalid input, singular
// systems, panics) fail the sweep immediately instead of burning the
// re-queue budget; the resilience taxonomy says retrying them is
// pointless.

// RoleCoordinator marks the process that owns the queue, journal and
// lease table; workers are separate processes running cluster.Worker.
const RoleCoordinator = "coordinator"

// ClusterConfig wires the distributed compute plane ("" Role disables
// it: the server is a plain single-process daemon).
type ClusterConfig struct {
	// Role selects the process's part: "" (single-process) or
	// RoleCoordinator (serve claim/renew/complete and dispatch columns).
	Role string
	// SelfURL is this shard's own base URL as peers address it; required
	// for shard routing (Peers without SelfURL is a config error).
	SelfURL string
	// Peers lists every shard's base URL (including this one). Two or
	// more build the consistent-hash ring that routes /k and sweep
	// submissions; empty or singleton disables routing.
	Peers []string
	// LeaseTTL is how long a claimed column survives without a renew
	// before it re-queues (default 30s).
	LeaseTTL time.Duration
	// MaxTaskLosses bounds how many times one column survives losing its
	// worker before the dispatcher falls back to solving it locally
	// (default 3).
	MaxTaskLosses int
}

func (c ClusterConfig) validate() error {
	switch c.Role {
	case "", RoleCoordinator:
	default:
		return fmt.Errorf("server: unknown cluster role %q", c.Role)
	}
	if len(c.Peers) > 1 && c.SelfURL == "" {
		return errors.New("server: cluster peers need SelfURL to identify this shard")
	}
	return nil
}

// initCluster builds the lease table and shard ring New wires in.
func (s *Server) initCluster() {
	cc := s.cfg.Cluster
	if cc.Role == RoleCoordinator {
		s.leases = jobs.NewLeaseTable(jobs.LeaseOptions{
			TTL:       cc.LeaseTTL,
			MaxLosses: cc.MaxTaskLosses,
			Metrics:   s.metrics,
		})
		s.mux.HandleFunc("POST "+cluster.ClaimPath, s.handleClusterClaim)
		s.mux.HandleFunc("POST "+cluster.RenewPath, s.handleClusterRenew)
		s.mux.HandleFunc("POST "+cluster.CompletePath, s.handleClusterComplete)
		s.mux.HandleFunc("POST "+cluster.LeavePath, s.handleClusterLeave)
	}
	if cc.SelfURL != "" && len(cc.Peers) > 1 {
		s.ring = cluster.NewRing(cc.Peers)
	}
}

// routeAway 307-redirects the request to the shard owning key; false
// when this shard owns it (or routing is off) and the caller should
// serve it.
func (s *Server) routeAway(w http.ResponseWriter, r *http.Request, key string) bool {
	if s.ring == nil {
		return false
	}
	owner := s.ring.Owner(key)
	if owner == "" || owner == s.cfg.Cluster.SelfURL {
		return false
	}
	s.metrics.CounterL("cluster.routed", telemetry.L("to", owner)).Inc()
	http.Redirect(w, r, strings.TrimRight(owner, "/")+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	return true
}

func (s *Server) handleClusterClaim(w http.ResponseWriter, r *http.Request) {
	var req cluster.ClaimRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, errors.New("claim needs a worker ID"))
		return
	}
	lease, ok := s.leases.Claim(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	task, ok := lease.Payload.(cluster.Task)
	if !ok {
		// Unreachable by construction (only dispatchColumns offers), but a
		// malformed payload must not strand the lease.
		s.leases.Cancel(lease.TaskID)
		writeError(w, http.StatusInternalServerError, errors.New("lease payload is not a task"))
		return
	}
	writeJSON(w, http.StatusOK, cluster.ClaimResponse{
		Task:  task,
		Token: lease.Token,
		TTLMs: lease.TTL.Milliseconds(),
	})
}

func (s *Server) handleClusterRenew(w http.ResponseWriter, r *http.Request) {
	var req cluster.RenewRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if err := s.leases.Renew(req.TaskID, req.Token); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleClusterComplete(w http.ResponseWriter, r *http.Request) {
	var req cluster.CompleteRequest
	// Columns are float64 vectors over the sweep's frequency grid; 8 MiB
	// of JSON bounds them far above maxFreqs.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	var taskErr error
	if req.Error != "" {
		taskErr = resilience.New(resilience.ParseKind(req.Kind), "cluster.worker", errors.New(req.Error))
	}
	if err := s.leases.Complete(req.TaskID, req.Token, req.Column, taskErr); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	var req cluster.LeaveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	s.leases.Leave(req.Worker)
	w.WriteHeader(http.StatusNoContent)
}

// dispatchable reports whether remote dispatch is worth attempting
// right now: a lease table exists and at least one worker is live.
func (s *Server) dispatchable() bool {
	return s.leases != nil && s.leases.LiveWorkers() > 0
}

// dispatchColumns offers a sweep's not-yet-checkpointed columns to the
// worker pool and persists every column that comes back through the
// checkpoint store. It returns an error only for deterministic remote
// rejections (the sweep would fail identically anywhere); every other
// shortfall — no workers, lost leases past budget, transient errors —
// returns nil with columns simply missing, and the caller's local
// engine run computes them. cfg is the residual sweep (Freqs = the
// cache-missing subset), exactly what the engine will execute.
func (s *Server) dispatchColumns(ctx context.Context, jobID string, cfg roughsim.SweepConfig, sim *roughsim.Simulation) error {
	ctx, span := trace.StartSpan(ctx, "lease.dispatch")
	defer span.End()
	plan, err := sim.PlanSweepColumns(cfg.Freqs)
	if err != nil {
		// The local run will surface the same validation error through the
		// normal path; dispatch just steps aside.
		s.log.Warn("cluster: dispatch plan failed; solving locally", "job", jobID, "err", err)
		return nil
	}
	store := s.checkpointStore(jobID, cfg)
	if store == nil {
		return nil
	}

	var tasks []cluster.Task
	for _, node := range plan.Nodes {
		if _, ok := store.Load(node); ok {
			continue
		}
		tasks = append(tasks, cluster.Task{
			ID:     cfg.CheckpointKey(node).String(),
			Config: cfg,
			Node:   node,
		})
	}
	if len(tasks) == 0 {
		return nil
	}
	// A column covers the solve frequencies: the anchors on the
	// broadband path, the sweep frequencies on the exact one.
	colLen := len(cfg.Freqs)
	if plan.Anchors > 0 {
		colLen = plan.Anchors
	}
	return s.runColumnTasks(ctx, tasks, colLen, store)
}

// runColumnTasks offers tasks to the lease table and collects results
// until all finish, the worker pool empties, or ctx ends. Completed
// columns of colLen values persist through store; failed-retryable and
// exhausted tasks, and columns of any other length, are left to the
// local engine.
func (s *Server) runColumnTasks(ctx context.Context, tasks []cluster.Task, colLen int, store sweepengine.Checkpoint) error {
	pending := make(map[string]cluster.Task, len(tasks))
	for _, t := range tasks {
		pending[t.ID] = t
		s.leases.Offer(t.ID, t)
	}
	defer func() {
		for id := range pending {
			s.leases.Cancel(id)
		}
	}()
	// The poll tick is a liveness backstop (worker-pool emptiness is not
	// broadcast); real completions wake the Changed channel immediately.
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for len(pending) > 0 {
		// Subscribe before reading results so no transition is missed.
		ch := s.leases.Changed()
		for id, t := range pending {
			res, terr, done := s.leases.Result(id)
			if !done {
				continue
			}
			s.leases.Forget(id)
			delete(pending, id)
			if terr != nil {
				switch resilience.Classify(terr) {
				case resilience.KindInvalidInput, resilience.KindSingular, resilience.KindPanic:
					// Deterministic: the sweep fails the same way locally.
					return terr
				default:
					s.metrics.Counter("lease.local_fallback").Inc()
					continue
				}
			}
			col, ok := res.([]float64)
			if !ok || len(col) != colLen {
				s.metrics.Counter("lease.local_fallback").Inc()
				continue
			}
			store.Save(t.Node, col)
			s.metrics.Counter("lease.columns_remote").Inc()
		}
		if len(pending) == 0 {
			return nil
		}
		if s.leases.LiveWorkers() == 0 {
			// Every worker is gone: abandon cleanly, the local engine run
			// computes whatever never arrived.
			s.metrics.Counter("lease.dispatch_abandoned").Inc()
			return nil
		}
		select {
		case <-ch:
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
