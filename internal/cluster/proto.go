// Package cluster is the distributed compute plane of roughsimd: the
// consistent-hash ring that routes /k queries and sweep submissions to
// warm shards, the wire protocol of the coordinator's claim/renew/
// complete endpoints, and the worker loop that pulls column tasks,
// solves them, and pushes the results back.
//
// The unit of distribution is one sweep column (see
// sweepengine.ColumnPlan): a task carries the residual sweep config plus
// a collocation node index, is content-addressed by the column's
// checkpoint key, and its result — the solver's float64 column,
// round-tripped losslessly through JSON — feeds back into the
// coordinator's checkpoint store, so a distributed sweep is bitwise
// identical to a single-process one. Work distribution is pull-based:
// workers claim at their own pace, so joining a worker rebalances load
// by itself and losing one only strands leases that expire and re-queue.
package cluster

import "roughsim"

// Coordinator endpoint paths of the compute plane.
const (
	ClaimPath    = "/v1/cluster/claim"
	RenewPath    = "/v1/cluster/renew"
	CompletePath = "/v1/cluster/complete"
	LeavePath    = "/v1/cluster/leave"
)

// Task is one claimable column unit.
type Task struct {
	// ID is the column's content address (the checkpoint key), so an
	// offer is idempotent and a completed column verifiable bitwise.
	ID string `json:"id"`
	// Config is the residual sweep (Freqs = the cache-missing subset).
	Config roughsim.SweepConfig `json:"config"`
	// Node is the collocation node index.
	Node int `json:"node"`
}

// ClaimRequest asks for one task lease.
type ClaimRequest struct {
	Worker string `json:"worker"`
}

// ClaimResponse grants one (204 means nothing is pending).
type ClaimResponse struct {
	Task  Task   `json:"task"`
	Token string `json:"token"`
	TTLMs int64  `json:"ttl_ms"`
}

// RenewRequest extends a lease while the solve is still running.
type RenewRequest struct {
	TaskID string `json:"task_id"`
	Token  string `json:"token"`
}

// CompleteRequest finishes a lease: a column on success, a classified
// error otherwise (Kind is a resilience.Kind label — deterministic
// rejections are never re-queued by the coordinator).
type CompleteRequest struct {
	TaskID string    `json:"task_id"`
	Token  string    `json:"token"`
	Worker string    `json:"worker"`
	Column []float64 `json:"column,omitempty"`
	Error  string    `json:"error,omitempty"`
	Kind   string    `json:"kind,omitempty"`
}

// LeaveRequest announces a graceful departure, re-queueing any lease
// the worker still holds without waiting out its TTL.
type LeaveRequest struct {
	Worker string `json:"worker"`
}
