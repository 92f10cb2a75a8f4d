package sweepengine

import (
	"context"

	"roughsim/internal/resilience"
	"roughsim/internal/surface"
)

// Column-granular execution: a sweep decomposes into independent units —
// one K column per collocation node that is not a rigid shift, over the
// sweep's solve frequencies — and each unit can be computed in
// isolation, on any process, from nothing but the sweep config and its
// node index. PlanColumns enumerates the units; Column computes one,
// running exactly the per-unit operations Run performs, so a column
// computed remotely and fed back through the Checkpoint medium leaves
// the final Run bitwise identical to a single-process sweep (the
// operator build is deterministic across worker counts, and checkpoint
// columns are the solver's own float64 outputs).

// ColumnPlan enumerates the independent column units of one sweep.
type ColumnPlan struct {
	// Anchors is the anchor count of the broadband path, whose columns
	// cover the anchor frequencies; 0 means the exact path, whose columns
	// cover the sweep frequencies.
	Anchors int
	// Nodes lists the collocation node indices that need a solve.
	// Rigid-shift nodes (K ≡ 1, see core.Solver.RigidShift) are omitted:
	// they cost nothing.
	Nodes []int
	// NumNodes is the total collocation node count of the sweep,
	// including rigid-shift ones.
	NumNodes int
}

// PlanColumns validates the sweep and returns its column decomposition
// without solving anything. The path choice (broadband vs exact) and
// the rigid-shift detection are the ones Run makes, so a scheduler can
// dispatch exactly the units Run would otherwise solve.
func (e *Engine) PlanColumns(freqs []float64) (*ColumnPlan, error) {
	p, err := e.plan(freqs)
	if err != nil {
		return nil, err
	}
	plan := &ColumnPlan{Anchors: p.anchors, NumNodes: len(p.nodes)}
	for j := range p.nodes {
		s, err := e.surface(p, j)
		if err != nil {
			return nil, err
		}
		if s != nil {
			plan.Nodes = append(plan.Nodes, j)
		}
	}
	return plan, nil
}

// Column computes the K column of collocation node over the solve
// frequencies of the sweep over freqs (ones for a rigid shift). The
// per-unit operations are exactly Run's, so the returned column is
// bitwise identical to the one Run would checkpoint.
func (e *Engine) Column(ctx context.Context, freqs []float64, node int) ([]float64, error) {
	p, err := e.plan(freqs)
	if err != nil {
		return nil, err
	}
	if node < 0 || node >= len(p.nodes) {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "sweepengine.Column",
			"node %d out of range [0, %d)", node, len(p.nodes))
	}
	surf, err := e.surface(p, node)
	if err != nil {
		return nil, err
	}
	if surf == nil {
		return ones(len(p.solve)), nil
	}
	e.Metrics.Counter("sweep.column_solves").Inc()
	var col []float64
	lost := &losses{errs: make([]error, len(p.nodes))}
	if err := e.columns(ctx, p, []*surface.Surface{surf}, []int{node}, lost, func(_ int, c []float64) { col = c }); err != nil {
		return nil, err
	}
	return col, nil
}
