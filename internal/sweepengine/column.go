package sweepengine

import (
	"context"

	"roughsim/internal/resilience"
	"roughsim/internal/surface"
)

// Column-granular execution: a sweep decomposes into independent units —
// one K column per collocation node that is not a rigid shift, plus (on
// the interpolated path) the flat-reference absorbed-power vector — and
// each unit can be computed in isolation, on any process, from nothing
// but the sweep config and its node index. PlanColumns enumerates the units; Column
// computes one, running exactly the per-unit operations Run performs, so
// a column computed remotely and fed back through the Checkpoint medium
// leaves the final Run bitwise identical to a single-process sweep (the
// operator build is deterministic across worker counts, and checkpoint
// columns are the solver's own float64 outputs).

// ColumnPlan enumerates the independent column units of one sweep.
type ColumnPlan struct {
	// Interp reports whether the sweep takes the anchor-interpolated
	// broadband path; when true the flat-reference vector (FlatRefNode)
	// is an extra unit every node column divides by.
	Interp bool
	// Anchors is the anchor count of the interpolated path (0 when
	// Interp is false).
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
// without solving anything. The path choice (interpolated vs exact) and
// the rigid-shift detection are the ones Run makes, so a scheduler can
// dispatch exactly the units Run would otherwise solve.
func (e *Engine) PlanColumns(freqs []float64) (*ColumnPlan, error) {
	p, err := e.plan(freqs)
	if err != nil {
		return nil, err
	}
	plan := &ColumnPlan{Interp: p.interp(), Anchors: p.anchors, NumNodes: len(p.nodes)}
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

// Column computes one column unit for freqs: node ≥ 0 yields the K
// column of that collocation node (ones for a rigid shift), FlatRefNode
// yields the interpolated path's flat-reference absorbed-power vector.
// On the interpolated path a node column needs ps — the FlatRefNode
// vector over the same freqs — because K is the ratio Pr/Ps; the exact
// path ignores ps. The per-unit operations are exactly Run's, so the
// returned column is bitwise identical to the one Run would checkpoint.
func (e *Engine) Column(ctx context.Context, freqs []float64, node int, ps []float64) ([]float64, error) {
	p, err := e.plan(freqs)
	if err != nil {
		return nil, err
	}
	if node == FlatRefNode {
		if !p.interp() {
			return nil, resilience.Errorf(resilience.KindInvalidInput, "sweepengine.Column",
				"flat-reference column requested but the sweep takes the exact path")
		}
		return e.flatPabs(ctx, p)
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
		return ones(len(freqs)), nil
	}
	e.Metrics.Counter("sweep.column_solves").Inc()
	if p.interp() && len(ps) != len(freqs) {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "sweepengine.Column",
			"interpolated column needs the flat reference over all %d frequencies (got %d)",
			len(freqs), len(ps))
	}
	var col []float64
	if err := e.columns(ctx, p, []*surface.Surface{surf}, ps, func(_ int, c []float64) { col = c }); err != nil {
		return nil, err
	}
	return col, nil
}
