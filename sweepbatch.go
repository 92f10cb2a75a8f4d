package roughsim

import (
	"context"

	"roughsim/internal/mom"
	"roughsim/internal/sweepengine"
	"roughsim/internal/telemetry"
)

// TableCache is a shared Green's-function table cache: simulations
// attached to the same cache (WithTableCache) build each frequency's
// tables exactly once across sweeps, points and — in roughsimd —
// concurrent jobs. It is bounded (LRU) and safe for concurrent use.
type TableCache struct {
	c *mom.TableCache
}

// NewTableCache builds a cache holding up to capacity table sets
// (a service-sized default when capacity ≤ 0), publishing tables.*
// telemetry to m when non-nil.
func NewTableCache(capacity int, m *telemetry.Registry) *TableCache {
	return &TableCache{c: mom.NewTableCache(capacity, m)}
}

// Len returns the number of cached table sets.
func (t *TableCache) Len() int { return t.c.Len() }

// Builds returns how many table sets the cache has constructed.
func (t *TableCache) Builds() int64 { return t.c.Builds() }

// WithTableCache attaches a shared table cache to the simulation's
// solver. Call it before the first solve; it returns the receiver for
// chaining.
func (s *Simulation) WithTableCache(tc *TableCache) *Simulation {
	if tc != nil {
		s.solver.SetTableCache(tc.c)
	}
	return s
}

// engine builds the batched sweep engine over this simulation's solver
// and surface process.
func (s *Simulation) engine() *sweepengine.Engine {
	return &sweepengine.Engine{
		Solver:  s.solver,
		Synth:   s.kl.Synthesize,
		Dim:     s.dim,
		Order:   1,
		Workers: s.acc.Workers,
		Metrics: s.metrics,
	}
}

// CollocationValues evaluates K at every SSCM collocation node for
// every frequency through the exact per-frequency path (matrix
// interpolation is disabled by pinning one anchor per frequency), so
// vals[i][j] is the solver's K at freqs[i], node j of
// sscm.Nodes(StochasticDim(), order). This is the surrogate.Source
// contract: surrogate fitting and validation must consume exact
// solves, never another interpolant.
func (s *Simulation) CollocationValues(ctx context.Context, freqs []float64, order int) ([][]float64, error) {
	eng := s.engine()
	eng.Order = order
	eng.Anchors = len(freqs) // anchors == freqs disables the interpolated path
	res, err := eng.Run(ctx, freqs)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// SweepPoints computes the SweepPoint records for freqs through the
// batched sweep engine: collocation surfaces are synthesized once per
// sweep, Green's-function tables come from the (shareable) table cache,
// and broadband sweeps assemble only at a few anchor frequencies,
// interpolating the matrix in between (see internal/sweepengine).
// progress, when non-nil, receives monotone (done, total) updates in
// frequency units.
func (s *Simulation) SweepPoints(ctx context.Context, freqs []float64, progress func(done, total int)) ([]SweepPoint, error) {
	return s.SweepPointsCheckpointed(ctx, freqs, progress, nil)
}

// SweepPointsCheckpointed is SweepPoints with durable per-node
// checkpointing: ckpt (when non-nil) persists each completed
// collocation-node column as the sweep progresses and is consulted
// before solving, so a sweep resumed after a crash re-solves only the
// nodes that never completed. The resumed result is bitwise identical
// to an uninterrupted run (checkpoints hold the solver's own float64
// outputs, round-tripped losslessly).
func (s *Simulation) SweepPointsCheckpointed(ctx context.Context, freqs []float64, progress func(done, total int), ckpt sweepengine.Checkpoint) ([]SweepPoint, error) {
	cfg := SweepConfig{Stack: s.stack, Spec: s.spec, Acc: s.acc, Freqs: freqs}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := s.engine()
	eng.Progress = progress
	eng.Checkpoint = ckpt
	res, err := eng.Run(ctx, freqs)
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, len(freqs))
	for i, f := range freqs {
		pts[i] = SweepPoint{
			FreqHz:     f,
			SkinDepthM: s.stack.SkinDepth(f),
			KSWM:       res.Mean[i],
			KSPM2:      s.SPM2LossFactor(f),
			KEmpirical: s.EmpiricalLossFactor(f),
		}
	}
	return pts, nil
}

// PlanSweepColumns enumerates the independent column units of a sweep
// over freqs — the distributed tier's work decomposition. See
// sweepengine.ColumnPlan.
func (s *Simulation) PlanSweepColumns(freqs []float64) (*sweepengine.ColumnPlan, error) {
	return s.engine().PlanColumns(freqs)
}

// SweepColumn computes one column unit of the sweep over freqs: the K
// column of collocation node (or, for sweepengine.FlatRefNode, the
// interpolated path's flat-reference vector, which node columns then
// require as ps). The column is bitwise identical to the one a full
// engine run would checkpoint, so a remotely computed column fed back
// through the Checkpoint medium preserves single-process results
// exactly.
func (s *Simulation) SweepColumn(ctx context.Context, freqs []float64, node int, ps []float64) ([]float64, error) {
	return s.engine().Column(ctx, freqs, node, ps)
}

// RunSweepBatched computes the SweepResult over freqs through the
// batched sweep engine. For narrow or short sweeps (where the engine's
// exact path runs) the K values are bitwise identical to one
// first-order SSCM run per frequency; for broadband sweeps the
// matrix-interpolated path agrees to within solver tolerance at a
// fraction of the wall-clock.
func (s *Simulation) RunSweepBatched(ctx context.Context, freqs []float64) (*SweepResult, error) {
	pts, err := s.SweepPoints(ctx, freqs, nil)
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		Config: SweepConfig{Stack: s.stack, Spec: s.spec, Acc: s.acc, Freqs: freqs},
		Points: pts,
	}, nil
}
