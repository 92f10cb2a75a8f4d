package cluster

import (
	"context"

	"roughsim"
	"roughsim/internal/memo"
	"roughsim/internal/telemetry"
)

// Columns is the worker-side column solver: it memoizes constructed
// simulations (KL modes are expensive) keyed by the frequency-
// independent part of the config and shares one Green's-function table
// cache across tasks — the worker's mirror of the server's simFor, so a
// worker grinding through one sweep's columns builds its solver state
// once.
type Columns struct {
	metrics *telemetry.Registry
	tables  *roughsim.TableCache
	sims    *memo.LRU[string, *roughsim.Simulation]
}

const simCacheCap = 32

// NewColumns builds a solver pool publishing telemetry to m (nil
// disables it).
func NewColumns(m *telemetry.Registry) *Columns {
	if m == nil {
		m = telemetry.NewRegistry()
	}
	return &Columns{
		metrics: m,
		tables:  roughsim.NewTableCache(0, m),
		sims:    memo.NewLRU[string, *roughsim.Simulation](simCacheCap, memo.Hooks{}),
	}
}

// Solve computes one claimed task's column.
func (c *Columns) Solve(ctx context.Context, t Task) ([]float64, error) {
	cfg := t.Config.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim, err := c.simFor(cfg)
	if err != nil {
		return nil, err
	}
	return sim.SweepColumn(ctx, cfg.Freqs, t.Node, t.Ps)
}

// simFor waits out a build in progress for the same config.
func (c *Columns) simFor(cfg roughsim.SweepConfig) (*roughsim.Simulation, error) {
	sim, _, err := c.sims.Do(context.Background(), cfg.KeyAt(1).String(), func() (*roughsim.Simulation, error) {
		sim, err := roughsim.NewSimulation(cfg.Stack, cfg.Spec, cfg.Acc)
		if err != nil {
			return nil, err
		}
		return sim.WithMetrics(c.metrics).WithTableCache(c.tables), nil
	})
	return sim, err
}
