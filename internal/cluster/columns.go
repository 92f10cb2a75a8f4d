package cluster

import (
	"context"

	"roughsim"
	"roughsim/internal/memo"
	"roughsim/internal/telemetry"
)

// Columns is the simulation pool: it memoizes constructed simulations
// (KL modes are expensive) keyed by the frequency-independent part of
// the config and shares one Green's-function table cache across them,
// so a worker grinding through one sweep's columns builds its solver
// state once. The server builds every simulation through one too.
type Columns struct {
	metrics *telemetry.Registry
	tables  *roughsim.TableCache
	sims    *memo.LRU[string, *roughsim.Simulation]
}

const simCacheCap = 32

// NewColumns builds a simulation pool publishing telemetry to m (nil
// disables it) whose simulations share tables (nil builds a private
// table cache).
func NewColumns(m *telemetry.Registry, tables *roughsim.TableCache) *Columns {
	if m == nil {
		m = telemetry.NewRegistry()
	}
	if tables == nil {
		tables = roughsim.NewTableCache(0, m)
	}
	return &Columns{
		metrics: m,
		tables:  tables,
		sims:    memo.NewLRU[string, *roughsim.Simulation](simCacheCap, memo.Hooks{}),
	}
}

// Solve computes one claimed task's column.
func (c *Columns) Solve(ctx context.Context, t Task) ([]float64, error) {
	cfg := t.Config.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim, err := c.Sim(cfg)
	if err != nil {
		return nil, err
	}
	return sim.SweepColumn(ctx, cfg.Freqs, t.Node)
}

// Sim returns (building on first use) the Simulation for the
// frequency-independent part of cfg. Callers wait out a build in
// progress for the same config.
func (c *Columns) Sim(cfg roughsim.SweepConfig) (*roughsim.Simulation, error) {
	// KeyAt canonicalizes exactly the frequency-independent fields plus
	// f, so a constant pseudo-frequency keys the solver config alone.
	sim, _, err := c.sims.Do(context.Background(), cfg.KeyAt(1).String(), func() (*roughsim.Simulation, error) {
		sim, err := roughsim.NewSimulation(cfg.Stack, cfg.Spec, cfg.Acc)
		if err != nil {
			return nil, err
		}
		return sim.WithMetrics(c.metrics).WithTableCache(c.tables), nil
	})
	return sim, err
}
