package campaign

import (
	"context"

	"roughsim"
)

// LocalRunner executes cells in-process — the CLI path: no queue, no
// result cache, each cell is one roughsim.RunSweep call (which
// parallelizes internally over every CPU).
type LocalRunner struct{}

func (LocalRunner) Run(ctx context.Context, cfg roughsim.SweepConfig, started func(jobID string)) (*roughsim.SweepResult, error) {
	started("")
	return roughsim.RunSweep(ctx, cfg)
}

// Cached always misses: the CLI has no result cache.
func (LocalRunner) Cached(roughsim.SweepConfig) (*roughsim.SweepResult, bool) {
	return nil, false
}
