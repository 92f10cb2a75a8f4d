package sweepengine

import (
	"context"
	"math"

	"roughsim/internal/resilience"
	"roughsim/internal/rng"
	"roughsim/internal/stats"
)

// FaultOpNode is the fault-injection op a unit consults (through
// Engine.Injector) for each node it is about to solve, keyed by node
// index; a Panic spec makes the unit panic.
const FaultOpNode = "sweep.node"

// Failure records one failed Monte Carlo sample.
type Failure struct {
	Index int
	Kind  resilience.Kind
	Err   error
}

// MonteCarloResult is the outcome of a Monte Carlo run. When failures
// were tolerated the result is partial: Samples holds only the
// successful evaluations (in sample-index order) and the statistics are
// computed over them.
type MonteCarloResult struct {
	Samples []float64
	Mean    float64
	StdErr  float64
	// Requested is the number of samples asked for; len(Samples) +
	// len(Failures) == Requested.
	Requested int
	// Failures lists the failed samples in index order.
	Failures []Failure
	// FailureCounts aggregates the failures by classified cause.
	FailureCounts map[resilience.Kind]int
}

// Failed returns the number of failed samples.
func (r *MonteCarloResult) Failed() int { return len(r.Failures) }

// MonteCarlo is the brute-force reference estimator the paper compares
// SSCM against (Fig. 7, Table I): K at f over n surfaces drawn at iid
// standard-normal KL coordinates, sample i at ξ_i = NormVec(Dim) of
// stream i+1 of seed, so a sample's value does not depend on worker
// count, scheduling or which other samples failed. The samples are the
// run's nodes: they are solved through the same units as Run's, and a
// Checkpoint is keyed by sample index, so it must serve one (f, seed).
//
// Up to int(maxFailFrac·n) samples may fail; the result then carries
// statistics over the survivors and per-cause failure accounting. Past
// that budget the run fails with the failure's kind.
func (e *Engine) MonteCarlo(ctx context.Context, f float64, n int, seed uint64, maxFailFrac float64) (*MonteCarloResult, error) {
	if e.Dim < 1 || n <= 0 || math.IsNaN(maxFailFrac) || maxFailFrac < 0 || maxFailFrac > 1 {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "sweepengine.MonteCarlo",
			"invalid d=%d n=%d maxFailFrac=%g (want d ≥ 1, n ≥ 1, maxFailFrac in [0, 1])", e.Dim, n, maxFailFrac)
	}
	nodes := make([][]float64, n)
	for i := range nodes {
		nodes[i] = rng.NewStream(seed, uint64(i)+1).NormVec(e.Dim)
	}
	p, err := e.plan([]float64{f}, nodes...)
	if err != nil {
		return nil, err
	}
	vals, lost, err := e.run(ctx, p, int(maxFailFrac*float64(n)))
	if err != nil {
		return nil, err
	}
	res := &MonteCarloResult{Requested: n, FailureCounts: map[resilience.Kind]int{}}
	for i, err := range lost {
		if err != nil {
			kind := resilience.Classify(err)
			res.Failures = append(res.Failures, Failure{Index: i, Kind: kind, Err: err})
			res.FailureCounts[kind]++
			continue
		}
		res.Samples = append(res.Samples, vals[0][i])
	}
	if len(res.Samples) == 0 {
		return nil, resilience.Errorf(resilience.KindNumerical, "sweepengine.MonteCarlo",
			"no successful samples out of %d", n)
	}
	res.Mean, res.StdErr = stats.MeanStdErr(res.Samples)
	return res, nil
}
