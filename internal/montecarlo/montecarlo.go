// Package montecarlo provides the brute-force reference estimator the
// paper compares SSCM against (Fig. 7, Table I): parallel evaluation of
// the loss factor over iid standard-normal KL coordinate draws, with
// streaming convergence tracking.
//
// The driver is built for long production sweeps: a fixed worker pool
// (not a goroutine per sample), panic recovery with stacks, context
// cancellation, and graceful degradation — up to a configurable
// fraction of failed samples is tolerated and reported as per-cause
// accounting on a partial Result instead of discarding the run.
package montecarlo

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"roughsim/internal/resilience"
	"roughsim/internal/rng"
	"roughsim/internal/stats"
	"roughsim/internal/telemetry"
)

// Evaluator maps KL coordinates to the quantity of interest; it must be
// safe for concurrent calls.
type Evaluator func(xi []float64) (float64, error)

// FaultOpSample is the fault-injection op consulted once per sample
// index; a Panic spec makes the worker panic (exercising recovery).
const FaultOpSample = "mc.sample"

// Options tunes the driver.
type Options struct {
	Workers int    // fixed worker-pool size; default NumCPU
	Seed    uint64 // base seed; each sample uses an independent stream
	// MaxFailFrac is the tolerated fraction of failed samples in [0, 1].
	// Within budget, Run returns a partial Result carrying per-cause
	// failure accounting; past it, Run fails with the first sample
	// error. Default 0: any failure aborts the run (the historical
	// behavior).
	MaxFailFrac float64
	// Injector deterministically injects per-sample faults for testing
	// the degradation path; nil injects nothing.
	Injector *resilience.Injector
	// Metrics, when non-nil, receives mc.* telemetry (run/sample
	// counters, per-cause failure counts).
	Metrics *telemetry.Registry
}

// Failure records one failed sample.
type Failure struct {
	Index int
	Kind  resilience.Kind
	Err   error
}

// Result of a Monte-Carlo run. When failures were tolerated the result
// is partial: Samples holds only the successful evaluations (in sample-
// index order) and the statistics are computed over them.
type Result struct {
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
func (r *Result) Failed() int { return len(r.Failures) }

// Run draws n samples of eval over d-dimensional standard normal
// coordinates using a fixed pool of opt.Workers goroutines pulling from
// a shared index channel. Sampling is deterministic given Seed: sample i
// always uses stream i, independent of scheduling — and the injected
// fault set, keyed by sample index, is equally scheduling-independent.
// A cancelled ctx stops the run promptly with ctx.Err().
func Run(ctx context.Context, d, n int, eval Evaluator, opt Options) (*Result, error) {
	if d <= 0 || n <= 0 {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "montecarlo.Run",
			"invalid d=%d n=%d", d, n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	vals := make([]float64, n)
	errs := make([]error, n)
	done := make([]bool, n)

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				vals[i], errs[i] = evalSample(i, d, eval, opt)
				done[i] = true
			}
		}()
	}
	// The feeder stops handing out indices as soon as ctx is cancelled;
	// in-flight evaluations drain before Run returns.
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	opt.Metrics.Counter("mc.runs").Inc()
	res := &Result{Requested: n, FailureCounts: map[resilience.Kind]int{}}
	for i := 0; i < n; i++ {
		if !done[i] {
			// Unreachable without cancellation (handled above), but keep
			// the accounting honest.
			errs[i] = resilience.Errorf(resilience.KindUnknown, "montecarlo.Run", "sample %d not evaluated", i)
		}
		if errs[i] != nil {
			res.Failures = append(res.Failures, Failure{Index: i, Kind: resilience.Classify(errs[i]), Err: errs[i]})
			continue
		}
		res.Samples = append(res.Samples, vals[i])
	}
	for _, f := range res.Failures {
		res.FailureCounts[f.Kind]++
		opt.Metrics.Counter("mc.samples_failed." + f.Kind.String()).Inc()
	}
	opt.Metrics.Counter("mc.samples_ok").Add(int64(len(res.Samples)))
	budget := int(opt.MaxFailFrac * float64(n))
	if len(res.Failures) > budget {
		first := res.Failures[0]
		return nil, resilience.New(first.Kind, "montecarlo.Run",
			fmt.Errorf("%d of %d samples failed (budget %d); sample %d: %w",
				len(res.Failures), n, budget, first.Index, first.Err))
	}
	if len(res.Samples) == 0 {
		return nil, resilience.Errorf(resilience.KindNumerical, "montecarlo.Run",
			"no successful samples out of %d", n)
	}
	res.Mean, res.StdErr = stats.MeanStdErr(res.Samples)
	return res, nil
}

// evalSample runs one sample with panic recovery: a panicking evaluator
// (or an injected panic) becomes a classified error carrying the stack.
func evalSample(i, d int, eval Evaluator, opt Options) (v float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = resilience.Errorf(resilience.KindPanic, "montecarlo.sample",
				"sample %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	if f := opt.Injector.Fault(FaultOpSample, uint64(i)); f != nil {
		if f.Panic {
			panic(f)
		}
		return 0, resilience.New(f.Kind, "montecarlo.sample", f)
	}
	src := rng.NewStream(opt.Seed, uint64(i)+1)
	return eval(src.NormVec(d))
}

// SamplesForTolerance estimates how many MC samples are needed to reach
// a target standard error, from a pilot run's sample standard deviation:
// n = (sd/tol)². This quantifies the paper's "5000 samples for 1%"
// remark against the measured variance of K.
func SamplesForTolerance(sd, tol float64) (int, error) {
	if tol <= 0 {
		return 0, resilience.Errorf(resilience.KindInvalidInput, "montecarlo.SamplesForTolerance",
			"tolerance must be positive (got %g)", tol)
	}
	n := sd / tol
	return int(n*n) + 1, nil
}
