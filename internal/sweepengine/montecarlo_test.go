package sweepengine

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"roughsim/internal/resilience"
	"roughsim/internal/surface"
	"roughsim/internal/telemetry"
	"roughsim/internal/units"
)

func bg() context.Context { return context.Background() }

// mcFreq is the frequency of the Monte Carlo tests.
const mcFreq = 5 * units.GHz

func TestDeterministicGivenSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	eng, _ := testEngine(t)
	eng.Workers = 4
	a, err := eng.MonteCarlo(bg(), mcFreq, 40, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.Workers = 1
	b, err := eng.MonteCarlo(bg(), mcFreq, 40, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs across worker counts: %g vs %g", i, a.Samples[i], b.Samples[i])
		}
	}
}

// TestErrorPropagates: a failing node's error reaches the caller wrapped,
// not replaced. One worker makes node 0's unit the first to fail.
func TestErrorPropagates(t *testing.T) {
	eng, _ := testEngine(t)
	eng.Workers = 1
	eng.Injector = resilience.NewInjector(resilience.FaultSpec{
		Op: FaultOpNode, Fraction: 1, Kind: resilience.KindConvergence,
	})
	boom := &resilience.InjectedFault{Op: FaultOpNode, Key: 0, Kind: resilience.KindConvergence}
	if _, err := eng.MonteCarlo(bg(), mcFreq, 10, 0, 0); !errors.Is(err, boom) {
		t.Fatalf("expected wrapped evaluator error, got %v", err)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen int64
	eng, kl := testEngine(t)
	eng.Workers = 2
	eng.Synth = func(xi []float64) *surface.Surface {
		if atomic.AddInt64(&seen, 1) == 3 {
			cancel()
		}
		return kl.Synthesize(xi)
	}
	_, err := eng.MonteCarlo(ctx, mcFreq, 100000, 0, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if n := atomic.LoadInt64(&seen); n >= 100000 {
		t.Fatalf("cancellation did not stop the run early (evaluated %d)", n)
	}
}

// TestPanicRecoveredIntoError: a node whose synthesis panics fails the
// run with a classified error carrying the panic value and its stack.
func TestPanicRecoveredIntoError(t *testing.T) {
	eng, kl := testEngine(t)
	eng.Workers = 2
	eng.Synth = func(xi []float64) *surface.Surface {
		if xi[0] > -100 { // always
			panic("solver exploded")
		}
		return kl.Synthesize(xi)
	}
	_, err := eng.MonteCarlo(bg(), mcFreq, 4, 0, 0)
	if err == nil {
		t.Fatal("expected error from panicking evaluator")
	}
	if resilience.Classify(err) != resilience.KindPanic {
		t.Fatalf("expected panic classification, got %v: %v", resilience.Classify(err), err)
	}
	if !strings.Contains(err.Error(), "solver exploded") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("expected recovered panic with stack, got: %v", err)
	}
}

// TestPartialResultAccounting is the acceptance scenario of the
// resilience layer: fault injection fails ~10% of 200 samples (classified
// as convergence failures) and panics one unit; the run must complete,
// return a partial result with exact per-cause counts, and its mean must
// match the fault-free run within the reported standard error.
func TestPartialResultAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	const n = 200
	inj := resilience.NewInjector(
		resilience.FaultSpec{Op: FaultOpNode, Keys: []uint64{7}, Panic: true},
		resilience.FaultSpec{Op: FaultOpNode, Fraction: 0.1, Kind: resilience.KindConvergence},
	)
	// Expected failure set, computed independently of scheduling.
	wantKinds := map[resilience.Kind]int{}
	wantFailed := 0
	for i := 0; i < n; i++ {
		if f := inj.Fault(FaultOpNode, uint64(i)); f != nil {
			wantFailed++
			if f.Panic {
				wantKinds[resilience.KindPanic]++
			} else {
				wantKinds[f.Kind]++
			}
		}
	}
	if wantKinds[resilience.KindPanic] != 1 {
		t.Fatalf("test setup: want exactly 1 panic, got %d", wantKinds[resilience.KindPanic])
	}
	if c := wantKinds[resilience.KindConvergence]; c < 10 || c > 35 {
		t.Fatalf("test setup: injected convergence failures = %d, want ≈ 20", c)
	}

	eng, _ := testEngine(t)
	eng.Workers = 4
	free, err := eng.MonteCarlo(bg(), mcFreq, n, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng.Injector = inj
	part, err := eng.MonteCarlo(bg(), mcFreq, n, 11, 0.25)
	if err != nil {
		t.Fatal(err)
	}

	if part.Requested != n || part.Failed() != wantFailed || len(part.Samples) != n-wantFailed {
		t.Fatalf("partial accounting: requested %d, failed %d (want %d), samples %d",
			part.Requested, part.Failed(), wantFailed, len(part.Samples))
	}
	if len(part.FailureCounts) != len(wantKinds) {
		t.Fatalf("failure kinds %v, want %v", part.FailureCounts, wantKinds)
	}
	for k, c := range wantKinds {
		if part.FailureCounts[k] != c {
			t.Fatalf("failure count for %v = %d, want %d (all: %v)", k, part.FailureCounts[k], c, wantKinds)
		}
	}
	// Failures are reported in index order with their causes.
	for i := 1; i < len(part.Failures); i++ {
		if part.Failures[i].Index <= part.Failures[i-1].Index {
			t.Fatal("failures not in index order")
		}
	}
	if math.Abs(part.Mean-free.Mean) > part.StdErr {
		t.Fatalf("partial mean %g vs fault-free %g differs by more than the reported stderr %g",
			part.Mean, free.Mean, part.StdErr)
	}
}

// TestFailureBudgetExceeded runs in -short (and so under the race
// detector): the units that are not injected solve concurrently until
// the budget is crossed.
func TestFailureBudgetExceeded(t *testing.T) {
	eng, _ := testEngine(t)
	eng.Workers = 2
	eng.Injector = resilience.NewInjector(resilience.FaultSpec{
		Op: FaultOpNode, Fraction: 0.5, Kind: resilience.KindConvergence,
	})
	_, err := eng.MonteCarlo(bg(), mcFreq, 100, 0, 0.1)
	if err == nil {
		t.Fatal("expected failure-budget error")
	}
	if resilience.Classify(err) != resilience.KindConvergence {
		t.Fatalf("budget error should carry the first failure's kind, got %v", err)
	}
}

// TestRejectsBadArgs: a bad dimension, sample count or failure budget is
// invalid input, rejected before any node is synthesized or solved.
func TestRejectsBadArgs(t *testing.T) {
	eng, _ := testEngine(t)
	m := telemetry.NewRegistry()
	eng.Metrics = m
	d0 := *eng
	d0.Dim = 0
	if _, err := d0.MonteCarlo(bg(), mcFreq, 10, 0, 0); err == nil {
		t.Fatal("expected error for d=0")
	}
	if _, err := eng.MonteCarlo(bg(), mcFreq, 0, 0, 0); err == nil {
		t.Fatal("expected error for n=0")
	}
	for _, tc := range []struct {
		n           int
		maxFailFrac float64
	}{
		{10, -0.1},
		{10, math.NaN()},
		{10, 1.5},
		{0, 0},
	} {
		_, err := eng.MonteCarlo(bg(), mcFreq, tc.n, 0, tc.maxFailFrac)
		if resilience.Classify(err) != resilience.KindInvalidInput {
			t.Errorf("n=%d maxFailFrac=%g: want invalid input, got %v", tc.n, tc.maxFailFrac, err)
		}
	}
	if got := m.Counter("sweep.batched_runs").Value(); got != 0 {
		t.Fatalf("rejected arguments still started %d runs", got)
	}
}

// cancelAfter is an in-memory Checkpoint that cancels its run once it
// has saved n columns: the state a Monte Carlo run interrupted midway
// leaves.
type cancelAfter struct {
	*mapCheckpoint
	n      int64
	saved  atomic.Int64
	cancel func()
}

func (c *cancelAfter) Save(node int, col []float64) {
	c.mapCheckpoint.Save(node, col)
	if c.saved.Add(1) == c.n {
		c.cancel()
	}
}

// TestMonteCarloCheckpointResume: a Monte Carlo run cancelled midway
// keeps its completed samples in the checkpoint; rerunning it re-solves
// only the missing samples and reproduces an uninterrupted run bit for
// bit.
func TestMonteCarloCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	const n, seed = 16, 3
	eng, _ := testEngine(t)
	eng.Workers = 2
	want, err := eng.MonteCarlo(bg(), mcFreq, n, seed, 0)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg())
	defer cancel()
	ck := &cancelAfter{mapCheckpoint: newMapCheckpoint(), n: 5, cancel: cancel}
	eng.Checkpoint = ck
	if _, err := eng.MonteCarlo(ctx, mcFreq, n, seed, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: want context.Canceled, got %v", err)
	}
	saved := len(ck.cols)
	if saved < 5 || saved >= n {
		t.Fatalf("interrupted run checkpointed %d of %d samples, want a strict subset of at least 5", saved, n)
	}

	m := telemetry.NewRegistry()
	eng.Metrics = m
	eng.Checkpoint = ck.mapCheckpoint
	got, err := eng.MonteCarlo(bg(), mcFreq, n, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hits := m.Counter("sweep.checkpoint_hits").Value(); hits != int64(saved) {
		t.Fatalf("checkpoint_hits = %d, want %d", hits, saved)
	}
	if solves := m.Counter("sweep.node_solves").Value(); solves != int64(n-saved) {
		t.Fatalf("resume solved %d samples, want the %d missing", solves, n-saved)
	}
	if len(got.Samples) != len(want.Samples) || got.Mean != want.Mean || got.StdErr != want.StdErr {
		t.Fatalf("resumed run %+v differs from uninterrupted %+v", got, want)
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("sample %d: resumed %v != uninterrupted %v", i, got.Samples[i], want.Samples[i])
		}
	}
}
