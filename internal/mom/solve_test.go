package mom

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"roughsim/internal/resilience"
	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

func solveTestSystem() *System {
	c := surface.NewGaussianCorr(1*um, 1*um)
	kl := surface.NewKL(c, 5*um, 8)
	s := kl.SampleTruncated(rng.New(2), 8)
	return Assemble(s, paramsAt(5*units.GHz), Options{})
}

func relDiff(a, b []complex128) float64 {
	var num, den float64
	for i := range a {
		num += cmplx.Abs(a[i]-b[i]) * cmplx.Abs(a[i]-b[i])
		den += cmplx.Abs(b[i]) * cmplx.Abs(b[i])
	}
	return math.Sqrt(num / den)
}

func TestSolveResilientDefaultWinsGMRES(t *testing.T) {
	sys := solveTestSystem()
	sol, err := sys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report == nil || sol.Report.Winner != StageGMRES {
		t.Fatalf("expected the matrix-free GMRES stage to win, report: %+v", sol.Report)
	}
	if sol.Report.RelRes > 1e-7 {
		t.Fatalf("verified residual %g too large", sol.Report.RelRes)
	}
}

func TestSolveResilientFallsBackAndMatchesDense(t *testing.T) {
	sys := solveTestSystem()
	inj := resilience.NewInjector(resilience.FaultSpec{
		Op: StageGMRES, Fraction: 1, Kind: resilience.KindConvergence,
	})
	sol, err := sys.SolveResilient(context.Background(), SolveOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	rep := sol.Report
	if rep.Winner != StageDenseLU || len(rep.Failed) != 1 || rep.Failed[0].Stage != StageGMRES {
		t.Fatalf("expected dense LU to win after GMRES failed, report: %+v", rep)
	}
	var fault *resilience.InjectedFault
	if !errors.As(rep.Failed[0].Err, &fault) || resilience.Classify(rep.Failed[0].Err) != resilience.KindConvergence {
		t.Fatalf("GMRES should have failed with the injected convergence fault: %+v", rep.Failed)
	}
	if rep.RelRes > 1e-6 {
		t.Fatalf("fallback result not verified: relres %g", rep.RelRes)
	}
	// The fallback solution must agree with the direct dense LU solve.
	ref, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(sol.Psi, ref.Psi); d > 1e-6 {
		t.Fatalf("fallback ψ differs from dense LU by %g", d)
	}
	if d := relDiff(sol.U, ref.U); d > 1e-6 {
		t.Fatalf("fallback u differs from dense LU by %g", d)
	}
}

func TestSolveResilientAllStagesFail(t *testing.T) {
	sys := solveTestSystem()
	inj := resilience.NewInjector(
		resilience.FaultSpec{Op: StageGMRES, Fraction: 1, Kind: resilience.KindConvergence},
		resilience.FaultSpec{Op: StageDenseLU, Fraction: 1, Kind: resilience.KindSingular},
	)
	_, err := sys.SolveResilient(context.Background(), SolveOptions{Injector: inj})
	if err == nil {
		t.Fatal("expected error when every chain stage is failed")
	}
	var re *resilience.Error
	if !errors.As(err, &re) || re.Op != "mom.solve" {
		t.Fatalf("expected a classified mom.solve error, got %v", err)
	}
	if resilience.Classify(err) != resilience.KindSingular {
		t.Fatalf("expected the last failure's kind, got %v", resilience.Classify(err))
	}
	// The error wraps the last stage's failure and the report, which
	// names both failed stages in chain order.
	var fault *resilience.InjectedFault
	if !errors.As(err, &fault) || fault.Kind != resilience.KindSingular {
		t.Fatalf("error does not wrap the lu stage's injected fault: %v", err)
	}
	var rep *SolveReport
	if !errors.As(err, &rep) || rep.Winner != "" || len(rep.Failed) != 2 ||
		rep.Failed[0].Stage != StageGMRES || rep.Failed[1].Stage != StageDenseLU {
		t.Fatalf("error carries report %+v, want gmres then lu failed", rep)
	}
}

func TestSolveResilientCancelled(t *testing.T) {
	sys := solveTestSystem()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.SolveResilient(ctx, SolveOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

// cancelAfterFirstCheck is a context that reports no error on its first
// Err call (the chain's check before entering the GMRES stage) and
// context.Canceled on every later one, so the cancellation arrives only
// once the stage is running.
type cancelAfterFirstCheck struct {
	context.Context
	calls int
}

func (c *cancelAfterFirstCheck) Err() error {
	c.calls++
	if c.calls > 1 {
		return context.Canceled
	}
	return nil
}

func TestSolveResilientGMRESHonorsCancellationMidStage(t *testing.T) {
	sys := solveTestSystem()
	// Tripwire: if the chain went on to dense LU after the cancel, the
	// solve would fail as singular instead of canceled.
	inj := resilience.NewInjector(resilience.FaultSpec{
		Op: StageDenseLU, Fraction: 1, Kind: resilience.KindSingular,
	})
	ctx := &cancelAfterFirstCheck{Context: context.Background()}
	_, err := sys.SolveResilient(ctx, SolveOptions{Injector: inj})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled from inside the gmres stage, got %v", err)
	}
	if kind := resilience.Classify(err); kind != resilience.KindCanceled {
		t.Fatalf("cancelled solve classified %v, want canceled (lu must not run)", kind)
	}
}
