package mom

import (
	"context"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/resilience"
	"roughsim/internal/trace"
)

// Stage names of the resilient solve chain, in fallback order. They are
// also the op names the fault injector matches on.
const (
	StageFFT     = "fft-gmres" // FFT-accelerated operator, preconditioned GMRES (matrix-free)
	StageGMRES   = "gmres"     // matrix-free restarted GMRES on the dense matvec
	StageDenseLU = "lu"        // dense LU with partial pivoting
)

// SolveOptions configures System.SolveResilient.
type SolveOptions struct {
	// Tol is the accepted relative residual of the verified solution
	// (default 1e-8). Every stage's candidate is verified against the
	// original (unpreconditioned) system before being accepted.
	Tol float64
	// Injector, when set, deterministically fails stages (by stage name
	// and Key) for testing the fallback path.
	Injector *resilience.Injector
	// Key identifies this solve to the fault injector (e.g. a sample
	// index).
	Key uint64
}

// SolveReport is the per-stage accounting of one resilient solve.
type SolveReport struct {
	resilience.Report
	// RelRes is the independently verified relative residual of the
	// winning stage's solution.
	RelRes float64
}

// SolveResilient solves the system through the fallback chain
// fft-gmres → GMRES → dense LU, running each stage at most once,
// verifying the true residual (and finiteness) of every stage's
// candidate before accepting it, and recording per-stage accounting on
// the returned Solution. LU with partial pivoting is backward stable, so
// once GMRES has failed on a non-singular system LU's verified residual
// is the answer: no further iterative stage could rescue a solve LU
// cannot. Cancellation is honored between stages and, in both GMRES
// stages, between restarts.
//
// The fft-gmres stage only exists for systems built with
// NewOperatorSystem whose surface passed the admissibility gates; its
// candidate is verified through the operator's own MatVec, so a solve
// it wins never touches (or assembles) the dense matrix. Dense stages
// of a lazily-built system materialize the matrix on first entry. A
// gate rejection is prepended to the report as a Skipped fft-gmres
// attempt: observable, but never run and never counted as an execution
// failure.
func (sys *System) SolveResilient(ctx context.Context, opt SolveOptions) (*Solution, error) {
	n2 := 2 * sys.N
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	denseMV := func(y, x []complex128) {
		copy(y, sys.Matrix.MulVec(x))
	}

	var x []complex128
	report := &SolveReport{}

	// verify accepts a candidate only if it is finite and its true
	// residual — against the matvec of the stage family that produced it
	// — is within 10× the target, the same drift guard GMRES applies
	// internally.
	verify := func(cand []complex128, mv cmplxmat.MatVec) error {
		if cmplxmat.HasNonFinite(cand) {
			return resilience.Errorf(resilience.KindNumerical, "mom.verify",
				"non-finite entries in candidate solution")
		}
		r := make([]complex128, n2)
		mv(r, cand)
		for i := range r {
			r[i] = sys.RHS[i] - r[i]
		}
		bnorm := cmplxmat.Norm2(sys.RHS)
		rr := 0.0
		if bnorm > 0 {
			rr = cmplxmat.Norm2(r) / bnorm
		}
		if rr > 10*tol {
			return resilience.Errorf(resilience.KindConvergence, "mom.verify",
				"verified residual %.3e exceeds %.3e", rr, 10*tol)
		}
		x = cand
		report.RelRes = rr
		return nil
	}

	// dense wraps a dense-chain stage so a lazily-built system assembles
	// its matrix on first entry (no-op for the eager paths).
	dense := func(run func(context.Context) error) func(context.Context) error {
		return func(c context.Context) error {
			if err := sys.Materialize(); err != nil {
				return err
			}
			return run(c)
		}
	}

	var stages []resilience.Stage
	if sys.fft != nil {
		op := sys.fft
		stages = append(stages, resilience.Stage{Name: StageFFT, Run: func(c context.Context) error {
			_, sp := trace.StartSpan(c, "mom.fft.solve")
			cand, _, err := op.solveVec(c, sys.RHS, tol)
			if err == nil {
				err = verify(cand, op.MatVec)
			}
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
			return err
		}})
	}
	stages = append(stages,
		resilience.Stage{Name: StageGMRES, Run: dense(func(c context.Context) error {
			cand, _, err := cmplxmat.GMRES(n2, denseMV, sys.RHS, nil,
				cmplxmat.IterOpts{Tol: tol, Restart: 60, Check: c.Err})
			if err != nil {
				return err
			}
			return verify(cand, denseMV)
		})},
		resilience.Stage{Name: StageDenseLU, Run: dense(func(context.Context) error {
			c, err := cmplxmat.SolveDense(sys.Matrix, sys.RHS)
			if err != nil {
				return err
			}
			return verify(c, denseMV)
		})},
	)

	rep, err := resilience.Execute(ctx, "mom.solve", opt.Injector, opt.Key, stages)
	if sys.fft == nil && sys.fftRej != nil {
		// The FFT stage was gated off for this surface: record the typed
		// rejection for observability without ever having run the stage.
		rep.Attempts = append([]resilience.Attempt{{
			Stage:   StageFFT,
			Kind:    resilience.Classify(sys.fftRej),
			Err:     sys.fftRej,
			Skipped: true,
		}}, rep.Attempts...)
	}
	report.Report = rep
	if err != nil {
		return nil, err
	}
	sol := solutionFrom(x, sys.Step)
	sol.Report = report
	return sol, nil
}
