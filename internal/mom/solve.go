package mom

import (
	"context"
	"fmt"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/resilience"
	"roughsim/internal/trace"
)

// Stage names of the resilient solve chain, in fallback order. They are
// also the op names the fault injector matches on. The first stage is
// named after its operator: fft-gmres on an admitted FFT operator, gmres
// on the dense matrix.
const (
	StageFFT     = "fft-gmres" // preconditioned GMRES on the FFT-accelerated operator (matrix-free)
	StageGMRES   = "gmres"     // preconditioned GMRES on the dense matvec
	StageDenseLU = "lu"        // dense LU with partial pivoting
)

// solveTol is the accepted relative residual of a verified solution.
// Every stage's candidate is verified against the original
// (unpreconditioned) system before being accepted.
const solveTol = 1e-8

// SolveOptions configures System.SolveResilient.
type SolveOptions struct {
	// Injector, when set, deterministically fails stages (by stage name
	// and Key) for testing the fallback path.
	Injector *resilience.Injector
	// Key identifies this solve to the fault injector (e.g. a sample
	// index).
	Key uint64
}

// SolveReport is the accounting of one resilient solve. When neither
// stage wins it is also the cause SolveResilient's error wraps, so a
// caller can still read which stages failed (errors.As).
type SolveReport struct {
	// Winner names the stage whose candidate was accepted; "" when both
	// failed.
	Winner string
	// Failed lists the stages that failed, in chain order.
	Failed []StageFailure
	// RelRes is the independently verified relative residual of the
	// winning stage's solution.
	RelRes float64
	// MatVecs counts the operator products the winning stage ran, its
	// verification included.
	MatVecs int
}

// StageFailure is one failed stage of a resilient solve; Err is
// classified (resilience.Classify).
type StageFailure struct {
	Stage string
	Err   error
}

// Error reports the chain's total failure: the number of failed stages
// and the last one's error, which it unwraps to.
func (r *SolveReport) Error() string {
	return fmt.Sprintf("all %d fallback stages failed: %v", len(r.Failed), r.Unwrap())
}

// Unwrap returns the last failed stage's error (nil when none failed).
func (r *SolveReport) Unwrap() error {
	if len(r.Failed) == 0 {
		return nil
	}
	return r.Failed[len(r.Failed)-1].Err
}

// SolveResilient solves the system through the two-stage chain GMRES →
// dense LU, running each stage at most once, verifying the true
// residual (and finiteness) of every stage's candidate before accepting
// it, and recording the outcome on the returned Solution's Report. LU
// with partial pivoting is backward stable, so once GMRES has failed on
// a non-singular system LU's verified residual is the answer: no further
// iterative stage could rescue a solve LU cannot. Cancellation is
// honored between stages and, in the GMRES stage, between restarts. The
// fault injector, when set, is consulted before each stage: a matched
// stage fails with a mom.solve.<stage> error without running. When both
// stages fail the error is a mom.solve *resilience.Error, classified as
// the last failure and wrapping the *SolveReport.
//
// The GMRES stage is one Krylov solve (krylov) on the system's own
// operator (MatVec), right-preconditioned by its flat inverse (see
// Precondition; the identity when it carries none). For a system Build
// left matrix-free whose surface passed the admissibility gates that
// operator is the FFT-accelerated one and the stage is fft-gmres:
// its candidate is verified through the operator's own MatVec, so a
// solve it wins never touches (or assembles) the dense matrix. Otherwise
// the stage is gmres on the dense matrix, which a lazily-built system
// materializes on entry, as the LU stage does.
func (sys *System) SolveResilient(ctx context.Context, opt SolveOptions) (*Solution, error) {
	n2 := 2 * sys.N

	var x []complex128
	report := &SolveReport{}

	// verify accepts a candidate only if it is finite and its true
	// residual — against the unpreconditioned operator mv of the stage
	// that produced it — is within 10× the target, the same drift guard
	// GMRES applies internally. matvecs is what the stage spent on it.
	verify := func(cand []complex128, mv cmplxmat.MatVec, matvecs int) error {
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
		if rr > 10*solveTol {
			return resilience.Errorf(resilience.KindConvergence, "mom.verify",
				"verified residual %.3e exceeds %.3e", rr, 10*solveTol)
		}
		x = cand
		report.RelRes = rr
		report.MatVecs = matvecs + 1
		return nil
	}

	iterate := func(c context.Context) error {
		mv, err := sys.MatVec(c)
		if err != nil {
			return err
		}
		cand, _, matvecs, err := krylov(c, mv, sys.precondition(), sys.RHS, solveTol)
		if err != nil {
			return err
		}
		return verify(cand, mv, matvecs)
	}
	stages := [2]struct {
		name string
		run  func(context.Context) error
	}{{StageGMRES, iterate}, {StageDenseLU, func(c context.Context) error {
		if err := sys.materialize(c); err != nil {
			return err
		}
		cand, err := cmplxmat.SolveDense(sys.Matrix, sys.RHS)
		if err != nil {
			return err
		}
		return verify(cand, sys.Matrix.MulVecTo, 0)
	}}}
	if sys.fft != nil {
		stages[0].name = StageFFT
		stages[0].run = func(c context.Context) error {
			_, sp := trace.StartSpan(c, "mom.fft.solve")
			err := iterate(c)
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
			return err
		}
	}
	for _, st := range stages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if f := opt.Injector.Fault(st.name, opt.Key); f != nil {
			err = resilience.New(f.Kind, "mom.solve."+st.name, f)
		} else {
			err = st.run(ctx)
		}
		if err == nil {
			report.Winner = st.name
			sol := sys.solution(x)
			sol.Report = report
			return sol, nil
		}
		report.Failed = append(report.Failed, StageFailure{Stage: st.name, Err: err})
	}
	return nil, resilience.New(resilience.Classify(report.Unwrap()), "mom.solve", report)
}

// precondition returns the right preconditioner of the GMRES stage (nil:
// none): the flat inverse, applied on a quotient system's orbits by
// expanding the orbit values to every cell and reading the result at the
// orbit representatives. The flat inverse commutes with every lattice
// shift, so it maps shift-invariant fields to shift-invariant fields and
// the folded iteration is the full grid's.
func (sys *System) precondition() func(y, x []complex128) {
	switch {
	case sys.pre == nil:
		return nil
	case sys.fold == nil:
		return sys.pre.Apply
	}
	full := make([]complex128, 2*len(sys.fold.orbits.Of))
	return func(y, x []complex128) {
		sys.pre.Apply(full, sys.fold.expand(x))
		copy(y, sys.fold.pick(full))
	}
}

// krylov solves A·x = rhs for the operator mv by restarted GMRES,
// right-preconditioned by pre (the identity when nil): it solves
// (A·C⁻¹)·y = rhs, then x = C⁻¹·y, so the GMRES residual is the true
// residual of the original system and the chain's verification
// threshold applies to it directly (left preconditioning would skew the
// relative residual by the preconditioner's conditioning, which is large
// when β is small). It returns x, GMRES's relative residual and the
// number of operator products. The context is checked between
// restarts, so a cancelled job or a daemon drain stops a long solve
// promptly.
func krylov(ctx context.Context, mv cmplxmat.MatVec, pre func(y, x []complex128), rhs []complex128, tol float64) ([]complex128, float64, int, error) {
	n2 := len(rhs)
	matvecs := 0
	op := func(y, x []complex128) { matvecs++; mv(y, x) }
	if pre != nil {
		tmp := make([]complex128, n2)
		op = func(y, x []complex128) {
			pre(tmp, x)
			matvecs++
			mv(y, tmp)
		}
	}
	x, rr, err := cmplxmat.GMRES(n2, op, rhs, nil,
		cmplxmat.IterOpts{Tol: tol, Restart: 80, MaxIter: 6000, Check: ctx.Err})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, rr, matvecs, resilience.New(resilience.KindCanceled, "mom.krylov", ctxErr)
		}
		return nil, rr, matvecs, fmt.Errorf("mom: GMRES: %w", err)
	}
	if pre != nil {
		y := x
		x = make([]complex128, n2)
		pre(x, y)
	}
	return x, rr, matvecs, nil
}
