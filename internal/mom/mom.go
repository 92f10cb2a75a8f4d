// Package mom discretizes the coupled two-medium scalar surface integral
// equations (7a)/(7b) of the paper with the method of moments — pulse
// basis functions on the L×L doubly-periodic patch grid and point
// collocation at cell centers — producing the block system (9):
//
//	[ ½I − D₁ ,  β·S₁ ] [Ψ]   [Ψin]
//	[ ½I + D₂ ,  −S₂  ] [U] = [ 0 ]
//
// where S_i is the single-layer operator of the periodic Green's function
// G_i^{pq} and D_i the double-layer operator with the source-point normal
// derivative (Jacobian absorbed into U = √(1+f_x²+f_y²)·n̂·∇ψ₂ as in the
// paper). The ½ free terms are the jump constants of the double-layer
// potential; the paper's eq. (7) writes the limit form with the jump
// absorbed.
//
// Self-cell singular integrals are extracted analytically (the 1/(4πR)
// static kernel over a square cell has a closed form), near cells use
// subdivided quadrature, and far cells one-point quadrature — adequate at
// the paper's Δ = η/8 resolution and verified against analytic flat-
// surface transmission in the tests. That rule is written once
// (kernel.go) and reads the Green's functions through kernelSource, so
// exact and tabulated dense assembly, the table build and the FFT
// operator build differ only in where the kernel values come from.
package mom

import (
	"fmt"
	"math/cmplx"
	"runtime"
	"sync"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/resilience"
	"roughsim/internal/surface"
)

// Params bundles the physical inputs of a solve.
type Params struct {
	K1   complex128 // dielectric wavenumber ω√(με₁)
	K2   complex128 // conductor wavenumber (1+j)/δ
	Beta complex128 // continuity ratio β = ε₁/ε₂ = −jωε₁ρ
}

// Options tunes the discretization.
type Options struct {
	// NearRadius is the cell-index radius within which source integrals
	// are evaluated by subdivided quadrature instead of the centroid
	// rule. Default 2.
	NearRadius int
	// NearSubdiv is the subdivision factor per axis for near cells.
	// Default 4.
	NearSubdiv int
	// Workers bounds assembly parallelism; default NumCPU.
	Workers int

	// FFTOrder is the polynomial order of the FFT-accelerated operator
	// stage systems built with NewOperatorSystem may enter before the
	// dense chain. 0 selects the default (6); a negative value disables
	// the FFT stage entirely.
	FFTOrder int
	// FFTModelTol bounds the a-priori kernel-model error
	// (2·zmax/ρmin)^{order+1} above which the FFT stage is skipped for a
	// surface (the operator would converge but deviate from the dense
	// discretization by more than this). Default 1e-6.
	FFTModelTol float64
	// FFTMinCells is the smallest grid (N = M² cells) for which the FFT
	// operator's build cost pays off; smaller systems go straight to the
	// dense chain. Default 400.
	FFTMinCells int
}

func (o Options) withDefaults() Options {
	if o.NearRadius <= 0 {
		o.NearRadius = 2
	}
	if o.NearSubdiv <= 0 {
		o.NearSubdiv = 4
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.FFTOrder == 0 {
		o.FFTOrder = 6
	}
	if o.FFTModelTol <= 0 {
		o.FFTModelTol = 1e-6
	}
	if o.FFTMinCells <= 0 {
		o.FFTMinCells = 400
	}
	return o
}

// System is the assembled dense MoM system — or, when built with
// NewOperatorSystem, a lazily-assembled one: the FFT-accelerated
// operator stands in for the matrix and the dense form only
// materializes if a dense fallback stage actually runs.
type System struct {
	N      int // surface unknowns per field (grid cells)
	Matrix *cmplxmat.Matrix
	RHS    []complex128
	Step   float64 // grid spacing h

	// Lazy-assembly state (set by NewOperatorSystem; zero for the eager
	// Assemble/AssembleTabulated paths): fft is the admitted
	// FFT-accelerated operator, fftRej the typed rejection when the
	// surface was not admitted, denseFn assembles the dense matrix on
	// first demand.
	fft       *FFTOperator
	fftRej    error
	denseFn   func() (*cmplxmat.Matrix, error)
	denseOnce sync.Once
	denseErr  error
}

// NewOperatorSystem builds a matrix-free System: the FFT-accelerated
// operator is constructed up front when the admissibility gates pass —
// the grid is at least Options.FFTMinCells, the a-priori kernel-model
// error is within Options.FFTModelTol, and the height range sits inside
// the operator's hard convergence bound — and the dense matrix is only
// assembled (through dense, exactly once) if a dense fallback stage of
// SolveResilient actually runs. When ts is non-nil and its Δz span
// covers the operator's fit interval, the build reads the Green's
// tables instead of running Ewald sums.
//
// A rejected surface costs nothing beyond the gate checks: the typed
// rejection is kept and surfaces in SolveReport.Attempts as a Skipped
// fft-gmres attempt, and the first dense stage materializes the matrix.
func NewOperatorSystem(s *surface.Surface, p Params, opt Options, ts *TableSet, dense func() (*cmplxmat.Matrix, error)) *System {
	opt = opt.withDefaults()
	n := s.M * s.M
	sys := &System{N: n, RHS: RHSVector(s, p), Step: s.Step(), denseFn: dense}
	if opt.FFTOrder < 0 {
		return sys
	}
	if n < opt.FFTMinCells {
		sys.fftRej = resilience.Errorf(resilience.KindInvalidInput, "mom.fftop",
			"grid of %d cells below FFT-stage threshold %d", n, opt.FFTMinCells)
		return sys
	}
	if est := fftModelEstimate(s, opt); est > opt.FFTModelTol {
		sys.fftRej = resilience.Errorf(resilience.KindNumerical, "mom.fftop",
			"a-priori kernel-model error %.2e exceeds tolerance %.2e", est, opt.FFTModelTol)
		return sys
	}
	var op *FFTOperator
	var err error
	if ts != nil {
		op, err = NewFFTOperatorTabulated(s, p, ts, opt.FFTOrder, opt)
	}
	if op == nil {
		// No tables, or the tables don't cover the fit span: fall back to
		// exact kernel evaluation (still O(N·order) Ewald sums, far below
		// the O(N²) dense assembly).
		op, err = NewFFTOperator(s, p, opt.FFTOrder, opt)
	}
	if err != nil {
		sys.fftRej = err
		return sys
	}
	sys.fft = op
	return sys
}

// FFTAdmitted reports whether the system carries an FFT-accelerated
// operator stage.
func (sys *System) FFTAdmitted() bool { return sys.fft != nil }

// FFTRejection returns the typed reason the FFT stage was not admitted
// (nil when admitted, or when the system was never built for it).
func (sys *System) FFTRejection() error { return sys.fftRej }

// DenseAssembled reports whether the dense matrix exists — for a
// lazily-built system, whether any dense fallback stage forced
// materialization.
func (sys *System) DenseAssembled() bool { return sys.Matrix != nil }

// Materialize assembles the dense matrix of a lazily-built system
// (no-op when it already exists). SolveResilient calls it before any
// dense stage runs, so solves won by the FFT stage never pay the O(N²)
// assembly.
func (sys *System) Materialize() error {
	if sys.Matrix != nil {
		return nil
	}
	if sys.denseFn == nil {
		return resilience.Errorf(resilience.KindInvalidInput, "mom.materialize",
			"system has neither a dense matrix nor a dense assembler")
	}
	sys.denseOnce.Do(func() {
		m, err := sys.denseFn()
		if err != nil {
			sys.denseErr = err
			return
		}
		sys.Matrix = m
	})
	return sys.denseErr
}

// Assemble builds the dense 2N×2N system for a surface realization,
// evaluating the kernels exactly: the reference for AssembleTabulated.
func Assemble(s *surface.Surface, p Params, opt Options) *System {
	opt = opt.withDefaults()
	src1, src2 := exactSources(s, p, opt)
	return assemble(s, p, src1, src2, opt)
}

// assemble builds the dense system reading the two media's kernels
// through src1 and src2: the analytic self cell, subdivided quadrature
// inside NearRadius and the one-point rule beyond, row by row over
// Options.Workers.
func assemble(s *surface.Surface, p Params, src1, src2 kernelSource, opt Options) *System {
	g := newCellGeom(s, opt.NearSubdiv)
	m := s.M
	n := m * m
	a := cmplxmat.New(2*n, 2*n)
	s1Self, s2Self := selfTerm(g.h, src1), selfTerm(g.h, src2)
	curv := CurvatureDiagonal(s)
	parallelFor(n, opt.Workers, func() func(int) {
		return func(i int) {
			iy, ix := i/m, i%m
			row1 := a.Row(i)
			row2 := a.Row(n + i)
			for j := 0; j < n; j++ {
				cx := wrapOffset(ix-j%m, m)
				cy := wrapOffset(iy-j/m, m)
				dzc := s.H[i] - s.H[j]
				var s1, s2, d1, d2 complex128
				switch {
				case j == i:
					s1, s2 = s1Self, s2Self
					d1 = complex(curv[i], 0)
					d2 = d1
				case absInt(cx) <= opt.NearRadius && absInt(cy) <= opt.NearRadius:
					s1, s2, d1, d2 = g.nearQuadrature(src1, src2, j, cx, cy, dzc)
				default:
					// The grid kernels are indexed by the positive
					// wrapped offset.
					s1, d1 = g.farPoint(src1, j, (cx+m)%m, (cy+m)%m, dzc)
					s2, d2 = g.farPoint(src2, j, (cx+m)%m, (cy+m)%m, dzc)
				}
				// Block (1,1): ½I − D₁ ; block (1,2): β·S₁.
				row1[j] = -d1
				row1[n+j] = p.Beta * s1
				// Block (2,1): ½I + D₂ ; block (2,2): −S₂.
				row2[j] = d2
				row2[n+j] = -s2
			}
			row1[i] += 0.5
			row2[i] += 0.5
		}
	})
	return &System{N: n, Matrix: a, RHS: RHSVector(s, p), Step: g.h}
}

// Solution carries the solved surface fields.
type Solution struct {
	Psi []complex128 // ψ at cell centers
	U   []complex128 // Jacobian-weighted normal derivative of ψ₂
	// Pabs is the absorbed power functional of eq. (10):
	// (h²/2)·Σ Re{ψ*·u} (up to the constant ρ factor, which cancels in
	// the Pr/Ps ratio).
	Pabs float64
	// Report carries the per-stage accounting when the solution came
	// from SolveResilient; nil for the direct Solve/SolveGMRES paths.
	Report *SolveReport
}

// Solve factors and solves the dense system.
func (sys *System) Solve() (*Solution, error) {
	x, err := cmplxmat.SolveDense(sys.Matrix, sys.RHS)
	if err != nil {
		return nil, fmt.Errorf("mom: dense solve: %w", err)
	}
	return solutionFrom(x, sys.Step), nil
}

// SolveGMRES solves the system iteratively with the dense matvec —
// the reference iterative path (the FFT-accelerated operator plugs in
// the same way through cmplxmat.GMRES).
func (sys *System) SolveGMRES(tol float64) (*Solution, float64, error) {
	n2 := 2 * sys.N
	mv := func(y, x []complex128) {
		copy(y, sys.Matrix.MulVec(x))
	}
	x, rr, err := cmplxmat.GMRES(n2, mv, sys.RHS, nil, cmplxmat.IterOpts{Tol: tol, Restart: 80, MaxIter: 4000})
	if err != nil {
		return nil, rr, fmt.Errorf("mom: GMRES: %w", err)
	}
	return solutionFrom(x, sys.Step), rr, nil
}

// solutionFrom splits a solved x = [Ψ; U] on a grid of step h and
// evaluates its absorbed power.
func solutionFrom(x []complex128, h float64) *Solution {
	n := len(x) / 2
	sol := &Solution{Psi: x[:n], U: x[n:]}
	var p float64
	for i := 0; i < n; i++ {
		ps := sol.Psi[i]
		u := sol.U[i]
		p += real(ps)*real(u) + imag(ps)*imag(u) // Re{ψ*·u}
	}
	sol.Pabs = h * h / 2 * p
	return sol
}

// RHSVector returns the incident-field right-hand side of the SWM
// system for surf: e^{−jk₁·f_i} on the ψ block, zero on the u block —
// the vector dense assembly and the FFT operator both use. It is the
// only frequency-dependent part of the system outside the matrix, so the
// batched sweep engine recomputes it exactly at frequencies whose matrix
// is interpolated.
func RHSVector(s *surface.Surface, p Params) []complex128 {
	rhs := make([]complex128, 2*len(s.H))
	for i, z := range s.H {
		rhs[i] = cmplx.Exp(complex(0, -1) * p.K1 * complex(z, 0))
	}
	return rhs
}

// FlatTransmission returns the analytic flat-interface solution of the
// two-medium scalar problem under unit normal incidence:
// reflection R = (1−ζ)/(1+ζ) and transmission T = 2/(1+ζ) with
// ζ = β·k₂/k₁. The analytic absorbed power per area is
// |T|²·Re{−j·k₂}/2 = |T|²/(2δ).
func FlatTransmission(p Params) (refl, trans complex128) {
	zeta := p.Beta * p.K2 / p.K1
	return (1 - zeta) / (1 + zeta), 2 / (1 + zeta)
}

// FlatPabsAnalytic returns the analytic eq.-(10) functional for a flat
// patch of area L²: (L²/2)·|T|²·Re{−j·k₂}.
func FlatPabsAnalytic(p Params, L float64) float64 {
	_, t := FlatTransmission(p)
	mag := real(t)*real(t) + imag(t)*imag(t)
	return L * L / 2 * mag * real(complex(0, -1)*p.K2)
}
