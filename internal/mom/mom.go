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
	"context"
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

// nearRadius is the cell-index radius within which source integrals
// are evaluated by subdivided quadrature instead of the centroid rule.
const nearRadius = 2

// fftModelTol bounds the a-priori kernel-model error
// (2·zmax/ρmin)^{order+1} above which the FFT stage is skipped for a
// surface (the operator would converge but deviate from the dense
// discretization by more than this).
const fftModelTol = 1e-6

// fftOrder is the polynomial order of the FFT-accelerated operator that
// systems built with NewOperatorSystem solve on when admitted.
const fftOrder = 6

// Options tunes the discretization.
type Options struct {
	// NearSubdiv is the subdivision factor per axis for near cells.
	// Default 4.
	NearSubdiv int
	// Workers bounds assembly parallelism; default NumCPU.
	Workers int

	// FFTMinCells is the smallest grid (N = M² cells) for which the FFT
	// operator's build cost pays off; smaller systems solve on the dense
	// matrix. Default 400.
	FFTMinCells int
}

func (o Options) withDefaults() Options {
	if o.NearSubdiv <= 0 {
		o.NearSubdiv = 4
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.FFTMinCells <= 0 {
		o.FFTMinCells = 400
	}
	return o
}

// System is the assembled dense MoM system — or, when built with
// NewOperatorSystem, a lazily-assembled one: the FFT-accelerated
// operator stands in for the matrix and the dense form only
// materializes if a stage of the solve chain needs it — or, when built
// by a Quotient, the system folded onto the orbits of the lattice shifts
// that leave the surface invariant.
type System struct {
	N      int // unknowns per field: grid cells, or orbits of a quotient system
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
	denseFn   func(context.Context) (*cmplxmat.Matrix, error)
	denseOnce sync.Once
	denseErr  error

	// fold is the orbit structure of a quotient system (nil: the full
	// grid); see Quotient.System.
	fold *fold

	// pre is the flat inverse the GMRES stage is right-preconditioned by
	// (nil: none); see Precondition.
	pre *FlatInverse
}

// Precondition makes inv, the flat inverse of the system's grid and
// frequency, the right preconditioner of the GMRES stage of
// SolveResilient; a quotient system applies it on its orbits. It
// survives Mirror. A preconditioner only changes how fast the chain
// converges: every candidate is still verified against the
// unpreconditioned system.
func (sys *System) Precondition(inv *FlatInverse) { sys.pre = inv }

// MatVec returns the system's operator: the FFT-accelerated one when
// admitted, otherwise the dense matrix's product, materializing it
// under ctx.
func (sys *System) MatVec(ctx context.Context) (cmplxmat.MatVec, error) {
	if sys.fft != nil {
		return sys.fft.MatVec, nil
	}
	if err := sys.Materialize(ctx); err != nil {
		return nil, err
	}
	return sys.Matrix.MulVecTo, nil
}

// NewOperatorSystem builds a matrix-free System: the FFT-accelerated
// operator is constructed up front when the admissibility gates pass —
// the grid is at least Options.FFTMinCells, the a-priori kernel-model
// error is within fftModelTol, and the height range sits inside
// the operator's hard convergence bound — and the dense matrix is only
// assembled (through dense, exactly once, under the context of the
// stage that needs it) if a stage of SolveResilient needs it. When ts
// is non-nil and its Δz span
// covers the operator's fit interval, the build reads the Green's
// tables instead of running Ewald sums.
//
// A rejected surface costs nothing beyond the gate checks: the typed
// rejection is kept and surfaces in SolveReport.Attempts as a Skipped
// fft-gmres attempt, and the gmres stage materializes the matrix.
func NewOperatorSystem(s *surface.Surface, p Params, opt Options, ts *TableSet, dense func(context.Context) (*cmplxmat.Matrix, error)) *System {
	opt = opt.withDefaults()
	n := s.M * s.M
	sys := &System{N: n, RHS: RHSVector(s, p), Step: s.Step(), denseFn: dense}
	if n < opt.FFTMinCells {
		sys.fftRej = resilience.Errorf(resilience.KindInvalidInput, "mom.fftop",
			"grid of %d cells below FFT-stage threshold %d", n, opt.FFTMinCells)
		return sys
	}
	if est := fftModelEstimate(s); est > fftModelTol {
		sys.fftRej = resilience.Errorf(resilience.KindNumerical, "mom.fftop",
			"a-priori kernel-model error %.2e exceeds tolerance %.2e", est, fftModelTol)
		return sys
	}
	var op *FFTOperator
	var err error
	if ts != nil {
		op, err = NewFFTOperatorTabulated(s, p, ts, fftOrder, opt)
	}
	if op == nil {
		// No tables, or the tables don't cover the fit span: fall back to
		// exact kernel evaluation (still O(N·order) Ewald sums, far below
		// the O(N²) dense assembly).
		op, err = NewFFTOperator(s, p, fftOrder, opt)
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
// lazily-built system, whether any stage forced materialization.
func (sys *System) DenseAssembled() bool { return sys.Matrix != nil }

// Materialize assembles the dense matrix of a lazily-built system
// (no-op when it already exists), passing ctx — the context of the
// solve stage that needs the matrix — to the assembler. SolveResilient
// calls it before any stage on the dense matrix runs, so solves won by
// the FFT stage never pay the O(N²) assembly.
func (sys *System) Materialize(ctx context.Context) error {
	if sys.Matrix != nil {
		return nil
	}
	if sys.denseFn == nil {
		return resilience.Errorf(resilience.KindInvalidInput, "mom.materialize",
			"system has neither a dense matrix nor a dense assembler")
	}
	sys.denseOnce.Do(func() {
		m, err := sys.denseFn(ctx)
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
// through src1 and src2, row by row (denseRows.row) over
// Options.Workers.
func assemble(s *surface.Surface, p Params, src1, src2 kernelSource, opt Options) *System {
	d := &denseRows{rowKernel: newRowKernel(newCellGeom(s, opt.NearSubdiv), p, src1, src2)}
	d.a = cmplxmat.New(2*d.n, 2*d.n)
	parallelFor(d.n, opt.Workers, func() func(int) { return d.row })
	return &System{N: d.n, Matrix: d.a, RHS: RHSVector(s, p), Step: d.g.h}
}

// rowKernel is what the entries of an observation row read: the cell
// geometry, both media's kernels and the self terms.
type rowKernel struct {
	g              *cellGeom
	src1, src2     kernelSource
	beta           complex128
	m, n           int
	s1Self, s2Self complex128
	curv           []float64
}

func newRowKernel(g *cellGeom, p Params, src1, src2 kernelSource) *rowKernel {
	return &rowKernel{
		g: g, src1: src1, src2: src2, beta: p.Beta,
		m: g.m, n: g.m * g.m,
		s1Self: selfTerm(g.h, src1), s2Self: selfTerm(g.h, src2),
		curv: curvature(g.fxx, g.fyy, g.h),
	}
}

// blocks are the entries of one (observation, source) cell pair in the
// four N×N blocks of system (9), without the ½ jump: (1,1) −D₁,
// (1,2) β·S₁, (2,1) D₂ and (2,2) −S₂.
type blocks [4]complex128

// pair returns the entries of the pair (i, j): the analytic self cell,
// subdivided quadrature inside nearRadius and the one-point rule beyond,
// each pair reading its own kernel. A far pair's kernel read also gives
// the transposed pair (j, i)'s entries (farPair), returned as tr with
// ok set — except at an offset of exactly M/2, which wraps to −L/2 from
// both sides, where the tables' gradient is not exactly odd (see
// fitOrbits), so each order there reads its own kernel.
func (k *rowKernel) pair(i, j int) (e, tr blocks, ok bool) {
	g, m := k.g, k.m
	cx, cy, both := k.offset(i, j)
	dzc := g.f[i] - g.f[j]
	var s1, s2, d1, d2 complex128
	switch {
	case j == i:
		s1, s2 = k.s1Self, k.s2Self
		d1 = complex(k.curv[i], 0)
		d2 = d1
	case absInt(cx) <= nearRadius && absInt(cy) <= nearRadius:
		s1, s2, d1, d2 = g.nearQuadrature(k.src1, k.src2, j, cx, cy, dzc)
	default:
		// The grid kernels are indexed by the positive wrapped offset.
		var d1t, d2t complex128
		s1, d1, d1t = g.farPair(k.src1, i, j, (cx+m)%m, (cy+m)%m, dzc)
		s2, d2, d2t = g.farPair(k.src2, i, j, (cx+m)%m, (cy+m)%m, dzc)
		tr, ok = k.blocks(s1, s2, d1t, d2t), both
	}
	return k.blocks(s1, s2, d1, d2), tr, ok
}

// offset returns pair (i, j)'s wrapped cell offset, each index in
// (−m/2, m/2], and whether it is a far pair off the M/2 offset, whose
// kernel read serves both orders.
func (k *rowKernel) offset(i, j int) (cx, cy int, both bool) {
	m := k.m
	cx = wrapOffset(i%m-j%m, m)
	cy = wrapOffset(i/m-j/m, m)
	both = (absInt(cx) > nearRadius || absInt(cy) > nearRadius) && 2*cx != m && 2*cy != m
	return cx, cy, both
}

func (k *rowKernel) blocks(s1, s2, d1, d2 complex128) blocks {
	return blocks{-d1, k.beta * s1, d2, -s2}
}

// denseRows is one dense assembly in progress: the matrix and what its
// row loop reads.
type denseRows struct {
	*rowKernel
	a *cmplxmat.Matrix
}

// set writes the entries of observation cell obs and source cell src.
func (d *denseRows) set(obs, src int, e blocks) {
	n := d.n
	d.a.Set(obs, src, e[0])
	d.a.Set(obs, n+src, e[1])
	d.a.Set(n+obs, src, e[2])
	d.a.Set(n+obs, n+src, e[3])
}

// row fills observation row i. A far pair's kernel is read once for
// both of its entries (pair): row i fills its far columns j > i and
// their transposed slots in row j, and skips the far columns j < i that
// row j fills, so every slot is still written by exactly one
// computation and the matrix is bitwise deterministic in Workers.
func (d *denseRows) row(i int) {
	for j := 0; j < d.n; j++ {
		if _, _, both := d.offset(i, j); both && j < i {
			continue // row j fills this slot
		}
		e, tr, ok := d.pair(i, j)
		if ok {
			d.set(j, i, tr)
		}
		d.set(i, j, e)
	}
	d.a.Add(i, i, 0.5)
	d.a.Add(d.n+i, i, 0.5)
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
	// from SolveResilient; nil for the direct Solve path.
	Report *SolveReport
}

// Solve factors and solves the dense system.
func (sys *System) Solve() (*Solution, error) {
	x, err := cmplxmat.SolveDense(sys.Matrix, sys.RHS)
	if err != nil {
		return nil, fmt.Errorf("mom: dense solve: %w", err)
	}
	return sys.solution(x), nil
}

// solution turns the system's solved unknowns x into surface fields: a
// quotient system's orbit values are expanded to every cell, and its
// absorbed power is the orbits' weighted by the orbit size.
func (sys *System) solution(x []complex128) *Solution {
	sol := solutionFrom(x, sys.Step)
	if sys.fold != nil {
		sol.Pabs *= float64(sys.fold.orbits.Size())
		full := sys.fold.expand(x)
		sol.Psi, sol.U = full[:len(full)/2], full[len(full)/2:]
	}
	return sol
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
