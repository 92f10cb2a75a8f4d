package mom

import (
	"roughsim/internal/cmplxmat"
	"roughsim/internal/surface"
)

// Mirror pairs (DESIGN §9). The Green's function is even in Δz and so
// are its lateral derivatives, while ∂_zG is odd, and every kernel
// source carries that parity bit for bit (chebFit and fitKernels keep
// only the coefficients parity allows). Under f → −f, Δz and the local
// normal's lateral part (−f_x, −f_y) flip, so the single-layer entries
// stay and the double-layer entries change sign.

// Mirror turns sys, built for a surface s at p, into the system of the
// mirrored surface ms (ms.H = −s.H, same grid) in place, without
// re-reading a kernel: a dense matrix flips its double-layer blocks, an
// FFT operator keeps its spectral and real-space kernels and flips its
// near corrections, and the right-hand side is recomputed. A lazily built
// system whose dense matrix was never materialized takes dense as its new
// assembler; it must assemble ms. The result is bitwise identical to
// building ms directly.
func (sys *System) Mirror(ms *surface.Surface, p Params, dense func() (*cmplxmat.Matrix, error)) {
	if sys.Matrix != nil {
		mirrorDense(sys.Matrix, sys.N, CurvatureDiagonal(ms))
	} else if sys.denseFn != nil {
		sys.denseFn = dense
	}
	if sys.fft != nil {
		sys.fft.mirror(ms)
	}
	sys.RHS = RHSVector(ms, p)
}

// mirrorDense negates the off-diagonal entries of blocks (1,1) and (2,1)
// of an assembled 2n×2n system and rewrites their diagonals, ½ ∓ curv,
// from the mirrored surface's curvature diagonal curv exactly as
// assemble writes them.
func mirrorDense(a *cmplxmat.Matrix, n int, curv []float64) {
	for r := 0; r < 2*n; r++ {
		row := a.Row(r)[:n]
		for c := range row {
			row[c] = -row[c]
		}
	}
	for i, cv := range curv {
		d := complex(cv, 0)
		a.Set(i, i, -d)
		a.Add(i, i, 0.5)
		a.Set(n+i, i, d)
		a.Add(n+i, i, 0.5)
	}
}

// mirror turns the operator into the one of the mirrored surface ms in
// place: the kernel fits depend on the surface only through max|f|, which
// the mirror keeps, so only the surface factors are rebuilt and the
// near corrections' double-layer parts change sign.
func (op *FFTOperator) mirror(ms *surface.Surface) {
	fx, fy := ms.Gradients()
	op.bindSurface(ms, fx, fy)
	for k := range op.nearEntries {
		e := &op.nearEntries[k]
		e.d1, e.d2 = -e.d1, -e.d2
	}
}
