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
// near corrections, a quotient system flips its folded double-layer
// blocks (the orbits of ms are those of s), and the right-hand side is
// recomputed. A lazily built system whose dense matrix was never
// materialized will assemble it for ms. The result is bitwise identical
// to building ms directly.
func (sys *System) Mirror(ms *surface.Surface, p Params) {
	switch {
	case sys.fold != nil:
		// Folded entries are sums that start from +0, so an exactly
		// zero one is +0 in the direct build of −f too: negate as 0 − v.
		neg := func(v complex128) complex128 { return 0 - v }
		for k, v := range sys.fold.diag {
			sys.fold.diag[k] = neg(v)
		}
		mirrorDense(sys.Matrix, sys.N, sys.fold.diag, neg)
	case sys.Matrix != nil:
		curv := CurvatureDiagonal(ms)
		diag := make([]complex128, 2*sys.N)
		for i, cv := range curv {
			d := complex(cv, 0)
			diag[i], diag[sys.N+i] = -d, d
		}
		mirrorDense(sys.Matrix, sys.N, diag, func(v complex128) complex128 { return -v })
	case sys.surf != nil:
		sys.surf = ms
	}
	if sys.fft != nil {
		sys.fft.mirror(ms)
	}
	sys.RHS = RHSVector(ms, p)
	if sys.fold != nil {
		sys.RHS = sys.fold.pick(sys.RHS)
	}
}

// mirrorDense negates (by neg) the entries of blocks (1,1) and (2,1) of
// an assembled 2n×2n system — its left n columns — and rewrites their
// diagonals from the mirrored surface's diagonals before the ½ jump,
// diag[i] for block (1,1) and diag[n+i] for block (2,1), plus ½, as
// the builds write them.
func mirrorDense(a *cmplxmat.Matrix, n int, diag []complex128, neg func(complex128) complex128) {
	for r := 0; r < 2*n; r++ {
		row := a.Row(r)[:n]
		for c := range row {
			row[c] = neg(row[c])
		}
	}
	for i := 0; i < n; i++ {
		a.Set(i, i, diag[i])
		a.Add(i, i, 0.5)
		a.Set(n+i, i, diag[n+i])
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
