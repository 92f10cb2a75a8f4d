package mom

import (
	"roughsim/internal/cmplxmat"
	"roughsim/internal/fft"
	"roughsim/internal/resilience"
)

// FlatInverse is the exact inverse of a flat surface's system (9). A
// flat surface is translation invariant, so each of the system's four
// N×N blocks is block circulant with circulant blocks on the M×M grid:
// the 2-D DFT diagonalizes them all at once, and the system becomes one
// 2×2 symbol per lateral mode. The inverse is built from two columns of
// the system and applied with four 2-D FFTs.
//
// It is the right preconditioner of both Krylov stages of
// SolveResilient (see System.Precondition): a rough surface's system is
// the flat one plus a perturbation that vanishes with the roughness, so
// the preconditioned operator sits near the identity.
type FlatInverse struct {
	m   int
	sym [][4]complex128 // per lateral mode: the inverse symbol, row-major
}

// NewFlatInverse derives the inverse of the flat system on an m×m grid
// from its matvec mv (2m² unknowns, ψ block first). The first columns
// of the ψ and u blocks, mv(e₀) and mv(e_N), hold the first columns of
// the four circulant blocks; their 2-D DFTs are the symbols. A singular
// or non-finite symbol is a typed resilience.KindNumerical error.
func NewFlatInverse(m int, mv cmplxmat.MatVec) (*FlatInverse, error) {
	n := m * m
	e := make([]complex128, 2*n)
	cPsi := make([]complex128, 2*n)
	cU := make([]complex128, 2*n)
	e[0] = 1
	mv(cPsi, e)
	e[0], e[n] = 0, 1
	mv(cU, e)
	a := fft.Forward2D(cPsi[:n], m, m)
	c := fft.Forward2D(cPsi[n:], m, m)
	b := fft.Forward2D(cU[:n], m, m)
	d := fft.Forward2D(cU[n:], m, m)
	inv := &FlatInverse{m: m, sym: make([][4]complex128, n)}
	for k := range inv.sym {
		det := a[k]*d[k] - b[k]*c[k]
		s := [4]complex128{d[k] / det, -b[k] / det, -c[k] / det, a[k] / det}
		if cmplxmat.HasNonFinite(s[:]) { // det == 0 included
			return nil, resilience.Errorf(resilience.KindNumerical, "mom.flatinverse",
				"flat system symbol of mode %d is singular or non-finite (det %v)", k, det)
		}
		inv.sym[k] = s
	}
	return inv, nil
}

// Apply writes y = C⁻¹·x for x = [Ψ; U]: two forward transforms, a 2×2
// product per mode and two inverse transforms.
func (inv *FlatInverse) Apply(y, x []complex128) {
	m := inv.m
	n := m * m
	p := fft.Forward2D(x[:n], m, m)
	u := fft.Forward2D(x[n:2*n], m, m)
	for k, s := range inv.sym {
		p[k], u[k] = s[0]*p[k]+s[1]*u[k], s[2]*p[k]+s[3]*u[k]
	}
	copy(y[:n], fft.Inverse2D(p, m, m))
	copy(y[n:], fft.Inverse2D(u, m, m))
}
