package cmplxmat

import (
	"errors"
	"math/cmplx"
)

// ErrSingular is returned when LU factorization meets a pivot that is
// exactly zero (the matrix is singular to working precision).
var ErrSingular = errors.New("cmplxmat: matrix is singular")

// LU holds a compact LU factorization with partial pivoting: P·A = L·U,
// with L unit-lower-triangular and U upper-triangular stored together.
type LU struct {
	lu  *Matrix
	piv []int
}

// Factor computes the LU factorization of a square matrix A. A is not
// modified.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("cmplxmat: Factor requires a square matrix")
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at/below the diagonal.
		p := k
		best := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(lu.At(i, k)); a > best {
				best, p = a, i
			}
		}
		if best == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// Solve solves A·x = b for one right-hand side, allocating x.
func (f *LU) Solve(b []complex128) []complex128 {
	n := f.lu.Rows
	if len(b) != n {
		panic("cmplxmat: LU Solve rhs length mismatch")
	}
	x := make([]complex128, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit L.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveDense factors A and solves A·x = b in one call (convenience for
// one-shot solves; reuse Factor for repeated right-hand sides).
func SolveDense(a *Matrix, b []complex128) ([]complex128, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
