// Package cmplxmat implements the dense complex linear algebra the MoM
// solver needs: matrices in row-major storage, LU factorization with
// partial pivoting, triangular solves, and a restarted GMRES Krylov
// solver that works against any matrix-vector product, so the
// FFT-accelerated MoM operator can plug in without materializing the
// matrix.
package cmplxmat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense complex matrix in row-major order.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("cmplxmat: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = M·x, allocating y.
func (m *Matrix) MulVec(x []complex128) []complex128 {
	y := make([]complex128, m.Rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = M·x into y (len Rows), which must not alias x.
func (m *Matrix) MulVecTo(y, x []complex128) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("cmplxmat: MulVecTo lengths %d→%d for a %dx%d matrix", len(x), len(y), m.Rows, m.Cols))
	}
	for i := range y {
		row := m.Row(i)
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// MaxAbs returns the largest element magnitude (entrywise ∞-like norm).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Norm2 returns the Euclidean norm of a complex vector.
func Norm2(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// HasNonFinite reports whether any entry of x carries a NaN or Inf
// component.
func HasNonFinite(x []complex128) bool {
	for _, v := range x {
		re, im := real(v), imag(v)
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return true
		}
	}
	return false
}

// Dot returns the conjugated inner product ⟨x, y⟩ = Σ conj(x_i)·y_i.
func Dot(x, y []complex128) complex128 {
	if len(x) != len(y) {
		panic("cmplxmat: Dot length mismatch")
	}
	var s complex128
	for i, v := range x {
		s += cmplx.Conj(v) * y[i]
	}
	return s
}

// Axpy computes y += a·x in place.
func Axpy(a complex128, x, y []complex128) {
	if len(x) != len(y) {
		panic("cmplxmat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Sub returns x − y, allocating the result.
func Sub(x, y []complex128) []complex128 {
	if len(x) != len(y) {
		panic("cmplxmat: Sub length mismatch")
	}
	out := make([]complex128, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}
