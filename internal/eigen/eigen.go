// Package eigen implements the real symmetric eigensolvers used by the
// Karhunen–Loève expansion (dense covariance matrices) and by the
// Golub–Welsch construction of Gaussian quadrature rules (symmetric
// tridiagonal Jacobi matrices).
package eigen

import (
	"errors"
	"math"
	"sort"
)

// SymmetricJacobi diagonalizes a dense symmetric n×n matrix given in
// row-major storage, returning eigenvalues in descending order and the
// corresponding orthonormal eigenvectors as rows of the second return
// (vecs[k] is the eigenvector for vals[k]).
//
// The cyclic Jacobi rotation method is O(n³) per sweep but bullet-proof
// for the modest (n ≤ a few thousand) covariance matrices the KL
// expansion produces.
func SymmetricJacobi(a []float64, n int) (vals []float64, vecs [][]float64, err error) {
	if len(a) != n*n {
		return nil, nil, errors.New("eigen: matrix storage length mismatch")
	}
	// Work on a copy.
	m := append([]float64(nil), a...)
	// Symmetry check (cheap insurance against assembly bugs upstream).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Abs(m[i*n+j] - m[j*n+i])
			scale := math.Abs(m[i*n+j]) + math.Abs(m[j*n+i]) + 1
			if d > 1e-9*scale {
				return nil, nil, errors.New("eigen: matrix is not symmetric")
			}
			// Enforce exact symmetry so rotations stay consistent.
			avg := 0.5 * (m[i*n+j] + m[j*n+i])
			m[i*n+j], m[j*n+i] = avg, avg
		}
	}
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	offdiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += m[i*n+j] * m[i*n+j]
			}
		}
		return math.Sqrt(s)
	}
	norm := 0.0
	for _, x := range m {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	tol := 1e-14 * norm

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offdiag() <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*n+q]
				if math.Abs(apq) <= tol/float64(n) {
					continue
				}
				app, aqq := m[p*n+p], m[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation J(p,q,θ) on both sides of m.
				for k := 0; k < n; k++ {
					akp, akq := m[k*n+p], m[k*n+q]
					m[k*n+p] = c*akp - s*akq
					m[k*n+q] = s*akp + c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := m[p*n+k], m[q*n+k]
					m[p*n+k] = c*apk - s*aqk
					m[q*n+k] = s*apk + c*aqk
				}
				// Accumulate eigenvectors (columns of V).
				for k := 0; k < n; k++ {
					vkp, vkq := v[k*n+p], v[k*n+q]
					v[k*n+p] = c*vkp - s*vkq
					v[k*n+q] = s*vkp + c*vkq
				}
			}
		}
	}

	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m[i*n+i]
	}
	// Sort descending, carrying eigenvectors.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	outVals := make([]float64, n)
	vecs = make([][]float64, n)
	for r, id := range idx {
		outVals[r] = vals[id]
		vec := make([]float64, n)
		for k := 0; k < n; k++ {
			vec[k] = v[k*n+id]
		}
		vecs[r] = vec
	}
	return outVals, vecs, nil
}

// TridiagQL computes all eigenvalues and (optionally) eigenvectors of a
// symmetric tridiagonal matrix with diagonal d (length n) and
// sub-diagonal e (length n, e[n−1] unused), using the QL algorithm with
// implicit shifts. On return d holds eigenvalues (unordered) and, if z is
// non-nil (an n×n row-major identity on input), z columns hold the
// eigenvectors. d and e are modified in place.
func TridiagQL(d, e []float64, z []float64, n int) error {
	if len(d) < n || len(e) < n {
		return errors.New("eigen: TridiagQL slice lengths")
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-16*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 50 {
				return errors.New("eigen: TridiagQL failed to converge")
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			sg := r
			if g < 0 {
				sg = -r
			}
			g = d[m] - d[l] + e[l]/(g+sg)
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if z != nil {
					for k := 0; k < n; k++ {
						f := z[k*n+i+1]
						z[k*n+i+1] = s*z[k*n+i] + c*f
						z[k*n+i] = c*z[k*n+i] - s*f
					}
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}
