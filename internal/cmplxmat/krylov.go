package cmplxmat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// MatVec is a matrix-free operator: it must write A·x into y (both of
// length n) without retaining the slices.
type MatVec func(y, x []complex128)

// IterOpts controls the Krylov solver (GMRES).
type IterOpts struct {
	Tol     float64 // relative residual target (default 1e-10)
	MaxIter int     // total matvec budget (default 10·n, at least 200)
	Restart int     // GMRES restart length (default min(n, 60))
	// Check, when non-nil, is consulted at every GMRES restart boundary;
	// a non-nil return aborts the solve with that error and the best
	// iterate so far. Callers use it to honor context cancellation inside
	// long solves without threading a context through this package.
	Check func() error
}

func (o IterOpts) withDefaults(n int) IterOpts {
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10 * n
		if o.MaxIter < 200 {
			o.MaxIter = 200
		}
	}
	if o.Restart <= 0 {
		o.Restart = 60
	}
	if o.Restart > n {
		o.Restart = n
	}
	return o
}

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget before reaching the residual tolerance.
var ErrNoConvergence = errors.New("cmplxmat: iterative solver did not converge")

// GMRES solves A·x = b with restarted GMRES(m) using the matrix-free
// operator mv. It returns the solution and the achieved relative
// residual. x0 may be nil for a zero initial guess, whose residual is b
// itself: the first cycle then starts without a matvec.
func GMRES(n int, mv MatVec, b, x0 []complex128, opts IterOpts) ([]complex128, float64, error) {
	opts = opts.withDefaults(n)
	if len(b) != n {
		panic("cmplxmat: GMRES rhs length mismatch")
	}
	x := make([]complex128, n)
	if x0 != nil {
		copy(x, x0)
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		return x, 0, nil
	}

	m := opts.Restart
	// Arnoldi basis and Hessenberg in column-major-ish layouts.
	v := make([][]complex128, m+1)
	for i := range v {
		v[i] = make([]complex128, n)
	}
	h := make([][]complex128, m+1) // h[i][j], i row, j column
	for i := range h {
		h[i] = make([]complex128, m)
	}
	cs := make([]complex128, m)
	sn := make([]complex128, m)
	g := make([]complex128, m+1)
	w := make([]complex128, n)

	matvecs := 0
	relres := math.Inf(1)
	for matvecs < opts.MaxIter {
		if opts.Check != nil {
			if err := opts.Check(); err != nil {
				return x, relres, err
			}
		}
		// r = b − A·x
		if x0 == nil && matvecs == 0 {
			copy(w, b)
		} else {
			mv(w, x)
			matvecs++
			for i := range w {
				w[i] = b[i] - w[i]
			}
		}
		beta := Norm2(w)
		relres = beta / bnorm
		if relres <= opts.Tol {
			return x, relres, nil
		}
		inv := complex(1/beta, 0)
		for i := range w {
			v[0][i] = w[i] * inv
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = complex(beta, 0)

		j := 0
		for ; j < m && matvecs < opts.MaxIter; j++ {
			mv(w, v[j])
			matvecs++
			// Modified Gram–Schmidt.
			for i := 0; i <= j; i++ {
				hij := Dot(v[i], w)
				h[i][j] = hij
				Axpy(-hij, v[i], w)
			}
			// One reorthogonalization pass keeps the basis clean for
			// ill-conditioned MoM operators.
			for i := 0; i <= j; i++ {
				c := Dot(v[i], w)
				h[i][j] += c
				Axpy(-c, v[i], w)
			}
			hj1 := Norm2(w)
			h[j+1][j] = complex(hj1, 0)
			if hj1 > 0 {
				inv := complex(1/hj1, 0)
				for i := range w {
					v[j+1][i] = w[i] * inv
				}
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < j; i++ {
				t := cs[i]*h[i][j] + sn[i]*h[i+1][j]
				h[i+1][j] = -cmplx.Conj(sn[i])*h[i][j] + cmplx.Conj(cs[i])*h[i+1][j]
				h[i][j] = t
			}
			// New rotation eliminating h[j+1][j].
			c, s := givens(h[j][j], h[j+1][j])
			cs[j], sn[j] = c, s
			h[j][j] = c*h[j][j] + s*h[j+1][j]
			h[j+1][j] = 0
			g[j+1] = -cmplx.Conj(s) * g[j]
			g[j] = c * g[j]
			relres = cmplx.Abs(g[j+1]) / bnorm
			if relres <= opts.Tol || hj1 == 0 {
				j++
				break
			}
		}
		// Solve the j×j triangular system and update x.
		y := make([]complex128, j)
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= h[i][k] * y[k]
			}
			if h[i][i] == 0 {
				return x, relres, fmt.Errorf("%w: GMRES breakdown (zero diagonal)", ErrNoConvergence)
			}
			y[i] = s / h[i][i]
		}
		for i := 0; i < j; i++ {
			Axpy(y[i], v[i], x)
		}
		if relres <= opts.Tol {
			// Recompute the true residual to guard against drift.
			mv(w, x)
			matvecs++
			for i := range w {
				w[i] = b[i] - w[i]
			}
			relres = Norm2(w) / bnorm
			if relres <= 10*opts.Tol {
				return x, relres, nil
			}
		}
	}
	return x, relres, fmt.Errorf("%w: relres=%.3e after %d matvecs", ErrNoConvergence, relres, opts.MaxIter)
}

// givens returns a complex Givens rotation (c real ≥ 0, s complex) with
// [c s; −conj(s) conj(c)]·[a; b] = [r; 0].
func givens(a, b complex128) (c, s complex128) {
	if b == 0 {
		return 1, 0
	}
	if a == 0 {
		return 0, 1
	}
	na, nb := cmplx.Abs(a), cmplx.Abs(b)
	r := math.Hypot(na, nb)
	alpha := a / complex(na, 0)
	c = complex(na/r, 0)
	s = alpha * cmplx.Conj(b) / complex(r, 0)
	return c, s
}
