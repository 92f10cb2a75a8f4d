// Package quadrature builds the numerical integration rules used across
// roughsim: Gauss–Legendre (PSD integrals of the SPM2 baseline),
// Gauss–Hermite for the standard normal weight (stochastic collocation),
// full tensor grids, and Smolyak sparse grids —
// the sampling-point engine of the SSCM solver (Table I of the paper).
package quadrature

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"roughsim/internal/eigen"
)

// Rule1D is a one-dimensional quadrature rule: ∫ f(x) w(x) dx ≈ Σ Wᵢ f(Xᵢ).
type Rule1D struct {
	X []float64
	W []float64
}

// golubWelsch computes nodes and weights from the symmetric Jacobi
// matrix of a three-term recurrence p_{k+1} = (x−a_k)p_k − b_k p_{k−1},
// where b_k > 0 and mu0 = ∫ w(x) dx.
func golubWelsch(a, b []float64, mu0 float64) Rule1D {
	n := len(a)
	d := append([]float64(nil), a...)
	e := make([]float64, n)
	for k := 1; k < n; k++ {
		e[k] = math.Sqrt(b[k])
	}
	z := make([]float64, n*n)
	for i := 0; i < n; i++ {
		z[i*n+i] = 1
	}
	if err := eigen.TridiagQL(d, e, z, n); err != nil {
		panic(fmt.Sprintf("quadrature: Golub–Welsch eigen failure: %v", err))
	}
	r := Rule1D{X: make([]float64, n), W: make([]float64, n)}
	// Sort nodes ascending, weights from first eigenvector components.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d[idx[j]] < d[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	for r2, id := range idx {
		r.X[r2] = d[id]
		v0 := z[0*n+id]
		r.W[r2] = mu0 * v0 * v0
	}
	return r
}

// GaussLegendre returns the n-point Gauss–Legendre rule on [−1, 1].
func GaussLegendre(n int) Rule1D {
	r := legendre(n)
	return Rule1D{X: slices.Clone(r.X), W: slices.Clone(r.W)}
}

// legendreRules maps a point count n to its Gauss–Legendre rule on
// [−1, 1]; the rules are shared and read-only.
var legendreRules sync.Map

// legendre returns the shared n-point Gauss–Legendre rule on [−1, 1],
// running the eigensolve once per n.
func legendre(n int) Rule1D {
	if r, ok := legendreRules.Load(n); ok {
		return r.(Rule1D)
	}
	if n <= 0 {
		panic("quadrature: GaussLegendre needs n ≥ 1")
	}
	a := make([]float64, n)
	b := make([]float64, n)
	for k := 1; k < n; k++ {
		fk := float64(k)
		b[k] = fk * fk / (4*fk*fk - 1)
	}
	r, _ := legendreRules.LoadOrStore(n, golubWelsch(a, b, 2))
	return r.(Rule1D)
}

// GaussLegendreOn returns the n-point Gauss–Legendre rule mapped to
// [lo, hi].
func GaussLegendreOn(n int, lo, hi float64) Rule1D {
	r := legendre(n)
	half := (hi - lo) / 2
	mid := (hi + lo) / 2
	out := Rule1D{X: make([]float64, n), W: make([]float64, n)}
	for i := range r.X {
		out.X[i] = mid + half*r.X[i]
		out.W[i] = half * r.W[i]
	}
	return out
}

// GaussHermiteProb returns the n-point rule for the standard normal
// weight exp(−x²/2)/√(2π): the natural rule for expectations over iid
// standard normal KL coordinates.
func GaussHermiteProb(n int) Rule1D {
	if n <= 0 {
		panic("quadrature: GaussHermiteProb needs n ≥ 1")
	}
	a := make([]float64, n)
	b := make([]float64, n)
	for k := 1; k < n; k++ {
		b[k] = float64(k)
	}
	return symmetrize(golubWelsch(a, b, 1))
}

// symmetrize makes a rule for an even weight exactly symmetric: the
// eigensolver leaves each ± node pair a few ulps apart in magnitude and
// the centre node at ~1e−17, so every pair takes the mean of its
// magnitudes and of its weights, and the centre node is set to 0. A grid
// built from such rules is closed under bitwise negation, which the
// sweep engine's mirror pairs rely on.
func symmetrize(r Rule1D) Rule1D {
	n := len(r.X)
	for i := 0; i < n/2; i++ {
		j := n - 1 - i
		x := (r.X[j] - r.X[i]) / 2
		w := (r.W[i] + r.W[j]) / 2
		r.X[i], r.X[j] = -x, x
		r.W[i], r.W[j] = w, w
	}
	if n%2 == 1 {
		r.X[n/2] = 0
	}
	return r
}

// Integrate applies a rule to a function.
func (r Rule1D) Integrate(f func(float64) float64) float64 {
	var s float64
	for i, x := range r.X {
		s += r.W[i] * f(x)
	}
	return s
}
