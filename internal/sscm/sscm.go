// Package sscm implements the spectral stochastic collocation method of
// the paper (Sec. III-D, following Zhu et al. [9]): the loss enhancement
// factor K(ξ), viewed as a function of the truncated Karhunen–Loève
// coordinates ξ ∈ ℝ^d of the random surface, is expanded in Homogeneous
// (Wiener–Hermite) Chaos
//
//	K(ξ) ≈ Σ_{|α| ≤ p} c_α · He_α(ξ),  He_α(ξ) = Π_i He_{α_i}(ξ_i),
//
// with the coefficients determined by Smolyak sparse-grid Gauss–Hermite
// quadrature of the projection integrals c_α = E[K·He_α]/α!. The
// resulting surrogate is sampled (cheaply, no integral-equation solves)
// to produce the mean, variance and CDF of K — Fig. 7 — using an order
// of magnitude fewer solver evaluations than Monte-Carlo (Table I).
//
// The package is the method's math only: Nodes lists the collocation
// nodes, the caller evaluates K at each (every solver-backed run goes
// through internal/sweepengine), and FromValues projects the values
// onto the chaos basis.
package sscm

import (
	"fmt"

	"roughsim/internal/quadrature"
	"roughsim/internal/resilience"
	"roughsim/internal/rng"
	"roughsim/internal/specfun"
)

// PCE is a Hermite polynomial-chaos surrogate over d standard normal
// variables.
type PCE struct {
	Dim     int
	Order   int
	Indices [][]int   // multi-indices α with |α| ≤ Order
	Coeffs  []float64 // c_α, aligned with Indices
}

// multiIndices enumerates all α ∈ ℕ^d with total degree ≤ p, graded by
// degree (index 0 is α = 0).
func multiIndices(d, p int) [][]int {
	var out [][]int
	cur := make([]int, d)
	for deg := 0; deg <= p; deg++ {
		appendExactDegree(d, deg, cur, &out)
	}
	return out
}

// appendExactDegree appends all α with |α| == deg.
func appendExactDegree(d, deg int, cur []int, out *[][]int) {
	var rec func(pos, remaining int)
	rec = func(pos, remaining int) {
		if pos == d-1 {
			cur[pos] = remaining
			*out = append(*out, append([]int(nil), cur...))
			cur[pos] = 0
			return
		}
		for v := 0; v <= remaining; v++ {
			cur[pos] = v
			rec(pos+1, remaining-v)
		}
		cur[pos] = 0
	}
	if d == 0 {
		return
	}
	rec(0, deg)
}

// Eval evaluates the surrogate at ξ.
func (p *PCE) Eval(xi []float64) float64 {
	if len(xi) != p.Dim {
		panic(fmt.Sprintf("sscm: PCE dim %d, got %d coords", p.Dim, len(xi)))
	}
	var s float64
	for t, alpha := range p.Indices {
		c := p.Coeffs[t]
		if c == 0 {
			continue
		}
		term := c
		for i, ai := range alpha {
			if ai > 0 {
				term *= specfun.HermiteProb(ai, xi[i])
			}
		}
		s += term
	}
	return s
}

// Mean returns E[K] = c₀.
func (p *PCE) Mean() float64 { return p.Coeffs[0] }

// Variance returns Var[K] = Σ_{α≠0} c_α²·α!.
func (p *PCE) Variance() float64 {
	var v float64
	for t := 1; t < len(p.Indices); t++ {
		c := p.Coeffs[t]
		if c == 0 {
			continue
		}
		fact := 1.0
		for _, ai := range p.Indices[t] {
			fact *= specfun.Factorial(ai)
		}
		v += c * c * fact
	}
	return v
}

// Sample draws n surrogate samples using the deterministic stream seed.
func (p *PCE) Sample(n int, seed uint64) []float64 {
	src := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Eval(src.NormVec(p.Dim))
	}
	return out
}

// Result is a fitted collocation surrogate.
type Result struct {
	PCE *PCE
	// Points is the number of collocation (solver) evaluations — the
	// quantity Table I reports.
	Points int
	// Coeffs is the fitted PC coefficient vector c_α, aligned with
	// PCE.Indices (it aliases PCE.Coeffs). Exported so callers can
	// persist the surrogate or re-interpolate the coefficients across
	// frequency (the broadband surrogate registry does both) without
	// reaching into the PCE.
	Coeffs []float64
	// Mean is E[K] = c₀ and Variance is Var[K] = Σ_{α≠0} c_α²·α!, both
	// computed from the coefficients at fit time.
	Mean     float64
	Variance float64
}

// Nodes returns the collocation nodes ξ of the (d, order) Smolyak
// Gauss–Hermite grid (order 1 ⇒ the paper's "1st-SSCM", 2 ⇒
// "2nd-SSCM") in the grid's deterministic order — the ξ each value
// passed to FromValues must correspond to. The caller evaluates K at
// every node; the sweep engine does so for every SSCM run in the
// repository.
func Nodes(d, order int) ([][]float64, error) {
	if d <= 0 || order < 0 {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "sscm.Nodes",
			"invalid d=%d order=%d", d, order)
	}
	grid := quadrature.SmolyakHermite(d, order)
	out := make([][]float64, grid.Len())
	for i, gp := range grid.Points {
		out[i] = gp.X
	}
	return out, nil
}

// FromValues builds the order-p PCE from node values aligned with
// Nodes(d, order): the coefficients c_α = E[K·He_α]/α! by sparse-grid
// quadrature. The projection needs every node, so there is no partial
// result. It is a pure function of the values: equal values give
// bitwise-identical coefficients, however they were scheduled.
func FromValues(d, order int, vals []float64) (*Result, error) {
	if d <= 0 || order < 0 {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "sscm.FromValues",
			"invalid d=%d order=%d", d, order)
	}
	grid := quadrature.SmolyakHermite(d, order)
	if len(vals) != grid.Len() {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "sscm.FromValues",
			"got %d values for a %d-node grid", len(vals), grid.Len())
	}
	pce := &PCE{Dim: d, Order: order, Indices: multiIndices(d, order)}
	pce.Coeffs = make([]float64, len(pce.Indices))
	for t, alpha := range pce.Indices {
		var num float64
		for i, gp := range grid.Points {
			he := 1.0
			for q, aq := range alpha {
				if aq > 0 {
					he *= specfun.HermiteProb(aq, gp.X[q])
				}
			}
			num += gp.W * vals[i] * he
		}
		fact := 1.0
		for _, aq := range alpha {
			fact *= specfun.Factorial(aq)
		}
		pce.Coeffs[t] = num / fact
	}
	return &Result{
		PCE:      pce,
		Points:   grid.Len(),
		Coeffs:   pce.Coeffs,
		Mean:     pce.Mean(),
		Variance: pce.Variance(),
	}, nil
}

// GridSize returns the number of collocation points a (d, order) run
// would need — the Table I accounting without running any solver.
func GridSize(d, order int) int {
	return quadrature.SmolyakHermite(d, order).Len()
}
