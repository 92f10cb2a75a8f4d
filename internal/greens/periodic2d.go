package greens

import (
	"math"
	"math/cmplx"

	"roughsim/internal/specfun"
)

// Periodic2D evaluates the 1-D-periodic (period L in x) scalar Green's
// function of the 2-D Helmholtz operator:
// G(Δ) = Σ_p (j/4)·H₀⁽¹⁾(k·R_p), R_p = |Δ − x̂pL|, Δ = (Δx, Δz) —
// the kernel of the 2D SWM variant (Fig. 6).
//
// As in the 3-D case, the dielectric medium uses the Ewald split
// (spectral erfc series + the exponential-integral spatial series of the
// 1-D-periodic Ewald method) and the conductor medium uses the directly
// summed image series with the complex-argument Hankel function.
type Periodic2D struct {
	K complex128
	L float64
	E float64

	useEwald bool
	nSpec    int
	nSpat    int
	qMax     int
}

// NewPeriodic2D builds an evaluator for wavenumber k and period L.
func NewPeriodic2D(k complex128, L float64) *Periodic2D {
	if L <= 0 {
		panic("greens: period must be positive")
	}
	g := &Periodic2D{K: k, L: L, E: math.SqrtPi / L}
	g.useEwald = imag(k)*L < ewaldLossThreshold
	if g.useEwald {
		g.nSpec = 3
		g.nSpat = 2
		// Spatial q-series converges like (|k|/2E)^{2q}/q!.
		x := cmplx.Abs(k) / (2 * g.E)
		g.qMax = 8 + int(3*x*x)
		if g.qMax > 40 {
			g.qMax = 40
		}
	} else {
		shells := int(math.Ceil(34/(imag(k)*L))) + 1
		if shells < 1 {
			shells = 1
		}
		if shells > 6 {
			shells = 6
		}
		g.nSpat = shells
	}
	return g
}

// UsesEwald reports the selected strategy.
func (g *Periodic2D) UsesEwald() bool { return g.useEwald }

// Eval returns G(Δx, Δz) away from lattice points.
func (g *Periodic2D) Eval(dx, dz float64) complex128 {
	v, _ := g.eval(dx, dz, false, false)
	return v
}

// EvalGrad returns G and ∇_Δ G = (∂G/∂Δx, ∂G/∂Δz).
func (g *Periodic2D) EvalGrad(dx, dz float64) (complex128, [2]complex128) {
	return g.eval(dx, dz, true, false)
}

// EvalRegularized returns lim_{Δ→0}[G(Δ) + ln|Δ|/(2π)]: the smooth
// remainder after subtracting the 2-D log singularity.
func (g *Periodic2D) EvalRegularized() complex128 {
	v, _ := g.eval(0, 0, false, true)
	return v
}

func (g *Periodic2D) eval(dx, dz float64, wantGrad, regularized bool) (complex128, [2]complex128) {
	dx = WrapPeriod(dx, g.L)
	if g.useEwald {
		vs, gs := g.spatialEwald(dx, dz, wantGrad, regularized)
		vp, gp := g.spectral(dx, dz, wantGrad)
		return vs + vp, [2]complex128{gs[0] + gp[0], gs[1] + gp[1]}
	}
	return g.direct(dx, dz, wantGrad, regularized)
}

// direct sums (j/4)H₀⁽¹⁾(kR_p) over image lines.
func (g *Periodic2D) direct(dx, dz float64, wantGrad, regularized bool) (complex128, [2]complex128) {
	var sum complex128
	var grad [2]complex128
	j4 := complex(0, 0.25)
	for p := -g.nSpat; p <= g.nSpat; p++ {
		rx := dx - float64(p)*g.L
		r := math.Hypot(rx, dz)
		if r == 0 {
			if !regularized {
				panic("greens: Eval at a lattice point; use EvalRegularized")
			}
			// (j/4)H₀(kR) + ln(R)/(2π) → j/4 − (ln(k/2)+γ)/(2π) as R→0.
			sum += j4 - (cmplx.Log(g.K/2)+complex(specfun.EulerGamma, 0))/complex(2*math.Pi, 0)
			continue
		}
		kr := g.K * complex(r, 0)
		sum += j4 * Hankel0(kr)
		if wantGrad {
			// d/dr (j/4)H₀(kr) = −(j/4)·k·H₁(kr).
			dvdr := -j4 * g.K * Hankel1(kr)
			grad[0] += dvdr * complex(rx/r, 0)
			grad[1] += dvdr * complex(dz/r, 0)
		}
	}
	return sum, grad
}

// spatialEwald evaluates the 1-D-periodic Ewald spatial series
// Σ_p (1/4π)·Σ_q (k/(2E))^{2q}/q!·E_{q+1}(R_p²E²)
// (Capolino–Wilton–Johnson form); its gradient uses
// d/dx E_{q+1}(x) = −E_q(x).
func (g *Periodic2D) spatialEwald(dx, dz float64, wantGrad, regularized bool) (complex128, [2]complex128) {
	var sum complex128
	var grad [2]complex128
	kk := g.K / complex(2*g.E, 0)
	kk2 := kk * kk
	for p := -g.nSpat; p <= g.nSpat; p++ {
		rx := dx - float64(p)*g.L
		r2 := rx*rx + dz*dz
		arg := r2 * g.E * g.E
		if r2 == 0 {
			if !regularized {
				panic("greens: Eval at a lattice point; use EvalRegularized")
			}
			// q = 0 term: (1/4π)E₁(E²R²) ~ −(1/4π)(γ + ln(E²R²))
			//            = −ln R/(2π) − (γ + 2 ln E)/(4π);
			// adding back ln R/(2π) leaves −(γ + 2 ln E)/(4π).
			// q ≥ 1 terms: E_{q+1}(0) = 1/q.
			reg := complex(-(specfun.EulerGamma+2*math.Log(g.E))/(4*math.Pi), 0)
			term := complex(1, 0)
			for q := 1; q <= g.qMax; q++ {
				term *= kk2 / complex(float64(q), 0)
				reg += term / complex(4*math.Pi*float64(q), 0)
			}
			sum += reg
			continue
		}
		term := complex(1, 0) // (k/2E)^{2q}/q! for q=0
		var v complex128
		var dvdr2 complex128 // derivative w.r.t. R²
		for q := 0; q <= g.qMax; q++ {
			if q > 0 {
				term *= kk2 / complex(float64(q), 0)
			}
			eq1 := specfun.En(q+1, arg)
			v += term * complex(eq1, 0)
			if wantGrad {
				// d/dR² [E_{q+1}(E²R²)] = −E²·E_q(E²R²).
				eq := specfun.En(q, arg)
				dvdr2 -= term * complex(g.E*g.E*eq, 0)
			}
		}
		sum += v / complex(4*math.Pi, 0)
		if wantGrad {
			d := dvdr2 / complex(4*math.Pi, 0)
			grad[0] += d * complex(2*rx, 0)
			grad[1] += d * complex(2*dz, 0)
		}
	}
	return sum, grad
}

// spectral evaluates the 1-D-periodic spectral Ewald series
// Σ_m e^{j·k_m·Δx}/(4Lγ_m)·[e^{+γΔz}erfc(γ/(2E)+ΔzE) + e^{−γΔz}erfc(γ/(2E)−ΔzE)],
// γ_m = sqrt(k_m² − k²) on the decaying branch, k_m = 2πm/L.
func (g *Periodic2D) spectral(dx, dz float64, wantGrad bool) (complex128, [2]complex128) {
	var sum complex128
	var grad [2]complex128
	e := complex(g.E, 0)
	for m := -g.nSpec; m <= g.nSpec; m++ {
		km := 2 * math.Pi * float64(m) / g.L
		gamma := decayBranchSqrt(complex(km*km, 0) - g.K*g.K)
		phase := cmplx.Exp(complex(0, km*dx))
		zc := complex(dz, 0)
		up := specfun.ExpMulErfc(gamma*zc, gamma/(2*e)+zc*e)
		dn := specfun.ExpMulErfc(-gamma*zc, gamma/(2*e)-zc*e)
		pref := phase / (complex(4*g.L, 0) * gamma)
		sum += pref * (up + dn)
		if wantGrad {
			grad[0] += complex(0, km) * pref * (up + dn)
			grad[1] += pref * gamma * (up - dn)
		}
	}
	return sum, grad
}
