// Package greens evaluates the periodic scalar Green's functions of
// eq. (8): the doubly-periodic 3D Green's function used by the 3D SWM
// solver and the singly-periodic 2D Green's function used by the 2D SWM
// variant, together with their gradients and the regularized (singularity
// subtracted) self-term limits the MoM assembly needs.
//
// Two evaluation strategies are provided per the paper's Ewald reference
// [16] and the physics of the two media:
//
//   - Ewald split (spectral + spatial parts, both involving the
//     complementary error function of complex argument): exponentially
//     convergent, used for the dielectric medium where |k|·L ≪ 1. The
//     spectral part is folded by the lattice symmetry: at normal
//     incidence a mode's z-factor depends only on m² + n², so the 49
//     modes reduce to 10 z-factors with real cosine phases.
//   - Direct image sum (ImageSum, in real arithmetic): for the conductor
//     medium k = (1+j)/δ the kernel decays like exp(−R/δ) within a
//     couple of image shells, while the Ewald split suffers catastrophic
//     cancellation once |k/(2E)|² ≫ 1, so the direct sum is both faster
//     and more accurate there. The MoM Green's tables subtract its
//     central 3×3 shell as their sharp part.
//
// NewPeriodic3D picks the strategy automatically from Im(k)·L.
package greens

import (
	"math"
	"math/cmplx"

	"roughsim/internal/specfun"
)

// Periodic3D evaluates the doubly-periodic (period L in x and y) scalar
// Green's function G(Δ) = Σ_pq exp(jk·R_pq)/(4π·R_pq) with
// R_pq = |Δ − x̂pL − ŷqL|, for normal-incidence Floquet phase (the
// paper's excitation).
type Periodic3D struct {
	K complex128 // medium wavenumber
	L float64    // lattice period
	E float64    // Ewald splitting parameter

	useEwald bool
	nSpec    int // spectral modes per dimension: m,n ∈ [−nSpec, nSpec], at most maxSpec
	nSpat    int // spatial image shells: p,q ∈ [−nSpat, nSpat]
}

// maxSpec bounds nSpec: the folded spectral sum keeps its per-axis
// phases in fixed arrays.
const maxSpec = 8

// ewaldLossThreshold: above Im(k)·L ≈ 3 the direct image sum already
// converges to ~e^{−3} per shell and the Ewald split starts to lose
// digits; switch strategies there.
const ewaldLossThreshold = 3.0

// NewPeriodic3D builds an evaluator for wavenumber k and period L.
func NewPeriodic3D(k complex128, L float64) *Periodic3D {
	if L <= 0 {
		panic("greens: period must be positive")
	}
	g := &Periodic3D{K: k, L: L, E: math.SqrtPi / L}
	g.useEwald = imag(k)*L < ewaldLossThreshold
	if g.useEwald {
		// Spectral truncation: terms decay like exp(−|k_t|²/(4E²));
		// |k_t| = 2π·n/L and E = √π/L give exp(−π·n²), so n = 3 is
		// already ~1e−12. Spatial terms decay like erfc(R·E) ~
		// exp(−π·R²/L²); two shells suffice.
		g.nSpec = 3
		g.nSpat = 2
	} else {
		// Direct sum: include shells until exp(−Im(k)·R) is negligible.
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

// UsesEwald reports which strategy the evaluator selected (exposed for
// ablation benchmarks).
func (g *Periodic3D) UsesEwald() bool { return g.useEwald }

// Eval returns G(Δ). The offset must not be a lattice point (the
// function is singular there); use EvalRegularized for self terms.
func (g *Periodic3D) Eval(dx, dy, dz float64) complex128 {
	v, _ := g.eval(dx, dy, dz, false, false)
	return v
}

// EvalGrad returns G(Δ) and ∇_Δ G(Δ) (gradient with respect to the
// offset Δ = r − r′; the source-point gradient is its negative).
func (g *Periodic3D) EvalGrad(dx, dy, dz float64) (complex128, [3]complex128) {
	v, grad := g.eval(dx, dy, dz, true, false)
	return v, grad
}

// EvalRegularized returns lim_{Δ→0} [G(Δ) − 1/(4π|Δ|)]: the smooth
// remainder at the singular point, used for MoM self terms.
func (g *Periodic3D) EvalRegularized() complex128 {
	v, _ := g.eval(0, 0, 0, false, true)
	return v
}

func (g *Periodic3D) eval(dx, dy, dz float64, wantGrad, regularized bool) (complex128, [3]complex128) {
	// Reduce the lateral offset to the first period: makes periodicity
	// exact and keeps the truncated image window symmetric.
	dx = WrapPeriod(dx, g.L)
	dy = WrapPeriod(dy, g.L)
	var grad [3]complex128
	if g.useEwald {
		vs, gs := g.spatialEwald(dx, dy, dz, wantGrad, regularized)
		vp, gp := g.spectral(dx, dy, dz, wantGrad)
		for i := range grad {
			grad[i] = gs[i] + gp[i]
		}
		return vs + vp, grad
	}
	return g.direct(dx, dy, dz, regularized)
}

// direct sums the image series (conductor medium) with ImageSum, adding
// the regularized self limit at the lattice point.
func (g *Periodic3D) direct(dx, dy, dz float64, regularized bool) (complex128, [3]complex128) {
	v, grad := ImageSum(g.K, g.L, g.nSpat, dx, dy, dz)
	if dx == 0 && dy == 0 && dz == 0 {
		if !regularized {
			panic("greens: Eval at a lattice point; use EvalRegularized")
		}
		// lim (e^{jkR} − 1)/(4πR) = jk/(4π).
		v += complex(0, 1) * g.K / (4 * math.Pi)
	}
	return v, grad
}

// ImageSum returns the free-space image sum
// Σ_{|p|,|q|≤shells} e^{jkR}/(4πR), R = |Δ − x̂pL − ŷqL|, with its
// Δ-gradient, skipping an image at R = 0. The offset should be wrapped
// to the first period (WrapPeriod) so the truncated window is centered.
// It runs in real arithmetic: with k = k′ + jk″,
// e^{jkR}/(4πR) = e^{−k″R}·(cos k′R + j·sin k′R)/(4πR), and its
// R-derivative is that value times jk − 1/R.
func ImageSum(k complex128, l float64, shells int, dx, dy, dz float64) (complex128, [3]complex128) {
	kr, ki := real(k), imag(k)
	var vr, vi, gxr, gxi, gyr, gyi, gzr, gzi float64
	for p := -shells; p <= shells; p++ {
		for q := -shells; q <= shells; q++ {
			rx := dx - float64(p)*l
			ry := dy - float64(q)*l
			r := math.Sqrt(rx*rx + ry*ry + dz*dz)
			if r == 0 {
				continue
			}
			inv := 1 / r
			a := inv * (1 / (4 * math.Pi))
			if ki != 0 {
				a *= math.Exp(-ki * r)
			}
			sn, cs := math.Sincos(kr * r)
			ar, ai := a*cs, a*sn
			vr += ar
			vi += ai
			// (dv/dR)/R = v·(jk − 1/R)/R.
			c := -(ki + inv)
			dr := (ar*c - ai*kr) * inv
			di := (ar*kr + ai*c) * inv
			gxr += dr * rx
			gxi += di * rx
			gyr += dr * ry
			gyi += di * ry
			gzr += dr * dz
			gzi += di * dz
		}
	}
	return complex(vr, vi), [3]complex128{complex(gxr, gxi), complex(gyr, gyi), complex(gzr, gzi)}
}

// spatialEwald evaluates the real-space part of the Ewald split:
// Σ_pq (1/(8πR))·[e^{+jkR}·erfc(RE + jk/(2E)) + e^{−jkR}·erfc(RE − jk/(2E))],
// computed with ExpMulErfc so the exponentials never overflow.
func (g *Periodic3D) spatialEwald(dx, dy, dz float64, wantGrad, regularized bool) (complex128, [3]complex128) {
	var sum complex128
	var grad [3]complex128
	for p := -g.nSpat; p <= g.nSpat; p++ {
		for q := -g.nSpat; q <= g.nSpat; q++ {
			rx := dx - float64(p)*g.L
			ry := dy - float64(q)*g.L
			v, gr, singular := g.spatialImage(rx, ry, dz, wantGrad)
			if singular {
				if !regularized {
					panic("greens: Eval at a lattice point; use EvalRegularized")
				}
			}
			sum += v
			for i := range grad {
				grad[i] += gr[i]
			}
		}
	}
	return sum, grad
}

// spatialImage evaluates one image term of the spatial Ewald series and
// its gradient. At a lattice point it returns the regularized limit
// (singularity 1/(4πR) subtracted) and singular=true.
func (g *Periodic3D) spatialImage(rx, ry, dz float64, wantGrad bool) (complex128, [3]complex128, bool) {
	var grad [3]complex128
	k := g.K
	e := g.E
	a := complex(0, 1) * k / complex(2*e, 0) // jk/(2E)
	r := math.Sqrt(rx*rx + ry*ry + dz*dz)
	if r == 0 {
		// lim_{R→0} [(1/8πR)·F(R) − 1/(4πR)] with
		// F(R) = Σ_± e^{±jkR} erfc(RE ± a) and F(0) = 2:
		// = F′(0)/(8π) = [jk·(erfc(a) − erfc(−a)) − 4E/√π·e^{−a²}]/(8π).
		erfA := specfun.Erfc(a)
		term := complex(0, 1)*k*(2*erfA-2) - complex(4*e/math.SqrtPi, 0)*cmplx.Exp(-a*a)
		return term / complex(8*math.Pi, 0), grad, true
	}
	jkr := complex(0, 1) * k * complex(r, 0)
	re := complex(r*e, 0)
	plus := specfun.ExpMulErfc(jkr, re+a)   // e^{+jkR}·erfc(RE+a)
	minus := specfun.ExpMulErfc(-jkr, re-a) // e^{−jkR}·erfc(RE−a)
	v := (plus + minus) / complex(8*math.Pi*r, 0)
	if wantGrad {
		// d/dR of (1/(8πR))[e^{jkR}erfc(RE+a) + e^{−jkR}erfc(RE−a)]:
		// the erfc-derivative pieces combine into
		// −(4E/√π)·e^{−R²E² + k²/(4E²)} (the ±jkR phases cancel
		// against the cross terms of (RE±a)²).
		gaussTerm := complex(-4*e/math.SqrtPi, 0) *
			cmplx.Exp(complex(-r*r*e*e, 0)+k*k/complex(4*e*e, 0))
		dFdR := complex(0, 1)*k*(plus-minus) + gaussTerm
		dvdr := (dFdR*complex(r, 0) - (plus + minus)) / complex(8*math.Pi*r*r, 0)
		grad[0] = dvdr * complex(rx/r, 0)
		grad[1] = dvdr * complex(ry/r, 0)
		grad[2] = dvdr * complex(dz/r, 0)
	}
	return v, grad, false
}

// spectral evaluates the reciprocal-space part of the Ewald split:
// Σ_mn e^{j·k_t·Δρ}/(4L²γ)·[e^{+γΔz}·erfc(γ/(2E)+ΔzE) + e^{−γΔz}·erfc(γ/(2E)−ΔzE)],
// with γ = sqrt(|k_t|² − k²) on the decaying/outgoing branch.
//
// The z-factor of mode (m, n) depends only on m² + n², so the sum is
// folded by the lattice symmetry: over ±m and ±n the phases become the
// real products c_a(Δx)·c_b(Δy), with c_0 = 1 and c_a(x) = 2cos(k_a·x)
// for k_a = 2πa/L, whose x-derivative is s_a(x) = −2k_a·sin(k_a·x); and
// the classes (a, b) and (b, a) share one z-factor. nSpec = 3 needs 10
// z-factors (two ExpMulErfc each) and 6 Sincos for its 49 modes. The
// fold is exactly even in Δx and Δy: the gradient's lateral components
// are odd bit for bit and vanish on the axes.
func (g *Periodic3D) spectral(dx, dy, dz float64, wantGrad bool) (complex128, [3]complex128) {
	var sum complex128
	var grad [3]complex128
	n := g.nSpec
	var k, cx, sx, cy, sy [maxSpec + 1]float64
	cx[0], cy[0] = 1, 1
	for a := 1; a <= n; a++ {
		k[a] = 2 * math.Pi * float64(a) / g.L
		s, c := math.Sincos(k[a] * dx)
		cx[a], sx[a] = 2*c, -2*k[a]*s
		s, c = math.Sincos(k[a] * dy)
		cy[a], sy[a] = 2*c, -2*k[a]*s
	}
	zc := complex(dz, 0)
	ec := complex(g.E, 0)
	area := complex(4*g.L*g.L, 0)
	for a := 0; a <= n; a++ {
		for b := a; b <= n; b++ {
			gamma := decayBranchSqrt(complex(k[a]*k[a]+k[b]*k[b], 0) - g.K*g.K)
			// e^{±γz}·erfc(γ/2E ± zE), fused for stability.
			up := specfun.ExpMulErfc(gamma*zc, gamma/(2*ec)+zc*ec)
			dn := specfun.ExpMulErfc(-gamma*zc, gamma/(2*ec)-zc*ec)
			f := (up + dn) / (area * gamma)
			p := cx[a] * cy[b]
			if a != b {
				p += cx[b] * cy[a]
			}
			sum += f * complex(p, 0)
			if wantGrad {
				px, py := sx[a]*cy[b], cx[a]*sy[b]
				if a != b {
					px += sx[b] * cy[a]
					py += cx[b] * sy[a]
				}
				grad[0] += f * complex(px, 0)
				grad[1] += f * complex(py, 0)
				// d/dz: the erfc-derivative pieces cancel exactly,
				// leaving γ·(up − dn), whose γ cancels the prefactor's.
				grad[2] += (up - dn) / area * complex(p, 0)
			}
		}
	}
	return sum, grad
}

// WrapPeriod maps x into [−L/2, L/2).
func WrapPeriod(x, l float64) float64 {
	x = math.Mod(x, l)
	if x >= l/2 {
		x -= l
	} else if x < -l/2 {
		x += l
	}
	return x
}

// decayBranchSqrt returns sqrt(w) with the branch chosen so that
// exp(−γ·|z|) decays (Re γ > 0) or radiates outward (γ = −j·k_z with
// k_z > 0) — the physical branch for the spectral Ewald series.
func decayBranchSqrt(w complex128) complex128 {
	s := cmplx.Sqrt(w) // principal: Re ≥ 0
	if real(s) == 0 && imag(s) > 0 {
		s = -s
	}
	return s
}
