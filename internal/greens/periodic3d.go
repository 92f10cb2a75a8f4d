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
//     modes reduce to 10 z-factors with real cosine phases. For a real
//     k (the lossless dielectric) both parts run in real arithmetic
//     except the (0,0) mode: see spatialImageReal and zFactor.
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

	// realK selects the real-arithmetic Ewald sum (spatialImageReal,
	// zFactor); NewPeriodic3D sets it for a real k.
	realK bool
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
		// |k_t| = 2π·n/L and E = √π/L give exp(−π·n²), so the first
		// excluded mode, n = 4, is below 1e−21. Spatial terms decay like
		// erfc(R·E): with two shells the first excluded image is at
		// R ≥ 2.5L, where erfc(2.5√π) ≈ 3.7e−10. That ring sets the
		// truncation: G is within 1.5e−10 of 1/(4πR) of a pure
		// spectral sum at |Δz| ≥ 0.3L, 1–20 GHz, L = 5 µm
		// (TestEwaldMatchesSpectralSum). A third shell would move every
		// dielectric value by about that much.
		g.nSpec = 3
		g.nSpat = 2
		g.realK = imag(k) == 0
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
//
// For a real k the images off the lattice point take spatialImageReal,
// with b = k/(2E) and (4E/√π)·e^{b²} computed once per call.
func (g *Periodic3D) spatialEwald(dx, dy, dz float64, wantGrad, regularized bool) (complex128, [3]complex128) {
	var sum complex128
	var grad [3]complex128
	var b, gauss float64
	if g.realK {
		b = real(g.K) / (2 * g.E)
		gauss = 4 * g.E / math.SqrtPi * math.Exp(b*b)
	}
	for p := -g.nSpat; p <= g.nSpat; p++ {
		for q := -g.nSpat; q <= g.nSpat; q++ {
			rx := dx - float64(p)*g.L
			ry := dy - float64(q)*g.L
			var v complex128
			var gr [3]complex128
			var singular bool
			if r := math.Sqrt(rx*rx + ry*ry + dz*dz); g.realK && r != 0 {
				v, gr = g.spatialImageReal(rx, ry, dz, r, b, gauss, wantGrad)
			} else {
				v, gr, singular = g.spatialImage(rx, ry, dz, wantGrad)
			}
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

// spatialImageReal is spatialImage at distance r > 0 for a real k, given
// b = k/(2E) and gauss = (4E/√π)·e^{b²}. e^{−jkR}·erfc(RE − jb) is the
// conjugate of P = e^{jkR}·erfc(RE + jb), so the term is Re(P)/(4πR)
// and F′(R) = −2k·Im(P) − gauss·e^{−R²E²}: one erfc per image, from
// erfcNearReal (which shares e^{−R²E²}) or, where that series is too
// long, ExpMulErfc.
func (g *Periodic3D) spatialImageReal(rx, ry, dz, r, b, gauss float64, wantGrad bool) (complex128, [3]complex128) {
	var grad [3]complex128
	k := real(g.K)
	x := r * g.E
	gx := math.Exp(-x * x)
	var pr, pi float64
	if er, ei, ok := erfcNearReal(x, b, gx); ok {
		s, c := math.Sincos(k * r)
		pr, pi = c*er-s*ei, s*er+c*ei
	} else {
		p := specfun.ExpMulErfc(complex(0, k*r), complex(x, b))
		pr, pi = real(p), imag(p)
	}
	v := pr / (4 * math.Pi * r)
	if wantGrad {
		dFdR := -2*k*pi - gauss*gx
		dvdr := (dFdR*r - 2*pr) / (8 * math.Pi * r * r)
		grad[0] = complex(dvdr*(rx/r), 0)
		grad[1] = complex(dvdr*(ry/r), 0)
		grad[2] = complex(dvdr*(dz/r), 0)
	}
	return complex(v, 0), grad
}

// erfcSeriesTerms caps erfcNearReal's series. For x ≫ 1 the terms fall
// like (2bx)ⁿ/n!, with 2bx = kR at x = RE, so the cap also keeps the
// partial sums from cancelling: the series converges up to kR ≈ 1.2–1.7
// (b from 0.05 to 0.28), far above the dielectric's kR ≤ 0.03 at 20 GHz.
const erfcSeriesTerms = 20

// erfcNearReal returns erfc(x + jb) for real x and b, given gx = e^{−x²},
// from the Taylor series about the real axis:
// erfc(x + jb) = erfc(x) + (2/√π)·e^{−x²}·Σ_{n≥1} (−jb)ⁿ·H_{n−1}(x)/n!,
// with the physicists' Hermite recurrence H_{n+1} = 2x·Hₙ − 2n·H_{n−1}.
// (−j)ⁿ is −j, −1, j, 1, …, so the terms come in pairs, the odd one
// imaginary and the even one real, with a sign that alternates by pair.
// ok is false if a pair has not fallen below 2⁻⁵³ of the sum within
// erfcSeriesTerms terms.
func erfcNearReal(x, b, gx float64) (re, im float64, ok bool) {
	var sr, si float64
	t := 1.0           // b^{n−1}/(n−1)!
	h0, h1 := 1.0, 2*x // H_{n−1}, Hₙ
	sign := -1.0
	for n := 1.0; n < erfcSeriesTerms; n += 2 {
		ti := t * b / n
		t = ti * b / (n + 1)
		ai, ar := ti*h0, t*h1
		si += sign * ai
		sr += sign * ar
		if math.Abs(ai)+math.Abs(ar) <= 0x1p-53*(math.Abs(sr)+math.Abs(si)) {
			c := 2 / math.SqrtPi * gx
			return math.Erfc(x) + c*sr, c * si, true
		}
		sign = -sign
		h0 = 2*x*h1 - 2*n*h0
		h1 = 2*x*h0 - 2*(n+1)*h1
	}
	return 0, 0, false
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
// z-factors and 6 Sincos for its 49 modes. For a real k every z-factor
// but (0,0)'s has a real γ and runs in real arithmetic (zFactor); the
// rest take two ExpMulErfc each. Both forms evaluate e^{−γz}·erfc(γ/2E − zE)
// as the e^{+γz} factor at −z, so G is exactly even and Gz exactly odd
// in Δz. The fold is exactly even in Δx and Δy: the gradient's lateral
// components are odd bit for bit and vanish on the axes.
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
	kr := real(g.K)
	for a := 0; a <= n; a++ {
		for b := a; b <= n; b++ {
			// f is the mode's (up + dn)/(4L²γ) and fz its (up − dn)/(4L²):
			// d/dz's erfc-derivative pieces cancel exactly, leaving
			// γ·(up − dn), whose γ cancels the prefactor's.
			var f, fz complex128
			if w := k[a]*k[a] + k[b]*k[b] - kr*kr; g.realK && w > 0 {
				gamma := math.Sqrt(w)
				up, dn := zFactor(gamma, dz, g.E), zFactor(gamma, -dz, g.E)
				f = complex((up+dn)/(real(area)*gamma), 0)
				fz = complex((up-dn)/real(area), 0)
			} else {
				gamma := decayBranchSqrt(complex(k[a]*k[a]+k[b]*k[b], 0) - g.K*g.K)
				// e^{±γz}·erfc(γ/2E ± zE), fused for stability.
				up := specfun.ExpMulErfc(gamma*zc, gamma/(2*ec)+zc*ec)
				dn := specfun.ExpMulErfc(-gamma*zc, gamma/(2*ec)-zc*ec)
				f = (up + dn) / (area * gamma)
				fz = (up - dn) / area
			}
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
				grad[2] += fz * complex(p, 0)
			}
		}
	}
	return sum, grad
}

// zFactor returns e^{γs}·erfc(γ/(2E) + sE) for a real γ > 0. Below
// y = γ/(2E) + sE = 26 it is the plain product: there e^{γs} < e^{338}
// and erfc(y) > 5e−296 are both normal numbers. Past it the product
// turns into Inf·0 for large s, so ExpMulErfc combines the exponents
// into e^{−(γ/2E)² − (sE)²}·erfcx(y), which stays finite.
func zFactor(gamma, s, e float64) float64 {
	y := gamma/(2*e) + s*e
	if y < 26 {
		return math.Exp(gamma*s) * math.Erfc(y)
	}
	return real(specfun.ExpMulErfc(complex(gamma*s, 0), complex(y, 0)))
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
