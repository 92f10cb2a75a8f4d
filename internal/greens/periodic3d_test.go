package greens

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"roughsim/internal/rng"
	"roughsim/internal/specfun"
	"roughsim/internal/units"
)

// termwiseSpectral is spectral summed mode by mode over all
// (2·nSpec+1)² modes, the reference for the symmetry fold. It also
// returns, per quantity (G, Gx, Gy, Gz), the largest single mode term's
// magnitude: the scale the fold's rounding is measured against.
func termwiseSpectral(g *Periodic3D, dx, dy, dz float64) (v complex128, grad [3]complex128, scale [4]float64) {
	e := g.E
	l := g.L
	for m := -g.nSpec; m <= g.nSpec; m++ {
		ktx := 2 * math.Pi * float64(m) / l
		for n := -g.nSpec; n <= g.nSpec; n++ {
			kty := 2 * math.Pi * float64(n) / l
			gamma := decayBranchSqrt(complex(ktx*ktx+kty*kty, 0) - g.K*g.K)
			phase := cmplx.Exp(complex(0, ktx*dx+kty*dy))
			zc := complex(dz, 0)
			ec := complex(e, 0)
			up := specfun.ExpMulErfc(gamma*zc, gamma/(2*ec)+zc*ec)
			dn := specfun.ExpMulErfc(-gamma*zc, gamma/(2*ec)-zc*ec)
			pref := phase / (complex(4*l*l, 0) * gamma)
			terms := [4]complex128{
				pref * (up + dn),
				complex(0, ktx) * pref * (up + dn),
				complex(0, kty) * pref * (up + dn),
				pref * gamma * (up - dn),
			}
			v += terms[0]
			for i := range grad {
				grad[i] += terms[i+1]
			}
			for i, t := range terms {
				scale[i] = math.Max(scale[i], cmplx.Abs(t))
			}
		}
	}
	return v, grad, scale
}

// ewaldMedia are the media whose evaluators take the Ewald split at the
// frequencies and periods the fold is checked at: the dielectric, and
// the conductor while its skin depth is comparable to the period.
func ewaldMedia(t *testing.T) []*Periodic3D {
	var out []*Periodic3D
	for _, fGHz := range []float64{1, 9} {
		f := fGHz * units.GHz
		for _, L := range []float64{4e-6, 5e-6} {
			for _, k := range []complex128{
				complex(units.WavenumberDielectric(f, 3.7), 0),
				units.WavenumberConductor(f, units.CopperResistivity),
			} {
				if g := NewPeriodic3D(k, L); g.UsesEwald() {
					out = append(out, g)
				}
			}
		}
	}
	if len(out) < 5 {
		t.Fatalf("only %d Ewald media", len(out))
	}
	return out
}

// TestSpectralFoldMatchesTermwiseSum checks the symmetry-folded spectral
// sum against the mode-by-mode one over 2,400 offsets with |Δz| up to
// 3L, relative to the largest single mode term (|G| itself is no scale
// for the gradient, which vanishes at Δx = 0), and checks bit for bit
// that the fold is even in Δx and Δy with an odd, on-axis-zero lateral
// gradient.
func TestSpectralFoldMatchesTermwiseSum(t *testing.T) {
	src := rng.New(11)
	for _, g := range ewaldMedia(t) {
		name := fmt.Sprintf("k=%.4g L=%g", g.K, g.L)
		var worst float64
		for s := 0; s < 400; s++ {
			dx := (src.Float64() - 0.5) * g.L
			dy := (src.Float64() - 0.5) * g.L
			dz := (2*src.Float64() - 1) * 3 * g.L
			switch s % 8 {
			case 0:
				dx = 0
			case 1:
				dy = 0
			case 2:
				dx, dy = 0, 0
			}
			v, grad := g.spectral(dx, dy, dz, true)
			wv, wgrad, scale := termwiseSpectral(g, dx, dy, dz)
			for i, d := range [4]complex128{v - wv, grad[0] - wgrad[0], grad[1] - wgrad[1], grad[2] - wgrad[2]} {
				rel := cmplx.Abs(d) / scale[i]
				worst = math.Max(worst, rel)
				if !(rel <= 1e-14) {
					t.Fatalf("%s at (%g, %g, %g): quantity %d off the termwise sum by %.3g of the largest mode term %.3g",
						name, dx, dy, dz, i, rel, scale[i])
				}
			}

			mv, mgrad := g.spectral(-dx, dy, dz, true)
			if mv != v || mgrad[0] != -grad[0] || mgrad[1] != grad[1] || mgrad[2] != grad[2] {
				t.Fatalf("%s at (%g, %g, %g): spectral(−Δx) is not the Δx-mirror image", name, dx, dy, dz)
			}
			mv, mgrad = g.spectral(dx, -dy, dz, true)
			if mv != v || mgrad[0] != grad[0] || mgrad[1] != -grad[1] || mgrad[2] != grad[2] {
				t.Fatalf("%s at (%g, %g, %g): spectral(−Δy) is not the Δy-mirror image", name, dx, dy, dz)
			}
			if (dx == 0 && grad[0] != 0) || (dy == 0 && grad[1] != 0) {
				t.Fatalf("%s at (%g, %g, %g): on-axis lateral gradient %v is not zero", name, dx, dy, dz, grad)
			}
		}
		t.Logf("%s: folded spectral sum within %.2g of the largest mode term", name, worst)
	}
}

// termwiseDirect is the conductor's direct image sum in complex
// arithmetic with the regularized self limit added at R = 0, the
// reference for ImageSum.
func termwiseDirect(g *Periodic3D, dx, dy, dz float64) (complex128, [3]complex128) {
	var sum complex128
	var grad [3]complex128
	k := g.K
	for p := -g.nSpat; p <= g.nSpat; p++ {
		for q := -g.nSpat; q <= g.nSpat; q++ {
			rx := dx - float64(p)*g.L
			ry := dy - float64(q)*g.L
			r := math.Sqrt(rx*rx + ry*ry + dz*dz)
			if r == 0 {
				sum += complex(0, 1) * k / (4 * math.Pi)
				continue
			}
			ekr := cmplx.Exp(complex(0, 1) * k * complex(r, 0))
			sum += ekr / complex(4*math.Pi*r, 0)
			dvdr := ekr * (complex(0, 1)*k*complex(r, 0) - 1) / complex(4*math.Pi*r*r, 0)
			grad[0] += dvdr * complex(rx/r, 0)
			grad[1] += dvdr * complex(ry/r, 0)
			grad[2] += dvdr * complex(dz/r, 0)
		}
	}
	return sum, grad
}

// TestDirectImageSumMatchesComplexReference checks the conductor kernel's
// real-arithmetic image sum (ImageSum) against the complex termwise sum,
// the regularized self value included, and that an unregularized lattice
// point still panics.
func TestDirectImageSumMatchesComplexReference(t *testing.T) {
	src := rng.New(12)
	for _, fGHz := range []float64{3, 9, 30} {
		g := NewPeriodic3D(units.WavenumberConductor(fGHz*units.GHz, units.CopperResistivity), 5e-6)
		if g.UsesEwald() {
			t.Fatalf("%g GHz: conductor takes the Ewald split", fGHz)
		}
		check := func(at string, v, wv complex128, grad, wgrad [3]complex128) {
			t.Helper()
			if rel := cmplx.Abs(v-wv) / cmplx.Abs(wv); !(rel <= 1e-14) {
				t.Fatalf("%g GHz at %s: G off the reference by %.3g relative", fGHz, at, rel)
			}
			var d, s float64
			for i := range grad {
				d = math.Max(d, cmplx.Abs(grad[i]-wgrad[i]))
				s = math.Max(s, cmplx.Abs(wgrad[i]))
			}
			if !(d <= 1e-14*s) {
				t.Fatalf("%g GHz at %s: ∇G off the reference by %.3g relative", fGHz, at, d/s)
			}
		}
		for s := 0; s < 300; s++ {
			dx := (src.Float64() - 0.5) * g.L
			dy := (src.Float64() - 0.5) * g.L
			dz := (2*src.Float64() - 1) * g.L
			v, grad := g.EvalGrad(dx, dy, dz)
			wv, wgrad := termwiseDirect(g, dx, dy, dz)
			check(fmt.Sprintf("(%g, %g, %g)", dx, dy, dz), v, wv, grad, wgrad)
		}
		wv, _ := termwiseDirect(g, 0, 0, 0)
		if v := g.EvalRegularized(); !(cmplx.Abs(v-wv) <= 1e-14*cmplx.Abs(wv)) {
			t.Fatalf("%g GHz: regularized self value %v, reference %v", fGHz, v, wv)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%g GHz: Eval at a lattice point did not panic", fGHz)
				}
			}()
			g.Eval(0, 0, 0)
		}()
	}
}

// complexPath returns a copy of g that runs the Ewald sum in complex
// arithmetic whatever k is: the reference for the real-k path.
func complexPath(g *Periodic3D) *Periodic3D {
	c := *g
	c.realK = false
	return &c
}

// spectralSum is the plain Floquet sum over (2n+1)² modes,
// G = Σ e^{j·k_t·Δρ}·e^{−γ|Δz|}/(2L²γ): no erfc, exponentially
// convergent for Δz ≠ 0.
func spectralSum(k complex128, l float64, n int, dx, dy, dz float64) complex128 {
	var sum complex128
	for m := -n; m <= n; m++ {
		ktx := 2 * math.Pi * float64(m) / l
		for q := -n; q <= n; q++ {
			kty := 2 * math.Pi * float64(q) / l
			gamma := decayBranchSqrt(complex(ktx*ktx+kty*kty, 0) - k*k)
			sum += cmplx.Exp(complex(0, ktx*dx+kty*dy)-gamma*complex(math.Abs(dz), 0)) / (2 * gamma)
		}
	}
	return sum / complex(l*l, 0)
}

// TestEwaldMatchesSpectralSum checks the dielectric's Ewald sum, on the
// real-k path and on the complex one, against an 81×81-mode Floquet sum
// at |Δz| ≥ 0.3L, relative to 1/(4πR) at the central image. The gap is
// the Ewald truncation, set by the first excluded spatial ring at 2.5L
// (erfc(2.5√π) ≈ 3.7e−10): it measures 1.5e−10 on both paths.
func TestEwaldMatchesSpectralSum(t *testing.T) {
	const l = 5e-6
	for _, fGHz := range []float64{1, 5, 20} {
		g := NewPeriodic3D(complex(units.WavenumberDielectric(fGHz*units.GHz, 3.7), 0), l)
		for _, e := range []*Periodic3D{g, complexPath(g)} {
			var worst float64
			for _, lat := range [][2]float64{{0, 0}, {0.2, 0}, {0.5, 0.5}, {-0.37, 0.11}, {0.45, -0.3}} {
				for _, zl := range []float64{0.3, -0.45, 0.8, 1.5, -3} {
					dx, dy, dz := lat[0]*l, lat[1]*l, zl*l
					r := math.Sqrt(dx*dx + dy*dy + dz*dz)
					rel := cmplx.Abs(e.Eval(dx, dy, dz)-spectralSum(e.K, l, 40, dx, dy, dz)) * 4 * math.Pi * r
					worst = math.Max(worst, rel)
					if !(rel <= 2e-10) {
						t.Errorf("%g GHz, real-k path %t, at (%g, %g, %g): off the spectral sum by %.3g of 1/(4πR)",
							fGHz, e.realK, dx, dy, dz, rel)
					}
				}
			}
			t.Logf("%g GHz, real-k path %t: within %.3g of 1/(4πR) of the spectral sum", fGHz, e.realK, worst)
		}
	}
}

// pathGap returns how far the real-k path is from the complex one at Δ:
// G relative to 1/(4πR₀) and ∇G relative to 1/(4πR₀²), with R₀ the
// distance to the nearest image, the largest image term's scale. It
// also returns the real-k path's G and ∇G.
func pathGap(g *Periodic3D, dx, dy, dz float64) (dv, dgrad float64, v complex128, grad [3]complex128) {
	v, grad = g.EvalGrad(dx, dy, dz)
	cv, cgrad := complexPath(g).EvalGrad(dx, dy, dz)
	wx, wy := WrapPeriod(dx, g.L), WrapPeriod(dy, g.L)
	r := math.Sqrt(wx*wx + wy*wy + dz*dz)
	dv = cmplx.Abs(v-cv) * 4 * math.Pi * r
	for i := range grad {
		dgrad = math.Max(dgrad, cmplx.Abs(grad[i]-cgrad[i])*4*math.Pi*r*r)
	}
	return dv, dgrad, v, grad
}

// TestRealKMatchesComplexPath checks the real-arithmetic Ewald sum against
// the complex one within 1e−13 of the largest image term, over offsets
// with |Δz| up to 3L and one at 30L, where the real z-factors hand over
// to ExpMulErfc and the result must stay finite. At kL = 1 the far
// images' near-real erfc series does not converge within its term cap
// and falls back to ExpMulErfc. The real path keeps G exactly even and
// ∇G's z-component exactly odd in Δz.
func TestRealKMatchesComplexPath(t *testing.T) {
	src := rng.New(13)
	for _, c := range []struct{ k, l float64 }{
		{units.WavenumberDielectric(1*units.GHz, 3.7), 5e-6},
		{units.WavenumberDielectric(5*units.GHz, 3.7), 5e-6},
		{units.WavenumberDielectric(20*units.GHz, 3.7), 4e-6},
		{1 / 5e-6, 5e-6},
	} {
		g := NewPeriodic3D(complex(c.k, 0), c.l)
		if !g.UsesEwald() || !g.realK {
			t.Fatalf("kL=%.3g: not on the real-k Ewald path", c.k*c.l)
		}
		name := fmt.Sprintf("kL=%.3g", c.k*c.l)
		if c.k*c.l == 1 {
			// The nearest image's series converges; the far ring's does not.
			b := c.k / (2 * g.E)
			near, far := 0.1*c.l*g.E, 2.5*c.l*g.E
			if _, _, ok := erfcNearReal(near, b, math.Exp(-near*near)); !ok {
				t.Fatalf("%s: the series does not converge at x = %g", name, near)
			}
			if _, _, ok := erfcNearReal(far, b, math.Exp(-far*far)); ok {
				t.Fatalf("%s: the series converges at x = %g; no fallback is exercised", name, far)
			}
		}
		var wv, wg float64
		for s := 0; s < 300; s++ {
			dx := (src.Float64() - 0.5) * g.L
			dy := (src.Float64() - 0.5) * g.L
			dz := (2*src.Float64() - 1) * 3 * g.L
			if s == 0 {
				dz = 30 * g.L
			}
			at := fmt.Sprintf("%s at (%g, %g, %g)", name, dx, dy, dz)
			dv, dg, v, grad := pathGap(g, dx, dy, dz)
			if !(dv <= 1e-13 && dg <= 1e-13) {
				t.Fatalf("%s: real-k path off the complex one by %.3g (G) and %.3g (∇G) of the largest image term", at, dv, dg)
			}
			for _, q := range [4]complex128{v, grad[0], grad[1], grad[2]} {
				if cmplx.IsNaN(q) || cmplx.IsInf(q) {
					t.Fatalf("%s: G = %v, ∇G = %v is not finite", at, v, grad)
				}
			}
			mv, mgrad := g.EvalGrad(dx, dy, -dz)
			if mv != v || mgrad[0] != grad[0] || mgrad[1] != grad[1] || mgrad[2] != -grad[2] {
				t.Fatalf("%s: G(−Δz) is not the Δz-mirror image", at)
			}
			wv, wg = math.Max(wv, dv), math.Max(wg, dg)
		}
		t.Logf("%s: real-k path within %.3g (G) and %.3g (∇G) of the largest image term", name, wv, wg)
	}
}

// FuzzRealKEwald checks the real-k Ewald sum on any offset, real k with
// 0 < kL ≤ 5 and period 10 nm to 1 cm, |Δz| ≤ 40L: no panic, a finite
// result, and agreement with the complex path within 1e−12 of the
// largest image term.
func FuzzRealKEwald(f *testing.F) {
	f.Add(1e-6, 0.7e-6, 0.4e-6, 1.2e3, 5e-6)
	f.Add(2.4e-6, -2.5e-6, 150e-6, 2e5, 5e-6)
	f.Add(0.0, 0.0, 1e-9, 6e5, 5e-6)
	f.Add(3e-3, 1e-3, -2e-3, 300.0, 1e-3)
	f.Fuzz(func(t *testing.T, dx, dy, dz, k, l float64) {
		for _, v := range []float64{dx, dy, dz, k, l} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if !(l >= 1e-8 && l <= 1e-2 && k > 0 && k*l >= 1e-6 && k*l <= 5 && math.Abs(dz) <= 40*l) {
			return
		}
		wx, wy := WrapPeriod(dx, l), WrapPeriod(dy, l)
		if math.Sqrt(wx*wx+wy*wy+dz*dz) < 1e-12*l {
			return // at a lattice point G is singular
		}
		dv, dg, v, grad := pathGap(NewPeriodic3D(complex(k, 0), l), dx, dy, dz)
		for _, q := range [4]complex128{v, grad[0], grad[1], grad[2]} {
			if cmplx.IsNaN(q) || cmplx.IsInf(q) {
				t.Fatalf("G = %v, ∇G = %v is not finite", v, grad)
			}
		}
		if !(dv <= 1e-12 && dg <= 1e-12) {
			t.Fatalf("real-k path off the complex one by %.3g (G) and %.3g (∇G) of the largest image term", dv, dg)
		}
	})
}
