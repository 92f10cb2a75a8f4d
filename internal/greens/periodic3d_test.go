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
