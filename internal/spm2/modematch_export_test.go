package spm2

import (
	"math"
	"math/cmplx"
	"testing"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/core"
	"roughsim/internal/units"
)

// firstOrderAmplitudes solves the grating problem and returns the
// first-order Floquet amplitudes normalized per unit surface Fourier
// coefficient: R₊₁/(a/2) and T₊₁/(a/2).
func firstOrderAmplitudes(p Params, k0, a float64) (alphaA, alphaB complex128) {
	const nOrders = 6
	const nPts = 64
	n := 2*nOrders + 1
	L := 2 * math.Pi / k0
	A := cmplxmat.New(2*n, 2*n)
	rhs := make([]complex128, 2*n)
	bc1 := make([]complex128, nPts)
	bc2 := make([]complex128, nPts)
	kn := func(m int) float64 { return float64(m-nOrders) * k0 }
	b1 := func(m int) complex128 { return decaySqrt(p.K1*p.K1 - complex(kn(m)*kn(m), 0)) }
	b2 := func(m int) complex128 { return decaySqrt(p.K2*p.K2 - complex(kn(m)*kn(m), 0)) }
	project := func(samples []complex128, row0 int, col int, sign complex128) {
		for q := 0; q < n; q++ {
			var c complex128
			for jx := 0; jx < nPts; jx++ {
				x := float64(jx) / float64(nPts) * L
				c += samples[jx] * cmplx.Exp(complex(0, -kn(q)*x))
			}
			c /= complex(float64(nPts), 0)
			if col < 0 {
				rhs[row0+q] += sign * c
			} else {
				A.Add(row0+q, col, sign*c)
			}
		}
	}
	for m := 0; m < n; m++ {
		for jx := 0; jx < nPts; jx++ {
			x := float64(jx) / float64(nPts) * L
			f := a * math.Cos(k0*x)
			fp := -a * k0 * math.Sin(k0*x)
			e := cmplx.Exp(complex(0, kn(m)*x) + complex(0, 1)*b1(m)*complex(f, 0))
			bc1[jx] = e
			bc2[jx] = e * (complex(0, -fp*kn(m)) + complex(0, 1)*b1(m))
		}
		project(bc1, 0, m, 1)
		project(bc2, n, m, 1)
		for jx := 0; jx < nPts; jx++ {
			x := float64(jx) / float64(nPts) * L
			f := a * math.Cos(k0*x)
			fp := -a * k0 * math.Sin(k0*x)
			e := cmplx.Exp(complex(0, kn(m)*x) - complex(0, 1)*b2(m)*complex(f, 0))
			bc1[jx] = e
			bc2[jx] = e * (complex(0, -fp*kn(m)) - complex(0, 1)*b2(m))
		}
		project(bc1, 0, n+m, -1)
		project(bc2, n, n+m, complex(-1, 0)*p.Beta)
	}
	for jx := 0; jx < nPts; jx++ {
		x := float64(jx) / float64(nPts) * L
		f := a * math.Cos(k0*x)
		e := cmplx.Exp(complex(0, -1) * p.K1 * complex(f, 0))
		bc1[jx] = e
		bc2[jx] = e * (complex(0, -1) * p.K1)
	}
	project(bc1, 0, -1, -1)
	project(bc2, n, -1, -1)
	x, err := cmplxmat.SolveDense(A, rhs)
	if err != nil {
		panic(err)
	}
	half := complex(a/2, 0)
	return x[nOrders+1] / half, x[n+nOrders+1] / half
}

func TestFirstOrderAmplitudesMatchClosedForm(t *testing.T) {
	mat := core.PaperMaterial()
	pm := mat.Params(5 * units.GHz)
	p := Params{K1: pm.K1, K2: pm.K2, Beta: pm.Beta}
	for _, k0 := range []float64{5e5, 1e6, 2e6} {
		gotA, gotB := firstOrderAmplitudes(p, k0, 1e-10)
		wantA, wantB, _, _ := modeAmplitudes(p, k0)
		if d := cmplx.Abs(gotB-wantB) / cmplx.Abs(wantB); d > 1e-4 {
			t.Errorf("k0=%g: αB modematch %v vs closed %v (rel %g)", k0, gotB, wantB, d)
		}
		// αA is a near-cancellation (≈ jk₂Tβ(1−b₂/b₁)); compare against
		// the scale of αB rather than itself.
		if d := cmplx.Abs(gotA-wantA) / cmplx.Abs(wantB); d > 1e-4 {
			t.Errorf("k0=%g: αA modematch %v vs closed %v (rel-to-αB %g)", k0, gotA, wantA, d)
		}
	}
}
