package spm2

import (
	"math"
	"math/cmplx"
	"testing"

	"roughsim/internal/core"
	"roughsim/internal/units"
)

// firstOrderAmplitudes solves the grating problem and returns the
// first-order Floquet amplitudes normalized per unit surface Fourier
// coefficient: R₊₁/(a/2) and T₊₁/(a/2).
func firstOrderAmplitudes(p Params, k0, a float64) (alphaA, alphaB complex128) {
	x := gratingAmplitudes(p, k0, a)
	n := 2*gratingOrders + 1
	half := complex(a/2, 0)
	return x[gratingOrders+1] / half, x[n+gratingOrders+1] / half
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

// TestGratingMatchesKernel: the mode-matching loss factor of a
// small-amplitude sinusoid, read as κ = (K − 1)/(a²/2), agrees with the
// closed-form Kernel to 4 digits.
func TestGratingMatchesKernel(t *testing.T) {
	pm := core.PaperMaterial().Params(5 * units.GHz)
	p := Params{K1: pm.K1, K2: pm.K2, Beta: pm.Beta}
	const a = 1e-8
	for _, k0 := range []float64{5e5, 1e6, 2e6} {
		got := (gratingLossFactor(p, k0, a) - 1) / (a * a / 2)
		if d := math.Abs(got/Kernel(p, k0) - 1); d > 1e-4 {
			t.Errorf("k0=%g: κ modematch %g vs closed %g (rel %g)", k0, got, Kernel(p, k0), d)
		}
	}
}
