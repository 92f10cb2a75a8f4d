package spm2

import (
	"math"
	"testing"

	"roughsim/internal/core"
	"roughsim/internal/mom"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

const um = 1e-6

func paramsAt(f float64) Params {
	m := core.PaperMaterial()
	p := m.Params(f)
	return Params{K1: p.K1, K2: p.K2, Beta: p.Beta}
}

func TestFlatLimitIsUnity(t *testing.T) {
	// Zero PSD ⇒ K = 1 exactly.
	p := paramsAt(5 * units.GHz)
	k := LossFactor(p, func(float64) float64 { return 0 }, 1e7, 32)
	if math.Abs(k-1) > 1e-12 {
		t.Fatalf("K(flat) = %g, want 1", k)
	}
}

func TestKGreaterThanOne(t *testing.T) {
	// Roughness must increase loss across the paper's frequency range.
	c := surface.NewGaussianCorr(1*um, 2*um)
	for _, fGHz := range []float64{0.5, 1, 3, 5, 9} {
		p := paramsAt(fGHz * units.GHz)
		k := LossFactorCorr(p, c, 2*um)
		if k <= 1 {
			t.Errorf("f=%g GHz: K = %g, want > 1", fGHz, k)
		}
		if k > 5 {
			t.Errorf("f=%g GHz: K = %g unphysically large", fGHz, k)
		}
	}
}

func TestKScalesWithSigmaSquared(t *testing.T) {
	// SPM2 is exactly quadratic in σ: K−1 ∝ σ².
	p := paramsAt(5 * units.GHz)
	eta := 2 * um
	k1 := LossFactorCorr(p, surface.NewGaussianCorr(0.5*um, eta), eta)
	k2 := LossFactorCorr(p, surface.NewGaussianCorr(1.0*um, eta), eta)
	ratio := (k2 - 1) / (k1 - 1)
	if math.Abs(ratio-4) > 1e-6 {
		t.Fatalf("(K−1) ratio for 2× σ = %g, want 4 (quadratic)", ratio)
	}
}

func TestKIncreasesWithFrequency(t *testing.T) {
	c := surface.NewGaussianCorr(1*um, 2*um)
	prev := 1.0
	for _, fGHz := range []float64{0.5, 1, 2, 4, 8} {
		p := paramsAt(fGHz * units.GHz)
		k := LossFactorCorr(p, c, 2*um)
		if k < prev {
			t.Fatalf("K not increasing with f: K(%g GHz) = %g < %g", fGHz, k, prev)
		}
		prev = k
	}
}

func TestRougherSurfaceLosesMore(t *testing.T) {
	// At fixed σ, smaller η (steeper slopes) means more extra loss —
	// the trend of Fig. 3.
	p := paramsAt(5 * units.GHz)
	var ks []float64
	for _, eta := range []float64{1 * um, 2 * um, 3 * um} {
		ks = append(ks, LossFactorCorr(p, surface.NewGaussianCorr(1*um, eta), eta))
	}
	if !(ks[0] > ks[1] && ks[1] > ks[2]) {
		t.Fatalf("K should decrease with η: %v", ks)
	}
}

func TestQuadratureConverged(t *testing.T) {
	// Doubling panels and range must not change the answer materially.
	p := paramsAt(5 * units.GHz)
	c := surface.NewGaussianCorr(1*um, 1*um)
	a := LossFactor(p, c.PSD, 12/(1*um), 64)
	b := LossFactor(p, c.PSD, 24/(1*um), 256)
	if math.Abs(a-b) > 1e-6*(b-1) {
		t.Fatalf("quadrature not converged: %g vs %g", a, b)
	}
}

// TestSWMConvergesToSPM2Kernel is the headline cross-validation: on a
// deterministic small-amplitude sinusoid f = a·cos(k₀x) the full SWM MoM
// solver must reproduce K = 1 + (a²/2)·κ(k₀) with the closed-form SPM2
// kernel — validating the entire perturbation derivation pointwise in k.
func TestSWMConvergesToSPM2Kernel(t *testing.T) {
	f := 5 * units.GHz
	mat := core.PaperMaterial()
	pm := mat.Params(f)
	p := Params{K1: pm.K1, K2: pm.K2, Beta: pm.Beta}

	// Accuracy demands ≥ 12 grid cells per surface wavelength (the
	// paper's Δ = η/8 rule); measured excess errors at M=24 are 0.9%
	// (n=1) and 3.4% (n=2). The short form keeps the fundamental mode at
	// 12 cells per wavelength, where the excess error is 2.7%.
	L := 7.5 * um
	M, modes := 24, []int{1, 2}
	if testing.Short() {
		M, modes = 12, []int{1}
	}
	solver, err := core.NewSolver(mat, L, M, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := 0.25 * um // small vs δ ≈ 0.92 μm at 5 GHz

	for _, n := range modes {
		k0 := 2 * math.Pi * float64(n) / L
		s := surface.NewFlat(L, M)
		for iy := 0; iy < M; iy++ {
			for ix := 0; ix < M; ix++ {
				s.H[iy*M+ix] = a * math.Cos(k0*float64(ix)*s.Step())
			}
		}
		got, err := solver.LossFactor(s, f)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 + a*a/2*Kernel(p, k0)
		if relErr := math.Abs(got-want) / (want - 1); relErr > 0.10 {
			t.Errorf("mode n=%d (k₀η-free): SWM K=%.5f vs SPM2 K=%.5f (excess rel err %.3f)",
				n, got, want, relErr)
		}
	}
}
