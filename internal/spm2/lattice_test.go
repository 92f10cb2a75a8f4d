package spm2

import (
	"context"
	"math"
	"slices"
	"testing"

	"roughsim/internal/core"
	"roughsim/internal/mom"
	"roughsim/internal/sscm"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// The lattice arbiter's physics: a Gaussian CF with σ = 20 nm,
// η = 1 µm on an L = 5η patch at 5 GHz, small enough that the O(σ⁴)
// terms are negligible (the ratio (K − 1)/(K_lat − 1) is the same at
// σ = 20 and 50 nm).
const latticeSigma, latticeEta = 0.02 * um, 1 * um

func latticeKL(m int) *surface.KL {
	return surface.NewKL(surface.NewGaussianCorr(latticeSigma, latticeEta), 5*latticeEta, m)
}

func latticeSolver(t *testing.T, m int) *core.Solver {
	t.Helper()
	s, err := core.NewSolverTabulated(core.PaperMaterial(), 5*latticeEta, m, 14*latticeSigma, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// excessErr is the relative error of K's excess over 1 against want's.
func excessErr(k, want float64) float64 { return (k-1)/(want-1) - 1 }

// TestLatticeSumMatchesContinuum: summed over every mode, the lattice
// SPM2 sum is the continuum SPM2 integral to within 0.5 % of the excess
// once the grid resolves the spectrum (M ≥ 16).
func TestLatticeSumMatchesContinuum(t *testing.T) {
	p := paramsAt(5 * units.GHz)
	want := LossFactorCorr(p, surface.NewGaussianCorr(latticeSigma, latticeEta), latticeEta)
	for _, m := range []int{16, 24, 32, 48} {
		kl := latticeKL(m)
		got := LatticeLossFactor(p, kl, len(kl.Modes))
		if e := excessErr(got, want); math.Abs(e) > 0.005 {
			t.Errorf("M=%d: lattice excess %.5g vs continuum %.5g (%+.3f %%)", m, got-1, want-1, 100*e)
		} else {
			t.Logf("M=%d: lattice excess %.5g vs continuum %.5g (%+.3f %%)", m, got-1, want-1, 100*e)
		}
	}
}

// TestLatticeModesAtM32 gates single modes against their exact O(σ²)
// loss: KL mode j alone at ξ_j = √3 (a first-order SSCM node) is a
// sinusoid of point variance 3λ_j/N, so its K is 1 + 3·(λ_j/N)·κ. The
// SWM solve runs on the quotient lattice (32 orbits for (1,0), (1,1)
// and (2,1)). Each bound is the error of excess measured when the gate
// landed, rounded up: the negative part is the near-cell quadrature
// term, the positive part of (2,1) the resolution term that grows with
// k·h, so a change to the near or self quadrature shows up here as a
// number.
func TestLatticeModesAtM32(t *testing.T) {
	const m = 32
	f := 5 * units.GHz
	p := paramsAt(f)
	kl := latticeKL(m)
	solver := latticeSolver(t, m)
	for _, tc := range []struct {
		mx, my int
		bound  float64 // |error of excess|
	}{
		{1, 0, 0.0060}, // measured −0.597 %
		{1, 1, 0.0070}, // measured −0.689 %
		{2, 1, 0.0250}, // measured +2.473 %
	} {
		j := slices.IndexFunc(kl.Modes, func(md surface.KLMode) bool { return md.Mx == tc.mx && md.My == tc.my && !md.Sin })
		if j < 0 {
			t.Fatalf("no cosine KL mode (%d, %d) at M=%d", tc.mx, tc.my, m)
		}
		xi := make([]float64, j+1)
		xi[j] = math.Sqrt(3)
		got, err := solver.LossFactor(kl.Synthesize(xi), f)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 + 3*(LatticeLossFactor(p, kl, j+1)-LatticeLossFactor(p, kl, j))
		e := excessErr(got, want)
		t.Logf("mode (%d, %d): SWM excess %.6g vs lattice %.6g (%+.3f %%)", tc.mx, tc.my, got-1, want-1, 100*e)
		if math.Abs(e) > tc.bound {
			t.Errorf("mode (%d, %d): error of excess %+.3f %% exceeds ±%.2f %%", tc.mx, tc.my, 100*e, 100*tc.bound)
		}
	}
	if got := solver.Stats().Solves; got != 4 {
		t.Errorf("%d solves, want 4 (flat reference and three modes)", got)
	}
}

// TestLatticeMeanAtM24 gates the first-order SSCM mean over d = 16 KL
// modes against K_lat(16) at M = 24, bounded by the error of excess
// measured when the gate landed: every node is one mode, each pair of
// nodes ±ξ solved from one quotient build and its mirror.
func TestLatticeMeanAtM24(t *testing.T) {
	const m, d, bound = 24, 16, 0.021 // measured +2.094 %
	f := 5 * units.GHz
	p := paramsAt(f)
	kl := latticeKL(m)
	solver := latticeSolver(t, m)
	nodes, err := sscm.Nodes(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(nodes))
	for i, xi := range nodes {
		if vals[i] != 0 {
			continue // solved as a mirror partner
		}
		s := kl.Synthesize(xi)
		if solver.RigidShift(s, f) {
			vals[i] = 1
			continue
		}
		neg := slices.IndexFunc(nodes, func(x []float64) bool {
			return slices.EqualFunc(x, xi, func(a, b float64) bool { return a == -b })
		})
		ks, err := solver.LossFactorsCtx(context.Background(), []*surface.Surface{s, kl.Synthesize(nodes[neg])}, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		vals[i], vals[neg] = ks[0], ks[1]
	}
	res, err := sscm.FromValues(d, 1, vals)
	if err != nil {
		t.Fatal(err)
	}
	want := LatticeLossFactor(p, kl, d)
	e := excessErr(res.Mean, want)
	t.Logf("M=%d d=%d: SSCM mean excess %.6g vs lattice %.6g (%+.3f %%)", m, d, res.Mean-1, want-1, 100*e)
	if math.Abs(e) > bound {
		t.Errorf("error of excess %+.3f %% exceeds ±%.2f %%", 100*e, 100*bound)
	}
}
