package roughsim

import (
	"context"
	"errors"
	"math"
	"testing"

	"roughsim/internal/resilience"
	"roughsim/internal/rng"
	"roughsim/internal/sscm"
	"roughsim/internal/stats"
)

func TestCopperSiO2(t *testing.T) {
	s := CopperSiO2()
	if s.EpsR != 3.7 || math.Abs(s.Rho-1.67e-8)/1.67e-8 > 1e-12 {
		t.Fatalf("stack %+v", s)
	}
	if d := s.SkinDepth(1e9); math.Abs(d-2.057e-6)/2.057e-6 > 0.01 {
		t.Fatalf("skin depth %g", d)
	}
}

func TestSurfaceSpecValidation(t *testing.T) {
	if _, err := NewSimulation(CopperSiO2(), SurfaceSpec{Corr: MeasuredCF, Sigma: 1e-6, Eta: 1e-6}, Accuracy{}); err == nil {
		t.Fatal("MeasuredCF without Eta2 must fail")
	}
	if _, err := NewSimulation(CopperSiO2(), SurfaceSpec{Corr: CFKind(99), Sigma: 1e-6, Eta: 1e-6}, Accuracy{}); err == nil {
		t.Fatal("unknown CF must fail")
	}
	// Non-positive process parameters are returned errors, not panics
	// from the surface constructors.
	if _, err := NewSimulation(CopperSiO2(), SurfaceSpec{Corr: GaussianCF, Sigma: -1e-6, Eta: 1e-6}, Accuracy{}); err == nil {
		t.Fatal("negative Sigma must fail")
	}
	if _, err := NewSimulation(CopperSiO2(), SurfaceSpec{Corr: ExponentialCF, Sigma: 1e-6, Eta: 0}, Accuracy{}); err == nil {
		t.Fatal("zero Eta must fail")
	}
}

func TestSimulationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full solver")
	}
	sim, err := NewSimulation(CopperSiO2(),
		SurfaceSpec{Corr: GaussianCF, Sigma: 1e-6, Eta: 2e-6},
		Accuracy{GridPerSide: 16, StochasticDim: 12})
	if err != nil {
		t.Fatal(err)
	}
	f := 5e9
	k, err := sim.MeanLossFactor(f)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 1 || k > 2 {
		t.Fatalf("mean K = %g outside plausible range", k)
	}
	// SPM2 baseline in the same ballpark, after correcting the SSCM mean
	// for the variance the KL truncation leaves out (K−1 is quadratic in
	// the height to leading order).
	sp := sim.SPM2LossFactor(f)
	corrected := 1 + (k-1)/sim.CapturedVariance()
	if math.Abs(corrected-sp)/(sp-1) > 0.45 {
		t.Fatalf("SWM %g (corrected %g) vs SPM2 %g disagree badly", k, corrected, sp)
	}
	// The empirical formula only sees σ: it returns the same value for
	// every η; just check it is sane.
	if e := sim.EmpiricalLossFactor(f); e < 1 || e > 2 {
		t.Fatalf("empirical K = %g", e)
	}
	// A single realization.
	src := rng.New(1)
	xi := src.NormVec(sim.StochasticDim())
	surf := sim.Surface(xi)
	kr, err := sim.LossFactor(surf, f)
	if err != nil {
		t.Fatal(err)
	}
	if kr <= 1 {
		t.Fatalf("single-realization K = %g", kr)
	}
}

// TestSSCMMatchesPointAtATime: Simulation.SSCM, which collocates
// through the sweep engine, equals the per-node reference (every node
// solved on its own by an independent simulation's LossFactor, then
// projected) bit for bit at both SSCM orders, and rejects order 0.
func TestSSCMMatchesPointAtATime(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	spec := SurfaceSpec{Corr: GaussianCF, Sigma: 0.4e-6, Eta: 1e-6}
	acc := Accuracy{GridPerSide: 8, StochasticDim: 2}
	f := 5e9
	for _, order := range []int{1, 2} {
		sim, err := NewSimulation(CopperSiO2(), spec, acc)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewSimulation(CopperSiO2(), spec, acc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.SSCM(f, order)
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := sscm.Nodes(ref.StochasticDim(), order)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, len(nodes))
		for j, xi := range nodes {
			if vals[j], err = ref.LossFactor(ref.Surface(xi), f); err != nil {
				t.Fatal(err)
			}
		}
		want, err := sscm.FromValues(ref.StochasticDim(), order, vals)
		if err != nil {
			t.Fatal(err)
		}
		if got.Points != want.Points || len(got.Coeffs) != len(want.Coeffs) {
			t.Fatalf("order %d: %d points, %d coefficients; want %d, %d",
				order, got.Points, len(got.Coeffs), want.Points, len(want.Coeffs))
		}
		for i := range want.Coeffs {
			if got.Coeffs[i] != want.Coeffs[i] {
				t.Fatalf("order %d: coefficient %d is %v, per-node reference %v",
					order, i, got.Coeffs[i], want.Coeffs[i])
			}
		}
		if order == 1 {
			if _, err := sim.SSCM(f, 0); resilience.Classify(err) != resilience.KindInvalidInput {
				t.Fatalf("order 0: %v", err)
			}
		}
	}
}

// TestMonteCarloThroughEngine: Simulation.MonteCarlo solves sample i at
// ξ_i = NormVec(d) of stream i+1 of the seed exactly as LossFactor
// would, bit for bit and independently of the worker count; its
// statistics are stats.MeanStdErr of the samples; a bad failure budget
// is invalid input; and a cancelled context stops it.
func TestMonteCarloThroughEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	spec := SurfaceSpec{Corr: GaussianCF, Sigma: 0.4e-6, Eta: 1e-6}
	f := 5e9
	const n, seed = 16, 9
	newSim := func() *Simulation {
		sim, err := NewSimulation(CopperSiO2(), spec, Accuracy{GridPerSide: 8, StochasticDim: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	sim := newSim()
	a, err := sim.MonteCarlo(f, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	one := newSim().engine()
	one.Workers = 1
	b, err := one.MonteCarlo(context.Background(), f, n, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requested != n || a.Failed() != 0 || len(a.Samples) != n || len(b.Samples) != n {
		t.Fatalf("samples %d/%d of %d requested, %d failed", len(a.Samples), len(b.Samples), a.Requested, a.Failed())
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d: %v with every CPU, %v with 1 worker", i, a.Samples[i], b.Samples[i])
		}
	}

	ref := newSim()
	for _, i := range []int{0, n - 1} {
		xi := rng.NewStream(seed, uint64(i)+1).NormVec(ref.StochasticDim())
		want, err := ref.LossFactor(ref.Surface(xi), f)
		if err != nil {
			t.Fatal(err)
		}
		if a.Samples[i] != want {
			t.Fatalf("sample %d = %v, LossFactor at its draw = %v", i, a.Samples[i], want)
		}
	}
	if mean, se := stats.MeanStdErr(a.Samples); a.Mean != mean || a.StdErr != se {
		t.Fatalf("mean %v ± %v, MeanStdErr of the samples %v ± %v", a.Mean, a.StdErr, mean, se)
	}

	if _, err := sim.MonteCarloCtx(context.Background(), f, n, seed, math.NaN()); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("NaN failure budget: want invalid input, got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.MonteCarloCtx(ctx, f, n, seed, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: want context.Canceled, got %v", err)
	}
}

func TestStackHBM(t *testing.T) {
	s := CopperSiO2()
	k := s.HBMLossFactor(20e9, 5e-6, 1e-10)
	if k < 1.5 || k > 4 {
		t.Fatalf("HBM K = %g", k)
	}
}

func TestEmpiricalPackageLevel(t *testing.T) {
	if k := EmpiricalLossFactor(1e-6, 1e-6); math.Abs(k-(1+2/math.Pi*math.Atan(1.4))) > 1e-12 {
		t.Fatalf("empirical K = %g", k)
	}
}

func TestAnisotropicSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("full solver")
	}
	// Rolled-foil scenario: smoother along y. The mean loss factor must
	// exceed the isotropic case built from the SMOOTHER axis (more
	// gradient energy) and the SPM2 baseline must stay in the same
	// ballpark.
	// Geometry note: the grid must resolve the ROUGH axis (ηx): with
	// L = 4·ηy = 8 μm and M = 24, h = ηx/3.
	f := 5e9
	ani, err := NewSimulation(CopperSiO2(),
		SurfaceSpec{Corr: GaussianCF, Sigma: 0.5e-6, Eta: 1e-6, EtaY: 2e-6},
		Accuracy{GridPerSide: 24, StochasticDim: 10, PatchOverEta: 4})
	if err != nil {
		t.Fatal(err)
	}
	kAni, err := ani.MeanLossFactor(f)
	if err != nil {
		t.Fatal(err)
	}
	isoSmooth, err := NewSimulation(CopperSiO2(),
		SurfaceSpec{Corr: GaussianCF, Sigma: 0.5e-6, Eta: 2e-6},
		Accuracy{GridPerSide: 24, StochasticDim: 10, PatchOverEta: 4})
	if err != nil {
		t.Fatal(err)
	}
	kIso, err := isoSmooth.MeanLossFactor(f)
	if err != nil {
		t.Fatal(err)
	}
	// The two processes need different KL depths for equal coverage;
	// normalize the excess loss by the captured variance (K−1 is
	// quadratic in the height to leading order).
	exAni := (kAni - 1) / ani.CapturedVariance()
	exIso := (kIso - 1) / isoSmooth.CapturedVariance()
	if exAni <= exIso {
		t.Fatalf("anisotropic excess %g should exceed smooth-axis isotropic excess %g (raw K %g vs %g)",
			exAni, exIso, kAni, kIso)
	}
	sp := ani.SPM2LossFactor(f)
	if math.Abs((1+exAni)-sp)/(sp-1) > 0.6 {
		t.Fatalf("aniso SWM (corrected) %g vs SPM2 %g", 1+exAni, sp)
	}
}

func TestAnisotropyRejectedForNonGaussian(t *testing.T) {
	_, err := NewSimulation(CopperSiO2(),
		SurfaceSpec{Corr: ExponentialCF, Sigma: 1e-6, Eta: 1e-6, EtaY: 2e-6}, Accuracy{})
	if err == nil {
		t.Fatal("EtaY with ExponentialCF must fail")
	}
}
