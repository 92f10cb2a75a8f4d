package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"roughsim/internal/mom"
	"roughsim/internal/resilience"
	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/telemetry"
	"roughsim/internal/units"
)

const um = 1e-6

func TestPaperMaterial(t *testing.T) {
	m := PaperMaterial()
	if m.EpsR != 3.7 {
		t.Fatalf("εr = %g, want 3.7", m.EpsR)
	}
	if math.Abs(m.Rho-1.67e-8)/1.67e-8 > 1e-12 {
		t.Fatalf("ρ = %g, want 1.67 μΩ·cm", m.Rho)
	}
	// Skin depth of the paper's conductor at 5 GHz ≈ 0.92 μm.
	if d := m.SkinDepth(5 * units.GHz); math.Abs(d-0.92e-6)/0.92e-6 > 0.01 {
		t.Fatalf("δ(5GHz) = %g", d)
	}
}

func TestEmpiricalFormula(t *testing.T) {
	// Limits of eq. (1): K → 1 for σ ≪ δ, K → 2 for σ ≫ δ.
	if k, _ := Empirical(0.01*um, 10*um); math.Abs(k-1) > 1e-4 {
		t.Fatalf("smooth limit K = %g", k)
	}
	if k, _ := Empirical(100*um, 0.1*um); math.Abs(k-2) > 1e-4 {
		t.Fatalf("rough limit K = %g, want → 2", k)
	}
	// At σ = δ: K = 1 + (2/π)·atan(1.4).
	want := 1 + 2/math.Pi*math.Atan(1.4)
	if k, err := Empirical(1*um, 1*um); err != nil || math.Abs(k-want) > 1e-12 {
		t.Fatalf("K(σ=δ) = %g (err %v), want %g", k, err, want)
	}
	// Out-of-domain inputs are returned errors, not panics.
	if _, err := Empirical(1*um, 0); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("expected invalid-input error for δ=0, got %v", err)
	}
	if _, err := Empirical(1*um, math.NaN()); err == nil {
		t.Fatal("expected error for NaN δ")
	}
}

func TestNewSolverRejectsBadInput(t *testing.T) {
	if _, err := NewSolver(PaperMaterial(), 0, 8, mom.Options{}); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("expected invalid-input error for L=0, got %v", err)
	}
	if _, err := NewSolver(PaperMaterial(), 5*um, 1, mom.Options{}); err == nil {
		t.Fatal("expected error for M=1")
	}
	if _, err := NewSolverTabulated(PaperMaterial(), 5*um, 8, 0, mom.Options{}); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatal("expected invalid-input error for zspan=0")
	}
}

func TestSweepCancelled(t *testing.T) {
	s, err := NewSolver(PaperMaterial(), 5*um, 8, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flat := surface.NewFlat(5*um, 8)
	// A pre-cancelled context stops the solve before any work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := s.LossFactorCtx(ctx, flat, 1*units.GHz); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled solve did not stop promptly")
	}
	// An expired deadline is reported as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := s.LossFactorCtx(dctx, flat, 1*units.GHz); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected context.DeadlineExceeded, got %v", err)
	}
}

func TestSolveStatsAccounting(t *testing.T) {
	s, err := NewSolver(PaperMaterial(), 5*um, 8, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Force the first chain stage to fail on every solve: the fallback
	// must win and the accounting must record both.
	s.Injector = resilience.NewInjector(resilience.FaultSpec{
		Op: mom.StageGMRES, Fraction: 1, Kind: resilience.KindConvergence,
	})
	// A rough surface: its solve and the flat reference's both run.
	surf := surface.NewKL(surface.NewGaussianCorr(0.1*um, 1*um), 5*um, 8).Sample(rng.New(1))
	k, err := s.LossFactor(surf, 5*units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := NewSolver(PaperMaterial(), 5*um, 8, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want, err := clean.LossFactor(surf, 5*units.GHz); err != nil || math.Abs(k-want) > 1e-6 {
		t.Fatalf("K = %g through the fallback, %g (err %v) without faults", k, want, err)
	}
	st := s.Stats()
	if st.Solves < 2 { // flat reference + rough solve
		t.Fatalf("stats solves = %d, want ≥ 2", st.Solves)
	}
	if st.Fallbacks != st.Solves {
		t.Fatalf("every solve should have fallen back: %+v", st)
	}
	if st.StageFailures[mom.StageGMRES] != st.Solves {
		t.Fatalf("GMRES failures = %d, want %d", st.StageFailures[mom.StageGMRES], st.Solves)
	}
	if st.StageWins[mom.StageDenseLU] != st.Solves {
		t.Fatalf("dense LU wins = %d, want %d (wins: %v)",
			st.StageWins[mom.StageDenseLU], st.Solves, st.StageWins)
	}
}

// TestRigidShiftNeedsNoSolve: a surface whose heights are all equal has
// the flat reference's matrix and a unimodular multiple of its
// right-hand side while k₁ is real, so LossFactor reports K = 1 exactly
// without solving anything; any other surface is solved.
func TestRigidShiftNeedsNoSolve(t *testing.T) {
	s, err := NewSolver(PaperMaterial(), 5*um, 8, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shifted := surface.NewFlat(5*um, 8)
	for i := range shifted.H {
		shifted.H[i] = 0.3 * um
	}
	for _, surf := range []*surface.Surface{surface.NewFlat(5*um, 8), shifted} {
		if !s.RigidShift(surf, 5*units.GHz) {
			t.Fatalf("heights all %g: not a rigid shift", surf.H[0])
		}
		if k, err := s.LossFactor(surf, 5*units.GHz); err != nil || k != 1 {
			t.Fatalf("heights all %g: K = %v (err %v), want exactly 1", surf.H[0], k, err)
		}
	}
	if n := s.Stats().Solves; n != 0 {
		t.Fatalf("rigid shifts ran %d solves, want 0", n)
	}
	// The solved K of the shift is 1 to solver precision: the rule only
	// skips a solve whose answer is known.
	bumped := surface.NewFlat(5*um, 8)
	copy(bumped.H, shifted.H)
	bumped.H[5] += 1e-9 * um
	if s.RigidShift(bumped, 5*units.GHz) {
		t.Fatal("one bumped height still reads as a rigid shift")
	}
	if k, err := s.LossFactor(bumped, 5*units.GHz); err != nil || math.Abs(k-1) > 1e-9 {
		t.Fatalf("near-shift K = %v (err %v), want 1 within 1e-9", k, err)
	}
	if n := s.Stats().Solves; n != 2 {
		t.Fatalf("near-shift ran %d solves, want 2 (flat reference and surface)", n)
	}
	analytic := surface.NewFlat(5*um, 8)
	analytic.AnFx, analytic.AnFy = make([]float64, 64), make([]float64, 64)
	if s.RigidShift(analytic, 5*units.GHz) {
		t.Fatal("a surface with analytic derivatives reads as a rigid shift")
	}
}

// TestProductionSolvesNeverFallBack pins the evidence behind the
// three-stage solve chain: across a small CF × σ × η × grid matrix on
// the production (tabulated, lazily assembled) path, every solve is won
// by a first-line stage — dense GMRES at grid 8, fft-gmres at grid 20
// with small σ — and none falls through to dense LU.
func TestProductionSolvesNeverFallBack(t *testing.T) {
	f := 5 * units.GHz
	cases := []struct {
		name     string
		corr     surface.Corr
		eta      float64
		M        int
		fftFirst bool // the rough surface passes the FFT admissibility gates
	}{
		{"gauss-s0.2-e0.5-g8", surface.NewGaussianCorr(0.2*um, 0.5*um), 0.5 * um, 8, false},
		{"gauss-s1.5-e2-g8", surface.NewGaussianCorr(1.5*um, 2*um), 2 * um, 8, false},
		{"exp-s0.5-e1-g8", surface.NewExpCorr(0.5*um, 1*um), 1 * um, 8, false},
		{"measured-s1-e1-g8", surface.NewMeasuredCorr(1*um, 1*um, 0.53*um), 1 * um, 8, false},
		{"gauss-s0.015-e1-g20", surface.NewGaussianCorr(0.015*um, 1*um), 1 * um, 20, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			L := 5 * tc.eta
			s, err := NewSolverTabulated(PaperMaterial(), L, tc.M, 14*tc.corr.Sigma(), mom.Options{})
			if err != nil {
				t.Fatal(err)
			}
			surf := surface.NewKL(tc.corr, L, tc.M).SampleTruncated(rng.New(uint64(31+i)), 4)
			if _, err := s.LossFactorCtx(context.Background(), surf, f); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Fallbacks != 0 {
				t.Fatalf("%d of %d solves fell back (wins %v, failures %v)",
					st.Fallbacks, st.Solves, st.StageWins, st.StageFailures)
			}
			for stage := range st.StageWins {
				if stage != mom.StageFFT && stage != mom.StageGMRES {
					t.Fatalf("stage %q won a production solve (wins %v)", stage, st.StageWins)
				}
			}
			// The flat reference solves on the quotient lattice, on its
			// two-unknown dense matrix.
			if tc.fftFirst && st.StageWins[mom.StageFFT] != st.Solves-1 {
				t.Fatalf("fft-gmres won %d of %d rough solves on an admitted surface (wins %v, skips %v)",
					st.StageWins[mom.StageFFT], st.Solves-1, st.StageWins, st.StageSkips)
			}
		})
	}
}

func TestSolverRejectsMismatchedSurface(t *testing.T) {
	s, err := NewSolver(PaperMaterial(), 5*um, 8, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LossFactor(surface.NewFlat(5*um, 10), 1*units.GHz); err == nil {
		t.Fatal("expected grid mismatch error")
	}
	if _, err := s.LossFactor2D(surface.NewFlatProfile(4*um, 8), 1*units.GHz); err == nil {
		t.Fatal("expected 2D grid mismatch error")
	}
}

func TestCheckResolutionGuards(t *testing.T) {
	// A smooth long-wavelength surface passes…
	c := surface.NewGaussianCorr(1*um, 2*um)
	kl := surface.NewKL(c, 10*um, 16)
	smooth := kl.SampleTruncated(rng.New(3), 12)
	if _, err := CheckResolution(smooth); err != nil {
		t.Fatalf("smooth surface rejected: %v", err)
	}
	// …while a grid-scale sawtooth trips the guard.
	jag := surface.NewFlat(5*um, 12)
	for iy := 0; iy < 12; iy++ {
		for ix := 0; ix < 12; ix++ {
			if (ix+iy)%2 == 0 {
				jag.H[iy*12+ix] = 1.2 * um
			} else {
				jag.H[iy*12+ix] = -1.2 * um
			}
		}
	}
	if _, err := CheckResolution(jag); err == nil {
		t.Fatal("under-resolved surface not rejected")
	}
}

func TestLossFactorTabulatedMatchesExact(t *testing.T) {
	f := 5 * units.GHz
	c := surface.NewGaussianCorr(1*um, 1*um)
	L := 5 * um
	M := 16
	kl := surface.NewKL(c, L, M)
	surf := kl.SampleTruncated(rng.New(9), 12)

	exactSolver, err := NewSolver(PaperMaterial(), L, M, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tabSolver, err := NewSolverTabulated(PaperMaterial(), L, M, 10*um, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ke, err := exactSolver.LossFactor(surf, f)
	if err != nil {
		t.Fatal(err)
	}
	kt, err := tabSolver.LossFactor(surf, f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ke-kt) > 1e-5*ke {
		t.Fatalf("tabulated K = %g vs exact %g", kt, ke)
	}
	if ke <= 1 {
		t.Fatalf("K = %g, want > 1", ke)
	}
}

func TestFlatPabsCachedAndConcurrent(t *testing.T) {
	s, err := NewSolver(PaperMaterial(), 5*um, 8, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := 3 * units.GHz
	var wg sync.WaitGroup
	vals := make([]float64, 8)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ref, err := s.flatRef(context.Background(), f)
			if err != nil {
				t.Error(err)
				return
			}
			vals[i] = ref.pabs
		}(i)
	}
	wg.Wait()
	for _, v := range vals[1:] {
		if v != vals[0] {
			t.Fatal("concurrent flatRef returned different values")
		}
	}
	// Matches the analytic value within discretization error.
	want := mom.FlatPabsAnalytic(PaperMaterial().Params(f), 5*um)
	if math.Abs(vals[0]-want)/want > 0.05 {
		t.Fatalf("flat Pabs %g vs analytic %g", vals[0], want)
	}
}

func TestLossFactor2DFlatIsUnity(t *testing.T) {
	s, err := NewSolver(PaperMaterial(), 5*um, 24, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, err := s.LossFactor2D(surface.NewFlatProfile(5*um, 24), 5*units.GHz)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-1) > 1e-9 {
		t.Fatalf("flat profile K = %g, want exactly 1 (same solve)", k)
	}
}

func TestFlatPabsSingleFlightMetrics(t *testing.T) {
	s, err := NewSolver(PaperMaterial(), 5*um, 8, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewRegistry()
	s.Metrics = m
	f := 4 * units.GHz
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.flatRef(context.Background(), f); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("core.flat_solves").Value(); got != 1 {
		t.Fatalf("flat_solves = %d, want 1", got)
	}
	if got := m.Counter("core.flat_hits").Value() + m.Counter("core.flat_shared").Value(); got != callers-1 {
		t.Fatalf("hits+shared = %d, want %d", got, callers-1)
	}
	if _, err := s.flatRef(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	if got := m.Counter("core.flat_solves").Value(); got != 1 {
		t.Fatalf("flat_solves after warm call = %d, want 1", got)
	}
}

// TestFlatMemoBounded: a solver swept across more frequencies than the
// flat memo holds keeps only the most recent flatMemoCap references.
func TestFlatMemoBounded(t *testing.T) {
	s, err := NewSolver(PaperMaterial(), 5*um, 4, mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < flatMemoCap+3; k++ {
		if _, err := s.flatRef(context.Background(), units.GHz+float64(k)*units.MHz); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.flat.Len(); got != flatMemoCap {
		t.Fatalf("flat memo holds %d entries, want %d", got, flatMemoCap)
	}
}

// TestLossFactorsMirrorPairMatchesSingles: LossFactorsCtx over a mirror
// pair [s, −s] — one build, solved, mirrored in place and solved again —
// equals LossFactor of each surface bit for bit, on a grid the FFT stage
// does not admit and on one it does; a pair that is not an exact mirror
// image is rejected with a typed error before any solve.
func TestLossFactorsMirrorPairMatchesSingles(t *testing.T) {
	const L = 5 * um
	f := 5 * units.GHz
	for _, tc := range []struct {
		name  string
		m     int
		sigma float64
		stage string
	}{
		{"dense", 8, 0.1 * um, mom.StageGMRES},
		{"fft", 20, 0.015 * um, mom.StageFFT},
	} {
		s, err := NewSolverTabulated(PaperMaterial(), L, tc.m, 14*tc.sigma, mom.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		s.Metrics = reg
		kl := surface.NewKL(surface.NewGaussianCorr(tc.sigma, 1*um), L, tc.m)
		xi := rng.New(5).NormVec(6)
		neg := make([]float64, len(xi))
		for i, v := range xi {
			neg[i] = -v
		}
		pair := []*surface.Surface{kl.Synthesize(xi), kl.Synthesize(neg)}
		if !IsMirror(pair[0], pair[1]) {
			t.Fatalf("%s: KL draws at ±ξ are not exact mirror images", tc.name)
		}
		ks, err := s.LossFactorsCtx(context.Background(), pair, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The pair wins tc.stage; the flat reference solves on the
		// quotient lattice, on its two-unknown dense matrix (gmres).
		want := 2
		if tc.stage == mom.StageGMRES {
			want = 3
		}
		if got := reg.Counter("solve.stage_win." + tc.stage).Value(); got != int64(want) {
			t.Fatalf("%s: %s wins = %d, want %d (stats %+v)", tc.name, tc.stage, got, want, s.Stats())
		}
		for i, surf := range pair {
			k, err := s.LossFactor(surf, f)
			if err != nil {
				t.Fatal(err)
			}
			if ks[i] != k {
				t.Errorf("%s: pair K[%d] = %.17g, LossFactor %.17g", tc.name, i, ks[i], k)
			}
		}

		before := s.Stats().Solves
		for _, bad := range [][]*surface.Surface{
			{pair[0], pair[0]},
			{pair[0], pair[1], pair[0]},
			{},
		} {
			if _, err := s.LossFactorsCtx(context.Background(), bad, f, 0); resilience.Classify(err) != resilience.KindInvalidInput {
				t.Errorf("%s: %d-surface non-pair gave %v, want invalid input", tc.name, len(bad), err)
			}
		}
		if got := s.Stats().Solves; got != before {
			t.Errorf("%s: rejected inputs ran %d solves", tc.name, got-before)
		}
	}
}
