package mom

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/resilience"
	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// operatorSystem builds a lazy operator system whose dense assembler
// counts its invocations, so tests can assert the fft-gmres fast path
// never materializes the matrix.
func operatorSystem(s *surface.Surface, p Params, opt Options) (*System, *int) {
	calls := new(int)
	sys := NewOperatorSystem(s, p, opt, nil, func(context.Context) (*cmplxmat.Matrix, error) {
		*calls++
		return Assemble(s, p, opt).Matrix, nil
	})
	return sys, calls
}

// fftAttempts counts report attempts on the fft-gmres stage.
func fftAttempts(rep *SolveReport) (total, skipped int) {
	for _, a := range rep.Attempts {
		if a.Stage == StageFFT {
			total++
			if a.Skipped {
				skipped++
			}
		}
	}
	return
}

func TestChainFFTStageWinsAndMatchesDense(t *testing.T) {
	L := 5 * um
	m := 12
	s := mildSurface(m, L, 0.01*um)
	p := paramsAt(5 * units.GHz)
	opt := Options{FFTMinCells: 1} // small test grid, real gates otherwise

	sys, denseCalls := operatorSystem(s, p, opt)
	if !sys.FFTAdmitted() {
		t.Fatalf("surface not admitted: %v", sys.FFTRejection())
	}
	sol, err := sys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report.Winner != StageFFT {
		for _, a := range sol.Report.Attempts {
			t.Logf("attempt %q skipped=%v err=%v", a.Stage, a.Skipped, a.Err)
		}
		t.Fatalf("winner = %q, want %q", sol.Report.Winner, StageFFT)
	}
	if *denseCalls != 0 || sys.DenseAssembled() {
		t.Fatalf("fft win materialized the dense matrix (%d calls)", *denseCalls)
	}

	denseSol, err := Assemble(s, p, opt).SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(sol.Pabs-denseSol.Pabs) / denseSol.Pabs; d > 1e-6 {
		t.Fatalf("fft-chain Pabs %g vs dense-chain %g (rel dev %g)", sol.Pabs, denseSol.Pabs, d)
	}
}

// TestChainFFTWinsAtProductionGatesM20: at M=20 with default options —
// the production gates, no threshold lowered — an admissible rough
// surface solves through fft-gmres on the tabulated operator without
// ever materializing the dense matrix, and agrees with the tabulated
// dense assembly solved by the chain to 1e-6 in Pabs.
func TestChainFFTWinsAtProductionGatesM20(t *testing.T) {
	const L, m = 5 * um, 20
	h := L / m
	// σ small enough that the order-6 kernel model sits well inside
	// fftModelTol (a-priori error ≈ (2·zmax/3h)^7 with zmax ≈ 3σ).
	s := mildSurface(m, L, 0.06*h)
	p := paramsAt(5 * units.GHz)
	opt := Options{}
	ts := NewTableSet(p, L, m, h, opt)

	denseCalls := 0
	sys := NewOperatorSystem(s, p, opt, ts, func(context.Context) (*cmplxmat.Matrix, error) {
		denseCalls++
		return nil, errors.New("dense matrix requested on the FFT path")
	})
	if !sys.FFTAdmitted() {
		t.Fatalf("surface not admitted: %v", sys.FFTRejection())
	}
	sol, err := sys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report.Winner != StageFFT {
		t.Fatalf("winner = %q, want %q", sol.Report.Winner, StageFFT)
	}
	if denseCalls != 0 || sys.DenseAssembled() {
		t.Fatalf("fft win materialized the dense matrix (%d calls)", denseCalls)
	}

	dsys, err := AssembleTabulated(s, p, ts, opt)
	if err != nil {
		t.Fatal(err)
	}
	denseSol, err := dsys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(sol.Pabs-denseSol.Pabs) / math.Abs(denseSol.Pabs); d > 1e-6 {
		t.Fatalf("fft-chain Pabs %g vs tabulated dense chain %g (rel dev %g)", sol.Pabs, denseSol.Pabs, d)
	}
}

func TestChainOverBoundSurfaceSkipsFFTWithoutRetry(t *testing.T) {
	L := 5 * um
	m := 12
	// σ = 0.08 μm passes the operator's hard convergence bound but its
	// a-priori model error (≫ 1e-6) fails the chain's fftModelTol gate.
	s := mildSurface(m, L, 0.08*um)
	p := paramsAt(5 * units.GHz)
	opt := Options{FFTMinCells: 1}

	sys, denseCalls := operatorSystem(s, p, opt)
	if sys.FFTAdmitted() {
		t.Fatal("over-bound surface unexpectedly admitted")
	}
	if kind := resilience.Classify(sys.FFTRejection()); kind != resilience.KindNumerical {
		t.Fatalf("rejection kind = %v, want numerical", kind)
	}
	// The deterministic rejection is recorded once and never run.
	sol, err := sys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report.Winner != StageGMRES {
		t.Fatalf("winner = %q, want %q", sol.Report.Winner, StageGMRES)
	}
	total, skipped := fftAttempts(sol.Report)
	if total != 1 || skipped != 1 {
		t.Fatalf("fft attempts = %d (skipped %d), want exactly 1 skipped", total, skipped)
	}
	a := sol.Report.Attempts[0]
	if a.Stage != StageFFT || !a.Skipped || a.Kind != resilience.KindNumerical {
		t.Fatalf("first attempt = %+v, want skipped numerical fft-gmres", a)
	}
	if sol.Report.Failed() != 0 {
		t.Fatalf("skipped rejection counted as %d failures", sol.Report.Failed())
	}
	if *denseCalls != 1 || !sys.DenseAssembled() {
		t.Fatalf("dense matrix materialized %d times, want exactly once", *denseCalls)
	}
}

func TestChainInjectedFFTFailureFallsBack(t *testing.T) {
	L := 5 * um
	m := 12
	s := mildSurface(m, L, 0.01*um)
	p := paramsAt(5 * units.GHz)
	opt := Options{FFTMinCells: 1}

	sys, denseCalls := operatorSystem(s, p, opt)
	if !sys.FFTAdmitted() {
		t.Fatalf("surface not admitted: %v", sys.FFTRejection())
	}
	inj := resilience.NewInjector(resilience.FaultSpec{
		Op: StageFFT, Fraction: 1, Kind: resilience.KindConvergence,
	})
	sol, err := sys.SolveResilient(context.Background(), SolveOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	// The chain has two stages: a failed fft-gmres goes straight to LU.
	att := sol.Report.Attempts
	if len(att) != 2 || att[0].Stage != StageFFT || att[0].Err == nil || !att[0].Injected ||
		att[1].Stage != StageDenseLU || att[1].Err != nil {
		t.Fatalf("attempts = %+v, want [fft-gmres failed, lu won]", att)
	}
	if sol.Report.Winner != StageDenseLU {
		t.Fatalf("winner = %q, want %q", sol.Report.Winner, StageDenseLU)
	}
	if *denseCalls != 1 {
		t.Fatalf("dense materializations = %d, want 1", *denseCalls)
	}

	denseSol, err := Assemble(s, p, opt).SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(sol.Pabs-denseSol.Pabs) / denseSol.Pabs; d > 1e-6 {
		t.Fatalf("fallback Pabs %g vs dense-chain %g (rel dev %g)", sol.Pabs, denseSol.Pabs, d)
	}
}

func TestChainSmallGridSkipsFFTStage(t *testing.T) {
	L := 5 * um
	m := 8 // 64 cells < default FFTMinCells
	s := mildSurface(m, L, 0.01*um)
	p := paramsAt(5 * units.GHz)

	sys, denseCalls := operatorSystem(s, p, Options{})
	if sys.FFTAdmitted() {
		t.Fatal("small grid unexpectedly admitted to the FFT stage")
	}
	sol, err := sys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report.Winner != StageGMRES {
		t.Fatalf("winner = %q, want %q", sol.Report.Winner, StageGMRES)
	}
	if *denseCalls != 1 {
		t.Fatalf("dense materializations = %d, want 1", *denseCalls)
	}
}

func TestNewFFTOperatorTypedRejections(t *testing.T) {
	L := 5 * um
	m := 10
	p := paramsAt(5 * units.GHz)

	if _, err := NewFFTOperator(mildSurface(m, L, 0.01*um), p, 0, Options{}); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("order rejection classified %v, want invalid-input", resilience.Classify(err))
	}

	c := surface.NewGaussianCorr(1*um, 1.5*um)
	steep := surface.NewKL(c, L, m).SampleTruncated(rng.New(4), 8)
	_, err := NewFFTOperator(steep, p, 3, Options{})
	if resilience.Classify(err) != resilience.KindNumerical {
		t.Fatalf("bound rejection classified %v, want numerical", resilience.Classify(err))
	}
}

func TestFFTOperatorSolveHonorsCancellation(t *testing.T) {
	L := 5 * um
	m := 12
	s := mildSurface(m, L, 0.01*um)
	p := paramsAt(5 * units.GHz)
	op, err := NewFFTOperator(s, p, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := op.Solve(ctx, op.RHS(p), 1e-12); resilience.Classify(err) != resilience.KindCanceled {
		t.Fatalf("cancelled solve classified %v (err %v), want canceled", resilience.Classify(err), err)
	}
}

func TestFFTOperatorBuildWorkersBitwise(t *testing.T) {
	L := 5 * um
	m := 10
	s := mildSurface(m, L, 0.05*um)
	p := paramsAt(5 * units.GHz)

	op1, err := NewFFTOperator(s, p, 3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	opN, err := NewFFTOperator(s, p, 3, Options{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The spectral families parity forbids are never transformed (nil).
	families := func(k kernelFamilies) [4][][]complex128 { return [4][][]complex128{k.g, k.gx, k.gy, k.gz} }
	for med := 0; med < 2; med++ {
		for what, pair := range map[string][2]kernelFamilies{
			"kernel fit":      {op1.realK[med], opN.realK[med]},
			"spectral kernel": {op1.spec[med], opN.spec[med]},
		} {
			a, b := families(pair[0]), families(pair[1])
			for f := range a {
				for q := 0; q <= 3; q++ {
					if !slices.Equal(a[f][q], b[f][q]) || (a[f][q] == nil) != (b[f][q] == nil) {
						t.Fatalf("%s differs between worker counts at med=%d family=%d q=%d", what, med, f, q)
					}
				}
			}
		}
	}
	if len(op1.nearEntries) != len(opN.nearEntries) {
		t.Fatalf("near-entry counts differ: %d vs %d", len(op1.nearEntries), len(opN.nearEntries))
	}
	for i := range op1.nearEntries {
		if op1.nearEntries[i] != opN.nearEntries[i] {
			t.Fatalf("near entry %d differs between worker counts", i)
		}
	}
}

func TestFFTOperatorTabulatedMatchesExactBuild(t *testing.T) {
	L := 5 * um
	m := 12
	s := mildSurface(m, L, 0.05*um)
	p := paramsAt(5 * units.GHz)
	opt := Options{}
	ts := NewTableSet(p, L, m, 10*um, opt)

	exact, err := NewFFTOperator(s, p, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewFFTOperatorTabulated(s, p, ts, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	n2 := 2 * m * m
	x := make([]complex128, n2)
	for i := range x {
		x[i] = complex(math.Sin(float64(3*i+1)), math.Cos(float64(2*i+1)))
	}
	ye := make([]complex128, n2)
	yt := make([]complex128, n2)
	exact.MatVec(ye, x)
	tab.MatVec(yt, x)
	if d := cmplxmat.Norm2(cmplxmat.Sub(yt, ye)) / cmplxmat.Norm2(ye); d > 1e-6 {
		t.Fatalf("tabulated operator matvec deviates from exact build by %g", d)
	}
}
