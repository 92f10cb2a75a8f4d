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
	"roughsim/internal/trace"
	"roughsim/internal/units"
)

// lazySystem builds s's matrix-free system through Build (s must have
// no lattice-shift invariance) under a trace, on whose context the test
// solves it, so tests can count its dense assemblies — the trace's
// mom.assemble spans — and assert the fft-gmres fast path never
// materializes the matrix.
func lazySystem(t *testing.T, s *surface.Surface, p Params, ts *TableSet) (context.Context, *System, *trace.Trace) {
	t.Helper()
	tr := trace.New("lazy")
	ctx := trace.ContextWithSpan(context.Background(), tr.Root())
	sys, err := Build(ctx, s, p, ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Orbits() > 0 {
		t.Fatal("surface built on the quotient lattice")
	}
	return ctx, sys, tr
}

// spanCount is how many spans called name tr ran.
func spanCount(tr *trace.Trace, name string) int64 {
	for _, st := range tr.Summary().Stages {
		if st.Name == name {
			return st.Count
		}
	}
	return 0
}

// m20Tables returns the M = 20 test surface of roughness sigma on an
// L = 5 µm patch, its physics at 5 GHz and Green's tables spanning 14σ.
func m20Tables(sigma float64) (*surface.Surface, Params, *TableSet) {
	const L, m = 5 * um, 20
	p := paramsAt(5 * units.GHz)
	return mildSurface(m, L, sigma), p, NewTableSet(p, L, m, 14*sigma, Options{})
}

// tabulatedDenseSolve solves s's dense system assembled from ts by the
// chain: the reference of the matrix-free solves.
func tabulatedDenseSolve(t *testing.T, s *surface.Surface, p Params, ts *TableSet) *Solution {
	t.Helper()
	dsys, err := AssembleTabulated(s, p, ts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := dsys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestChainFFTStageWinsAndMatchesDense(t *testing.T) {
	s, p, ts := m20Tables(0.01 * um)

	ctx, sys, tr := lazySystem(t, s, p, ts)
	if !sys.FFTAdmitted() {
		t.Fatalf("surface not admitted: %v", sys.fftRej)
	}
	sol, err := sys.SolveResilient(ctx, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report.Winner != StageFFT {
		for _, f := range sol.Report.Failed {
			t.Logf("stage %q failed: %v", f.Stage, f.Err)
		}
		t.Fatalf("winner = %q, want %q", sol.Report.Winner, StageFFT)
	}
	if n := spanCount(tr, "mom.assemble"); n != 0 || sys.DenseAssembled() {
		t.Fatalf("fft win materialized the dense matrix (%d calls)", n)
	}

	denseSol := tabulatedDenseSolve(t, s, p, ts)
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
	ts := NewTableSet(p, L, m, h, Options{})

	ctx, sys, tr := lazySystem(t, s, p, ts)
	if !sys.FFTAdmitted() {
		t.Fatalf("surface not admitted: %v", sys.fftRej)
	}
	sol, err := sys.SolveResilient(ctx, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report.Winner != StageFFT {
		t.Fatalf("winner = %q, want %q", sol.Report.Winner, StageFFT)
	}
	if n := spanCount(tr, "mom.assemble"); n != 0 || sys.DenseAssembled() {
		t.Fatalf("fft win materialized the dense matrix (%d calls)", n)
	}

	denseSol := tabulatedDenseSolve(t, s, p, ts)
	if d := math.Abs(sol.Pabs-denseSol.Pabs) / math.Abs(denseSol.Pabs); d > 1e-6 {
		t.Fatalf("fft-chain Pabs %g vs tabulated dense chain %g (rel dev %g)", sol.Pabs, denseSol.Pabs, d)
	}
}

func TestChainOverBoundSurfaceSkipsFFTWithoutRetry(t *testing.T) {
	// σ = 0.08 μm on the M = 20 grid: its a-priori model error (≫ 1e-6)
	// fails the chain's fftModelTol gate.
	s, p, ts := m20Tables(0.08 * um)

	ctx, sys, tr := lazySystem(t, s, p, ts)
	if sys.FFTAdmitted() {
		t.Fatal("over-bound surface unexpectedly admitted")
	}
	if kind := resilience.Classify(sys.fftRej); kind != resilience.KindNumerical {
		t.Fatalf("rejection kind = %v, want numerical", kind)
	}
	// The deterministic rejection never enters the chain: gmres is its
	// first stage, and no stage fails.
	sol, err := sys.SolveResilient(ctx, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report.Winner != StageGMRES {
		t.Fatalf("winner = %q, want %q", sol.Report.Winner, StageGMRES)
	}
	if len(sol.Report.Failed) != 0 {
		t.Fatalf("rejected surface recorded failed stages %+v", sol.Report.Failed)
	}
	if n := spanCount(tr, "mom.assemble"); n != 1 || !sys.DenseAssembled() {
		t.Fatalf("dense matrix materialized %d times, want exactly once", n)
	}
}

func TestChainInjectedFFTFailureFallsBack(t *testing.T) {
	s, p, ts := m20Tables(0.01 * um)

	ctx, sys, tr := lazySystem(t, s, p, ts)
	if !sys.FFTAdmitted() {
		t.Fatalf("surface not admitted: %v", sys.fftRej)
	}
	inj := resilience.NewInjector(resilience.FaultSpec{
		Op: StageFFT, Fraction: 1, Kind: resilience.KindConvergence,
	})
	sol, err := sys.SolveResilient(ctx, SolveOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	// The chain has two stages: a failed fft-gmres goes straight to LU.
	// The injected failure is the stage's whole outcome: it never runs,
	// so it opens no mom.fft.solve span.
	failed := sol.Report.Failed
	var fault *resilience.InjectedFault
	if len(failed) != 1 || failed[0].Stage != StageFFT || !errors.As(failed[0].Err, &fault) ||
		resilience.Classify(failed[0].Err) != resilience.KindConvergence {
		t.Fatalf("failed stages = %+v, want one injected convergence failure of fft-gmres", failed)
	}
	if sol.Report.Winner != StageDenseLU {
		t.Fatalf("winner = %q, want %q", sol.Report.Winner, StageDenseLU)
	}
	if spanCount(tr, "mom.fft.solve") != 0 {
		t.Fatal("the injected fft-gmres stage ran")
	}
	if n := spanCount(tr, "mom.assemble"); n != 1 {
		t.Fatalf("dense materializations = %d, want 1", n)
	}

	denseSol := tabulatedDenseSolve(t, s, p, ts)
	if d := math.Abs(sol.Pabs-denseSol.Pabs) / denseSol.Pabs; d > 1e-6 {
		t.Fatalf("fallback Pabs %g vs dense-chain %g (rel dev %g)", sol.Pabs, denseSol.Pabs, d)
	}
}

func TestChainSmallGridSkipsFFTStage(t *testing.T) {
	L := 5 * um
	m := 8 // 64 cells < fftMinCells
	s := mildSurface(m, L, 0.01*um)
	p := paramsAt(5 * units.GHz)

	ctx, sys, tr := lazySystem(t, s, p, nil)
	if sys.FFTAdmitted() {
		t.Fatal("small grid unexpectedly admitted to the FFT stage")
	}
	sol, err := sys.SolveResilient(ctx, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report.Winner != StageGMRES {
		t.Fatalf("winner = %q, want %q", sol.Report.Winner, StageGMRES)
	}
	if n := spanCount(tr, "mom.assemble"); n != 1 {
		t.Fatalf("dense materializations = %d, want 1", n)
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
