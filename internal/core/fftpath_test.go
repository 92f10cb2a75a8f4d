package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"roughsim/internal/mom"
	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
	"roughsim/internal/units"
)

// TestSolverFFTFastPath runs a production-style loss-factor solve on an
// admissible surface and asserts the acceptance invariant of the FFT
// fast path: the rough solve wins the fft-gmres stage,
// solve.stage_win.fft-gmres accounting records it, and zero dense
// matrices are materialized on the way — while the K value matches the
// dense chain. The flat reference solves on the quotient lattice: its
// two-unknown system wins plain gmres, counted in solve.quotient.
func TestSolverFFTFastPath(t *testing.T) {
	L := 5 * um
	M := 12
	f := 5 * units.GHz
	c := surface.NewGaussianCorr(0.01*um, L/4)
	surf := surface.NewKL(c, L, M).SampleTruncated(rng.New(17), 10)

	opt := mom.Options{FFTMinCells: 1} // production gates, test-size grid
	s, err := NewSolverTabulated(PaperMaterial(), L, M, 10*um, opt)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.Metrics = reg

	tr := trace.New("fft-fast-path")
	k, err := s.LossFactorCtx(trace.ContextWithSpan(context.Background(), tr.Root()), surf, f)
	if err != nil {
		t.Fatal(err)
	}
	// The fft-gmres stage runs inside the resilient chain, so its span
	// nests under the rough solve's mom.solve span.
	parents := spanParents(tr.Summary().Spans, "mom.fft.solve")
	if len(parents) != 1 || parents[0] != "mom.solve" {
		t.Fatalf("mom.fft.solve parents = %v, want [mom.solve]", parents)
	}

	if got := reg.Counter("solve.stage_win." + mom.StageFFT).Value(); got != 1 { // the rough solve
		t.Fatalf("solve.stage_win.fft-gmres = %d, want 1", got)
	}
	if got := reg.Counter("solve.stage_win." + mom.StageGMRES).Value(); got != 1 { // the flat reference
		t.Fatalf("solve.stage_win.gmres = %d, want 1", got)
	}
	if got := reg.Counter("solve.fallbacks").Value(); got != 0 {
		t.Fatalf("solve.fallbacks = %d, want 0", got)
	}
	if got := reg.Counter("solve.quotient").Value(); got != 1 {
		t.Fatalf("solve.quotient = %d, want 1", got)
	}
	if got := reg.Counter("solve.dense_materialized").Value(); got != 0 {
		t.Fatalf("dense materializations = %d, want 0", got)
	}
	if got := reg.Counter("solve.fft_admitted").Value(); got != 1 {
		t.Fatalf("solve.fft_admitted = %d, want 1", got)
	}

	// The dense chain (grid below the FFT threshold) must agree to the
	// model tolerance — the ratio K cancels most of the residual model
	// error.
	ds, err := NewSolverTabulated(PaperMaterial(), L, M, 10*um, mom.Options{FFTMinCells: M*M + 1})
	if err != nil {
		t.Fatal(err)
	}
	kd, err := ds.LossFactorCtx(context.Background(), surf, f)
	if err != nil {
		t.Fatal(err)
	}
	if dev := math.Abs(k-kd) / kd; dev > 1e-6 {
		t.Fatalf("fft-path K %g vs dense-path K %g (rel dev %g)", k, kd, dev)
	}
	if got := ds.Metrics.Counter("solve.stage_win." + mom.StageFFT).Value(); got != 0 {
		t.Fatalf("disabled FFT stage still won %d solves", got)
	}
}

// spanParents returns the parent span name of every span called name
// in the tree under root, in depth-first order.
func spanParents(root *trace.SpanSummary, name string) []string {
	var out []string
	for _, c := range root.Children {
		if c.Name == name {
			out = append(out, root.Name)
		}
		out = append(out, spanParents(c, name)...)
	}
	return out
}

// TestSolverFFTRejectionAccounting checks that an over-bound surface is
// recorded once, in solve.fft_rejected (not as a stage failure or a
// fallback), and solved through the dense chain, whose lazily
// materialized mom.assemble span nests under the mom.solve span that
// forced it.
func TestSolverFFTRejectionAccounting(t *testing.T) {
	L := 5 * um
	M := 12
	f := 5 * units.GHz
	c := surface.NewGaussianCorr(0.08*um, L/4)
	surf := surface.NewKL(c, L, M).SampleTruncated(rng.New(17), 10)

	opt := mom.Options{FFTMinCells: 1}
	s, err := NewSolverTabulated(PaperMaterial(), L, M, 10*um, opt)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.Metrics = reg

	tr := trace.New("fft-rejection")
	if _, err := s.LossFactorCtx(trace.ContextWithSpan(context.Background(), tr.Root()), surf, f); err != nil {
		t.Fatal(err)
	}
	// The flat reference's quotient build and the rough surface's lazy
	// dense assembly are the two mom.assemble spans; the lazy one runs
	// inside the solve stage that needs the matrix.
	parents := spanParents(tr.Summary().Spans, "mom.assemble")
	if len(parents) != 2 || parents[0] != "flat.reference" || parents[1] != "mom.solve" {
		t.Fatalf("mom.assemble parents = %v, want [flat.reference mom.solve]", parents)
	}
	// The flat reference solves on the quotient lattice (plain gmres on
	// two unknowns); the rough solve is rejected by the FFT gates and
	// falls to dense GMRES.
	if got := reg.Counter("solve.fft_rejected").Value(); got != 1 {
		t.Fatalf("solve.fft_rejected = %d, want 1", got)
	}
	for name, n := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "solve.stage_failure.") || name == "solve.fallbacks" {
			t.Fatalf("gated-off FFT stage recorded %s = %d", name, n)
		}
	}
	if got := reg.Counter("solve.stage_win." + mom.StageGMRES).Value(); got != 2 {
		t.Fatalf("gmres wins = %d, want 2", got)
	}
	if got := reg.Counter("solve.dense_materialized").Value(); got != 1 {
		t.Fatalf("dense materializations = %d, want 1", got)
	}
}

// TestPreparedSystemsCarryFlatInverse: the flat reference wins in one
// GMRES iteration (three operator products, counted in solve.matvecs),
// and the system LossFactorsCtx solves is preconditioned by it: it
// needs fewer products than the same system without the preconditioner.
func TestPreparedSystemsCarryFlatInverse(t *testing.T) {
	L := 5 * um
	M := 12
	f := 5 * units.GHz
	c := surface.NewGaussianCorr(0.01*um, L/4)
	surf := surface.NewKL(c, L, M).SampleTruncated(rng.New(17), 10)
	s, err := NewSolverTabulated(PaperMaterial(), L, M, 10*um, mom.Options{FFTMinCells: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.Metrics = reg
	ctx := context.Background()
	if _, err := s.flatRef(ctx, f); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("solve.matvecs").Value(); got != 3 {
		t.Fatalf("flat reference took %d matvecs, want 3", got)
	}
	if _, err := s.LossFactorsCtx(ctx, []*surface.Surface{surf}, f, 0); err != nil {
		t.Fatal(err)
	}
	pre := int(reg.Counter("solve.matvecs").Value()) - 3
	plain, err := s.prepare(ctx, surf, f, 0).SolveResilient(ctx, mom.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pre >= plain.Report.MatVecs {
		t.Fatalf("prepared system took %d matvecs, unpreconditioned %d", pre, plain.Report.MatVecs)
	}
	t.Logf("matvecs: %d preconditioned, %d plain", pre, plain.Report.MatVecs)
}
