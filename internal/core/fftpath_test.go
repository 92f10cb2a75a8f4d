package core

import (
	"context"
	"fmt"
	"math"
	"slices"
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
	M := 20
	f := 5 * units.GHz
	c := surface.NewGaussianCorr(0.01*um, L/4)
	surf := surface.NewKL(c, L, M).SampleTruncated(rng.New(17), 10)

	s, err := NewSolverTabulated(PaperMaterial(), L, M, 14*0.01*um, mom.Options{})
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

	// The dense chain on the same tables must agree to the model
	// tolerance — the ratio K cancels most of the residual model error.
	ctx := context.Background()
	dsys, err := mom.AssembleTabulated(surf, s.Mat.Params(f), s.tableFor(ctx, f), mom.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dsol, err := dsys.SolveResilient(ctx, mom.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.flatRef(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	kd := dsol.Pabs / ref.pabs
	if dev := math.Abs(k-kd) / kd; dev > 1e-6 {
		t.Fatalf("fft-path K %g vs dense-path K %g (rel dev %g)", k, kd, dev)
	}
	if dsol.Report.Winner != mom.StageGMRES {
		t.Fatalf("dense chain won %q, want %q", dsol.Report.Winner, mom.StageGMRES)
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
	M := 20
	f := 5 * units.GHz
	c := surface.NewGaussianCorr(0.08*um, L/4)
	surf := surface.NewKL(c, L, M).SampleTruncated(rng.New(17), 10)

	s, err := NewSolverTabulated(PaperMaterial(), L, M, 14*0.08*um, mom.Options{})
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
	M := 20
	f := 5 * units.GHz
	c := surface.NewGaussianCorr(0.01*um, L/4)
	surf := surface.NewKL(c, L, M).SampleTruncated(rng.New(17), 10)
	s, err := NewSolverTabulated(PaperMaterial(), L, M, 14*0.01*um, mom.Options{})
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
	sys, err := s.build(ctx, surf, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.SolveResilient(ctx, mom.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pre >= plain.Report.MatVecs {
		t.Fatalf("prepared system took %d matvecs, unpreconditioned %d", pre, plain.Report.MatVecs)
	}
	t.Logf("matvecs: %d preconditioned, %d plain", pre, plain.Report.MatVecs)
}

// TestBuildPathAccounting pins what each system-build path reports
// through LossFactorsCtx on a mirror pair — the counters the benchmark
// divides and the spans it reads by name: a first-order KL node builds
// on the quotient lattice (a mom.assemble span with its orbits), an
// admitted surface builds its FFT operator (mom.fft.build) and never
// assembles a dense matrix, and an over-bound one is rejected
// (mom.fft.build with rejected) and assembles its dense matrix once,
// lazily under the mom.solve that needs it; the mirror flips that
// matrix in place instead of assembling it again. The frequency's
// tables build once, under the flat reference, beside its mom.assemble.
func TestBuildPathAccounting(t *testing.T) {
	const L = 5 * um
	f := 5 * units.GHz
	node := make([]float64, 4)
	node[1] = 1.7
	for _, tc := range []struct {
		name                                string
		m                                   int
		sigma                               float64
		xi                                  []float64
		quotient, admitted, rejected, dense int64
		spans                               []string
	}{
		{"quotient", 8, 0.1 * um, node, 3, 0, 0, 0, []string{
			"flat.reference > flat.inverse{}",
			"flat.reference > mom.assemble{f,orbits}",
			"flat.reference > mom.solve{attempts,matvecs,winner}",
			"flat.reference > tables.build{grid}",
			"job > flat.reference{f}",
			"job > mom.assemble{f,orbits}",
			"job > mom.mirror{f}",
			"job > mom.solve{attempts,matvecs,winner}",
			"job > mom.solve{attempts,matvecs,winner}",
		}},
		{"fft admitted", 20, 0.015 * um, rng.New(5).NormVec(6), 1, 1, 0, 0, []string{
			"flat.reference > flat.inverse{}",
			"flat.reference > mom.assemble{f,orbits}",
			"flat.reference > mom.solve{attempts,matvecs,winner}",
			"flat.reference > tables.build{grid}",
			"job > flat.reference{f}",
			"job > mom.fft.build{f}",
			"job > mom.mirror{f}",
			"job > mom.solve{attempts,matvecs,winner}",
			"job > mom.solve{attempts,matvecs,winner}",
			"mom.solve > mom.fft.solve{}",
			"mom.solve > mom.fft.solve{}",
		}},
		{"fft rejected", 20, 0.08 * um, rng.New(5).NormVec(6), 1, 0, 1, 1, []string{
			"flat.reference > flat.inverse{}",
			"flat.reference > mom.assemble{f,orbits}",
			"flat.reference > mom.solve{attempts,matvecs,winner}",
			"flat.reference > tables.build{grid}",
			"job > flat.reference{f}",
			"job > mom.fft.build{f,rejected}",
			"job > mom.mirror{f}",
			"job > mom.solve{attempts,matvecs,winner}",
			"job > mom.solve{attempts,matvecs,winner}",
			"mom.solve > mom.assemble{f}",
		}},
	} {
		s, err := NewSolverTabulated(PaperMaterial(), L, tc.m, 14*tc.sigma, mom.Options{})
		if err != nil {
			t.Fatal(err)
		}
		kl := surface.NewKL(surface.NewGaussianCorr(tc.sigma, 1*um), L, tc.m)
		neg := make([]float64, len(tc.xi))
		for i, v := range tc.xi {
			neg[i] = -v
		}
		pair := []*surface.Surface{kl.Synthesize(tc.xi), kl.Synthesize(neg)}
		tr := trace.New("accounting")
		if _, err := s.LossFactorsCtx(trace.ContextWithSpan(context.Background(), tr.Root()), pair, f, 0); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for name, want := range map[string]int64{
			"solve.quotient":           tc.quotient,
			"solve.fft_admitted":       tc.admitted,
			"solve.fft_rejected":       tc.rejected,
			"solve.dense_materialized": tc.dense,
		} {
			if got := counter(s, name); got != want {
				t.Errorf("%s: %s = %d, want %d", tc.name, name, got, want)
			}
		}
		var got []string
		var walk func(*trace.SpanSummary)
		walk = func(sp *trace.SpanSummary) {
			for _, c := range sp.Children {
				var keys []string
				for k := range c.Attrs {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				got = append(got, fmt.Sprintf("%s > %s{%s}", sp.Name, c.Name, strings.Join(keys, ",")))
				walk(c)
			}
		}
		walk(tr.Summary().Spans)
		slices.Sort(got)
		if !slices.Equal(got, tc.spans) {
			t.Errorf("%s: spans\n  %s\nwant\n  %s", tc.name, strings.Join(got, "\n  "), strings.Join(tc.spans, "\n  "))
		}
	}
}
