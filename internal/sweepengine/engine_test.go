package sweepengine

import (
	"context"
	"errors"
	"math"
	"testing"

	"roughsim/internal/core"
	"roughsim/internal/mom"
	"roughsim/internal/resilience"
	"roughsim/internal/sscm"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

const um = 1e-6

// testEngine builds a small tabulated solver and KL process matching
// the service tier's tiny test config (σ=0.4 μm, η=1 μm, 8×8 grid,
// d=2).
func testEngine(t *testing.T) (*Engine, *surface.KL) {
	t.Helper()
	sigma := 0.4 * um
	c := surface.NewGaussianCorr(sigma, 1*um)
	L := 5 * um
	M := 8
	kl := surface.NewKL(c, L, M)
	solver, err := core.NewSolverTabulated(core.PaperMaterial(), L, M, 14*sigma, mom.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &Engine{Solver: solver, Synth: kl.Synthesize, Dim: 2}, kl
}

// pointAtATime is the per-node SSCM reference: every collocation node
// solved on its own through an independent solver's LossFactor, then
// projected.
func pointAtATime(t *testing.T, solver *core.Solver, kl *surface.KL, d, order int, f float64) *sscm.Result {
	t.Helper()
	nodes, err := sscm.Nodes(d, order)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(nodes))
	for j, xi := range nodes {
		if vals[j], err = solver.LossFactor(kl.Synthesize(xi), f); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sscm.FromValues(d, order, vals)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExactModeMatchesPointAtATime: a short sweep (fewer frequencies
// than anchors) takes the exact per-frequency path, which must be
// bitwise identical to evaluating the collocation by hand through an
// independent solver, at both SSCM orders the exhibits use.
func TestExactModeMatchesPointAtATime(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	for _, order := range []int{1, 2} {
		eng, kl := testEngine(t)
		eng.Order = order
		freqs := []float64{4 * units.GHz, 5 * units.GHz}
		res, err := eng.Run(context.Background(), freqs)
		if err != nil {
			t.Fatal(err)
		}
		if res.AnchorsUsed != 0 {
			t.Fatalf("order %d: short sweep used %d anchors, want exact path", order, res.AnchorsUsed)
		}

		base, err := core.NewSolverTabulated(core.PaperMaterial(), eng.Solver.L, eng.Solver.M, eng.Solver.ZSpan, mom.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for fi, f := range freqs {
			want := pointAtATime(t, base, kl, eng.Dim, order, f)
			if res.Mean[fi] != want.Mean {
				t.Fatalf("order %d, f=%g: batched mean %v != point-at-a-time %v",
					order, f, res.Mean[fi], want.Mean)
			}
		}
	}
}

// TestInterpMatchesExact: the broadband path's K, interpolated between
// exact anchor solves, must agree with the exact path across the whole
// band. The bound is twice the worst deviation measured on this sweep
// (2.9e-9), well inside the solver tolerance regime.
func TestInterpMatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	eng, _ := testEngine(t)
	freqs := make([]float64, 8)
	for i := range freqs {
		freqs[i] = (4 + 2*float64(i)/7) * units.GHz
	}

	eng.Anchors = len(freqs) // ≥ len(freqs) → exact path
	exact, err := eng.Run(context.Background(), freqs)
	if err != nil {
		t.Fatal(err)
	}
	if exact.AnchorsUsed != 0 {
		t.Fatal("forced exact run still interpolated")
	}

	eng.Anchors = 5
	interp, err := eng.Run(context.Background(), freqs)
	if err != nil {
		t.Fatal(err)
	}
	if interp.AnchorsUsed != 5 {
		t.Fatalf("anchors used = %d, want 5", interp.AnchorsUsed)
	}
	for fi, f := range freqs {
		ke, ki := exact.Mean[fi], interp.Mean[fi]
		if ke <= 1 {
			t.Fatalf("f=%g: exact K = %g, want > 1", f, ke)
		}
		if d := math.Abs(ki-ke) / ke; d > 5.8e-9 {
			t.Fatalf("f=%g: interp K %v vs exact %v (rel %g)", f, ki, ke, d)
		}
	}
}

// TestRunCancelled: a pre-cancelled context must stop the sweep with
// ctx's error.
func TestRunCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	eng, _ := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, []float64{4 * units.GHz, 5 * units.GHz}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	eng, _ := testEngine(t)
	if _, err := eng.Run(context.Background(), nil); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("empty freqs: %v", err)
	}
	if _, err := (&Engine{}).Run(context.Background(), []float64{1e9}); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("missing solver: %v", err)
	}
}

// TestBaryWeights: the barycentric basis must be a partition of unity,
// collapse to a delta at a node, and reproduce polynomials of degree
// n−1 exactly (to round-off).
func TestBaryWeights(t *testing.T) {
	xs := ChebAnchors(6, 2, 3)
	for _, x := range []float64{2.0, 2.31, 2.5, 2.97, 3.0} {
		w := BaryWeights(xs, x)
		var sum float64
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("x=%g: weights sum to %g", x, sum)
		}
		// Reproduce p(t) = t³ − 2t + 1 (degree 3 < 6 nodes).
		p := func(t float64) float64 { return t*t*t - 2*t + 1 }
		var got float64
		for a, v := range w {
			got += v * p(xs[a])
		}
		if math.Abs(got-p(x)) > 1e-10*(1+math.Abs(p(x))) {
			t.Fatalf("x=%g: interp %g vs exact %g", x, got, p(x))
		}
	}
	w := BaryWeights(xs, xs[2])
	for a, v := range w {
		want := 0.0
		if a == 2 {
			want = 1
		}
		if v != want {
			t.Fatalf("coincident node weights %v", w)
		}
	}
}
