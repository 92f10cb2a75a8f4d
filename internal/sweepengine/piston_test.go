package sweepengine

import (
	"context"
	"slices"
	"testing"

	"roughsim/internal/core"
	"roughsim/internal/mom"
	"roughsim/internal/sscm"
	"roughsim/internal/surface"
	"roughsim/internal/telemetry"
	"roughsim/internal/units"
)

// TestPistonNodesAreRigidShifts pins why the first-order grid's ±ξ₁
// nodes cost no solve: for the Gaussian CF the first KL mode is the DC
// mode, so those nodes synthesize rigid shifts f ≡ ±c, whose loss factor
// is exactly 1 (core.Solver.RigidShift). Both bench solver workloads'
// physics are checked — the exact path at M = 20, σ = 15 nm and the
// broadband path at M = 8, σ = 0.33 µm; every solve of either runs on
// the quotient lattice.
func TestPistonNodesAreRigidShifts(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	band := make([]float64, 8)
	for i := range band {
		band[i] = (1 + 4*float64(i)/7) * units.GHz
	}
	for _, tc := range []struct {
		name    string
		sigma   float64
		m       int
		freqs   []float64
		anchors int
	}{
		{"exact M=20 σ=15nm", 0.015 * um, 20, []float64{4 * units.GHz, 5 * units.GHz}, 0},
		{"interp M=8 σ=0.33µm", 0.33 * um, 8, band, 5},
	} {
		kl := surface.NewKL(surface.NewGaussianCorr(tc.sigma, 1*um), 5*um, tc.m)
		if md := kl.Modes[0]; md.Mx != 0 || md.My != 0 {
			t.Fatalf("%s: KL mode 1 is (%d, %d), want the DC mode", tc.name, md.Mx, md.My)
		}
		nodes, err := sscm.Nodes(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		var piston []int
		for j, xi := range nodes {
			if xi[0] == 0 || xi[1] != 0 {
				continue
			}
			piston = append(piston, j)
			h := kl.Synthesize(xi).H
			for i, v := range h {
				if v != h[0] {
					t.Fatalf("%s: node ξ = %v: height %d is %g, cell 0 has %g", tc.name, xi, i, v, h[0])
				}
			}
		}
		if len(piston) != 2 {
			t.Fatalf("%s: %d nodes on the ξ₁ axis, want 2", tc.name, len(piston))
		}

		solver, err := core.NewSolverTabulated(core.PaperMaterial(), 5*um, tc.m, 14*tc.sigma, mom.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		solver.Metrics = reg
		eng := &Engine{Solver: solver, Synth: kl.Synthesize, Dim: 2, Anchors: tc.anchors, Metrics: reg}
		cp, err := eng.PlanColumns(tc.freqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range cp.Nodes {
			if slices.Contains(piston, j) {
				t.Fatalf("%s: piston node %d planned for a solve", tc.name, j)
			}
		}
		res, err := eng.Run(context.Background(), tc.freqs)
		if err != nil {
			t.Fatal(err)
		}
		if (res.AnchorsUsed > 0) != (tc.anchors > 0) {
			t.Fatalf("%s: sweep used %d anchors", tc.name, res.AnchorsUsed)
		}
		// Each first-order node is one KL mode, so every solve — the
		// flat reference and the planned nodes — ran on the quotient
		// lattice.
		if got, want := reg.Counter("solve.quotient").Value(), reg.Counter("solve.count").Value(); got != want {
			t.Errorf("%s: %d of %d solves ran on the quotient lattice", tc.name, got, want)
		}
		// Only the flat reference and the planned nodes were solved, once
		// per solve frequency (the anchors on the broadband path).
		ns := len(tc.freqs)
		if tc.anchors > 0 {
			ns = tc.anchors
		}
		if got := reg.Counter("sweep.node_solves").Value(); got != int64(len(cp.Nodes)) {
			t.Errorf("%s: %d node solves, want %d", tc.name, got, len(cp.Nodes))
		}
		if got, want := reg.Counter("solve.count").Value(), int64(ns*(1+len(cp.Nodes))); got != want {
			t.Errorf("%s: %d solves, want %d (flat reference and %d nodes per solve frequency)", tc.name, got, want, len(cp.Nodes))
		}
		for fi, f := range tc.freqs {
			for _, j := range piston {
				if k := res.Values[fi][j]; k != 1 {
					t.Errorf("%s: K(%g Hz, ξ = %v) = 1 %+.3g, want exactly 1", tc.name, f, nodes[j], k-1)
				}
			}
		}
	}
}
