package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"roughsim"
	"roughsim/internal/core"
	"roughsim/internal/mom"
	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// The ablation exhibits quantify the design choices DESIGN.md calls out:
// grid resolution, KL truncation depth, and the relative cost of the
// solver paths. They are regenerated by `cmd/figures -fig ablation-…`
// and timed by the repository benchmarks.

// AblationGrid sweeps the patch grid for one deterministic surface and
// reports K(M): the discretization-convergence exhibit backing the
// paper's Δ = η/8 rule.
func AblationGrid(cfg Config) (*Result, error) {
	f := 5 * units.GHz
	mat := core.PaperMaterial()
	eta := 1 * um
	L := cfg.LOverEta * eta
	grids := []int{8, 12, 16, 20}
	if cfg.M >= 24 {
		grids = append(grids, 24, 32)
	}
	s := Series{Label: "K"}
	cells := Series{Label: "cells per η"}
	for _, m := range grids {
		solver, err := core.NewSolver(mat, L, m, mom.Options{})
		if err != nil {
			return nil, err
		}
		// One fixed continuous surface (an explicit two-mode cosine
		// pattern), resampled on each grid.
		surf := surface.NewFlat(L, m)
		h := surf.Step()
		for iy := 0; iy < m; iy++ {
			for ix := 0; ix < m; ix++ {
				x := float64(ix) * h
				y := float64(iy) * h
				tp := 2 * math.Pi / L
				surf.H[iy*m+ix] = 0.5*um*math.Cos(2*tp*x)*math.Cos(tp*y) +
					0.3*um*math.Cos(tp*x+2*tp*y)
			}
		}
		k, err := solver.LossFactor(surf, f)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation grid M=%d: %w", m, err)
		}
		s.X = append(s.X, float64(m))
		s.Y = append(s.Y, k)
		cells.X = append(cells.X, float64(m))
		cells.Y = append(cells.Y, float64(m)/(L/eta))
	}
	return &Result{
		Name:   "ablation-grid",
		Title:  "grid convergence of K (deterministic surface, 5 GHz)",
		XLabel: "M (grid per side)",
		YLabel: "Pr/Ps",
		Series: []Series{s, cells},
		Notes:  []string{"the KL modes are resampled on each grid: same continuous surface"},
	}, nil
}

// AblationKLDepth sweeps the stochastic truncation d and reports the
// captured variance and the SSCM mean K: how many KL modes the Table I
// dimension really needs.
func AblationKLDepth(cfg Config) (*Result, error) {
	f := 5 * units.GHz
	spec := roughsim.SurfaceSpec{Corr: roughsim.GaussianCF, Sigma: 1 * um, Eta: 1 * um}
	// One table cache: every depth solves the same frequency on the same
	// grid, so the Green's tables are built once.
	tables := roughsim.NewTableCache(nil)

	depths := []int{4, 8, 12, 16}
	if cfg.KLDim > 16 {
		depths = append(depths, cfg.KLDim)
	}
	capt := Series{Label: "captured variance"}
	mean := Series{Label: "mean K (1st-SSCM)"}
	for _, d := range depths {
		sim, err := cfg.simulation(spec, d)
		if err != nil {
			return nil, err
		}
		k, err := sim.WithTableCache(tables).MeanLossFactor(f)
		if err != nil {
			return nil, err
		}
		dim := float64(sim.StochasticDim())
		capt.X = append(capt.X, dim)
		capt.Y = append(capt.Y, sim.CapturedVariance())
		mean.X = append(mean.X, dim)
		mean.Y = append(mean.Y, k)
	}
	return &Result{
		Name:   "ablation-kl",
		Title:  "KL truncation depth vs captured variance and mean K (σ=η=1 μm, 5 GHz)",
		XLabel: "d (KL modes)",
		YLabel: "value",
		Series: []Series{capt, mean},
	}, nil
}

// AblationSolvers times the assembly/solve paths at one problem size:
// the cost accounting behind the tabulation and iterative-solver claims.
func AblationSolvers(cfg Config) (*Result, error) {
	f := 5 * units.GHz
	mat := core.PaperMaterial()
	p := mat.Params(f)
	eta := 1 * um
	L := cfg.LOverEta * eta
	m := cfg.M
	// Shallow enough for the FFT operator's convergence bound at every
	// configured grid.
	kl := surface.NewKL(surface.NewGaussianCorr(0.04*um, eta), L, m)
	surf := kl.SampleTruncated(rng.New(13), 8)

	res := &Result{
		Name:   "ablation-solvers",
		Title:  fmt.Sprintf("solver path timings (M=%d, N=%d)", m, m*m),
		XLabel: "path",
		YLabel: "ms",
	}
	timeIt := func(fn func() error) (float64, error) {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		return float64(time.Since(start).Microseconds()) / 1000, nil
	}
	opt := mom.Options{}

	var sys *mom.System
	tAssemble, err := timeIt(func() error { sys = mom.Assemble(surf, p, opt); return nil })
	if err != nil {
		return nil, err
	}
	var ts *mom.TableSet
	tTable, err := timeIt(func() error { ts = mom.NewTableSet(p, L, m, 10*um, opt); return nil })
	if err != nil {
		return nil, err
	}
	tTab, err := timeIt(func() error { _, e := mom.AssembleTabulated(surf, p, ts, opt); return e })
	if err != nil {
		return nil, err
	}
	tDense, err := timeIt(func() error { _, e := sys.Solve(); return e })
	if err != nil {
		return nil, err
	}
	tGMRES, err := timeIt(func() error {
		_, e := sys.SolveResilient(context.Background(), mom.SolveOptions{})
		return e
	})
	if err != nil {
		return nil, err
	}
	var op *mom.FFTOperator
	tFFTBuild, err := timeIt(func() error { var e error; op, e = mom.NewFFTOperator(surf, p, 4, opt); return e })
	if err != nil {
		return nil, err
	}
	tFFT, err := timeIt(func() error { _, _, e := op.Solve(context.Background(), op.RHS(p), 1e-8); return e })
	if err != nil {
		return nil, err
	}

	labels := []string{"assemble-exact", "table-build", "assemble-tabulated",
		"solve-dense-LU", "solve-GMRES", "fftop-build", "fftop-solve"}
	vals := []float64{tAssemble, tTable, tTab, tDense, tGMRES, tFFTBuild, tFFT}
	s := Series{Label: "time (ms)"}
	for i := range labels {
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, vals[i])
		res.Notes = append(res.Notes, fmt.Sprintf("%d: %s", i+1, labels[i]))
	}
	res.Series = []Series{s}
	return res, nil
}
