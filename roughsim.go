// Package roughsim is a Go implementation of the surface-roughness loss
// simulation methodology of Q. Chen and N. Wong, "New Simulation
// Methodology of 3D Surface Roughness Loss for Interconnects Modeling",
// DATE 2009 — scalar wave modeling (SWM) of the extra conductor loss
// caused by surface roughness, solved by a method-of-moments
// discretization of the doubly-periodic two-medium integral equations,
// with spectral stochastic collocation (SSCM) replacing Monte-Carlo over
// random surface realizations.
//
// This package is the public facade: it wraps the internal engine
// (internal/core and friends) behind a small, stable API. The typical
// flow:
//
//	stack := roughsim.CopperSiO2()
//	spec := roughsim.SurfaceSpec{Corr: roughsim.GaussianCF, Sigma: 1e-6, Eta: 1e-6}
//	sim, err := roughsim.NewSimulation(stack, spec, roughsim.Accuracy{})
//	k, err := sim.MeanLossFactor(5e9) // E[Pr/Ps] at 5 GHz via SSCM
//
// Baselines (SPM2, the hemispherical boss model and the Morgan/
// Hammerstad empirical formula) are exposed for the same stack so the
// validity comparisons of the paper can be reproduced against any
// configuration.
package roughsim

import (
	"context"
	"fmt"
	"math"

	"roughsim/internal/core"
	"roughsim/internal/hbm"
	"roughsim/internal/mom"
	"roughsim/internal/resilience"
	"roughsim/internal/spm2"
	"roughsim/internal/sscm"
	"roughsim/internal/surface"
	"roughsim/internal/sweepengine"
	"roughsim/internal/telemetry"
	"roughsim/internal/units"
)

// Stack is the two-medium material description.
type Stack struct {
	EpsR float64 `json:"eps_r"` // dielectric relative permittivity
	Rho  float64 `json:"rho"`   // conductor resistivity (Ω·m)
}

// CopperSiO2 returns the paper's stack: copper (1.67 μΩ·cm) under SiO₂
// (εr = 3.7).
func CopperSiO2() Stack { return Stack{EpsR: 3.7, Rho: units.CopperResistivity} }

// SkinDepth returns δ(f) for the stack's conductor.
func (s Stack) SkinDepth(f float64) float64 { return units.SkinDepth(s.Rho, f, units.Mu0) }

func (s Stack) material() core.Material { return core.Material{EpsR: s.EpsR, Rho: s.Rho} }

// CFKind selects a correlation-function family.
type CFKind int

const (
	// GaussianCF is C(d) = σ²·exp(−d²/η²) (the paper's primary CF).
	GaussianCF CFKind = iota
	// ExponentialCF is C(d) = σ²·exp(−d/η).
	ExponentialCF
	// MeasuredCF is the extracted CF (12): σ²·exp{−(d/η)·[1−exp(−d/Eta2)]}.
	MeasuredCF
)

// SurfaceSpec describes the random rough surface process.
type SurfaceSpec struct {
	Corr  CFKind  `json:"cf"`
	Sigma float64 `json:"sigma"`          // RMS height (m)
	Eta   float64 `json:"eta"`            // correlation length η (η₁ for MeasuredCF; ηx if EtaY set)
	Eta2  float64 `json:"eta2,omitempty"` // second correlation length (MeasuredCF only)
	// EtaY, when positive, selects an anisotropic (elliptical Gaussian)
	// process with correlation lengths Eta along x and EtaY along y —
	// e.g. rolled copper foils. Only valid with GaussianCF.
	EtaY float64 `json:"eta_y,omitempty"`
}

func (sp SurfaceSpec) corr() (surface.Corr, error) {
	if sp.EtaY > 0 && sp.Corr != GaussianCF {
		return nil, fmt.Errorf("roughsim: anisotropy (EtaY) is only supported with GaussianCF")
	}
	// Guard before the surface constructors, which panic on bad inputs.
	if !(sp.Sigma > 0) || !(sp.Eta > 0) {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "roughsim.NewSimulation",
			"surface process needs Sigma > 0 and Eta > 0 (got σ=%g, η=%g)", sp.Sigma, sp.Eta)
	}
	switch sp.Corr {
	case GaussianCF:
		return surface.NewGaussianCorr(sp.Sigma, sp.Eta), nil
	case ExponentialCF:
		return surface.NewExpCorr(sp.Sigma, sp.Eta), nil
	case MeasuredCF:
		if sp.Eta2 <= 0 {
			return nil, fmt.Errorf("roughsim: MeasuredCF needs Eta2 > 0")
		}
		return surface.NewMeasuredCorr(sp.Sigma, sp.Eta, sp.Eta2), nil
	default:
		return nil, fmt.Errorf("roughsim: unknown CF kind %d", sp.Corr)
	}
}

// Accuracy tunes the discretization; zero values select defaults that
// reproduce the paper's qualitative results in seconds per frequency.
type Accuracy struct {
	// GridPerSide is the M×M patch grid (default 16; the paper's
	// Δ = η/8 with L = 5η corresponds to 40).
	GridPerSide int `json:"grid,omitempty"`
	// PatchOverEta is L/η (default 5, the paper's choice).
	PatchOverEta float64 `json:"patch_over_eta,omitempty"`
	// StochasticDim is the KL truncation d (default 16, per Table I).
	StochasticDim int `json:"dim,omitempty"`
	// Workers bounds parallelism (default: all CPUs). Workers is an
	// execution detail: it never enters cache keys or result content.
	Workers int `json:"-"`
}

func (a Accuracy) withDefaults() Accuracy {
	if a.GridPerSide <= 0 {
		a.GridPerSide = 16
	}
	if a.PatchOverEta <= 0 {
		a.PatchOverEta = 5
	}
	if a.StochasticDim <= 0 {
		a.StochasticDim = 16
	}
	return a
}

// Simulation is a configured SWM solver over a random surface process.
type Simulation struct {
	stack   Stack
	spec    SurfaceSpec
	corr    surface.Corr
	acc     Accuracy
	solver  *core.Solver
	kl      *surface.KL
	dim     int
	metrics *telemetry.Registry
}

// WithMetrics threads a telemetry registry through the simulation: the
// underlying solver publishes solve.* counters and every SSCM /
// Monte-Carlo run publishes its driver metrics there. Stage timings
// come from trace spans and need a roughsimd trace. Call it before the
// first solve; it returns the receiver for chaining.
func (s *Simulation) WithMetrics(r *telemetry.Registry) *Simulation {
	s.metrics = r
	s.solver.Metrics = r
	s.solver.TableCache().SetMetrics(r)
	return s
}

// NewSimulation validates the configuration and builds the solver with
// per-frequency Green's-function tabulation enabled.
func NewSimulation(stack Stack, spec SurfaceSpec, acc Accuracy) (*Simulation, error) {
	c, err := spec.corr()
	if err != nil {
		return nil, err
	}
	acc = acc.withDefaults()
	// Anisotropic patches must span the larger correlation length.
	etaMax := spec.Eta
	if spec.EtaY > etaMax {
		etaMax = spec.EtaY
	}
	L := acc.PatchOverEta * etaMax
	solver, err := core.NewSolverTabulated(stack.material(), L, acc.GridPerSide,
		14*spec.Sigma, mom.Options{Workers: acc.Workers})
	if err != nil {
		return nil, err
	}
	var kl *surface.KL
	if spec.EtaY > 0 {
		kl = surface.NewKL2D(surface.NewAnisoGaussianCorr(spec.Sigma, spec.Eta, spec.EtaY), L, acc.GridPerSide)
	} else {
		kl = surface.NewKL(c, L, acc.GridPerSide)
	}
	dim := acc.StochasticDim
	if dim > len(kl.Modes) {
		dim = len(kl.Modes)
	}
	return &Simulation{stack: stack, spec: spec, corr: c, acc: acc, solver: solver, kl: kl, dim: dim}, nil
}

// LossFactor solves one explicit surface realization at frequency f and
// returns K = Pr/Ps.
func (s *Simulation) LossFactor(surf *surface.Surface, f float64) (float64, error) {
	return s.solver.LossFactor(surf, f)
}

// Surface synthesizes the realization for KL coordinates xi (iid
// standard normals; len(xi) ≤ StochasticDim modes are used).
func (s *Simulation) Surface(xi []float64) *surface.Surface { return s.kl.Synthesize(xi) }

// StochasticDim returns the effective KL truncation.
func (s *Simulation) StochasticDim() int { return s.dim }

// CapturedVariance returns the fraction of the surface variance the
// truncated KL expansion represents. Because K−1 is (to leading order)
// quadratic in the surface height, the SSCM mean under-estimates the
// excess loss by roughly this factor; comparisons across differently
// truncated processes should normalize by it.
func (s *Simulation) CapturedVariance() float64 { return s.kl.CapturedVariance(s.dim) }

// MeanLossFactor returns E[Pr/Ps] at f via first-order SSCM (2d+1 solver
// runs, per Table I).
func (s *Simulation) MeanLossFactor(f float64) (float64, error) {
	return s.MeanLossFactorCtx(context.Background(), f)
}

// MeanLossFactorCtx is MeanLossFactor honoring cancellation: a cancelled
// or expired ctx stops the underlying collocation run promptly.
func (s *Simulation) MeanLossFactorCtx(ctx context.Context, f float64) (float64, error) {
	res, err := s.SSCMCtx(ctx, f, 1)
	if err != nil {
		return 0, err
	}
	return res.PCE.Mean(), nil
}

// SSCM builds the order-p (p ≥ 1) polynomial chaos surrogate of K at f.
func (s *Simulation) SSCM(f float64, order int) (*sscm.Result, error) {
	return s.SSCMCtx(context.Background(), f, order)
}

// SSCMCtx is SSCM honoring cancellation. The collocation values come
// from a one-frequency sweep (CollocationValues), so every SSCM run in
// the library goes through the sweep engine.
func (s *Simulation) SSCMCtx(ctx context.Context, f float64, order int) (*sscm.Result, error) {
	if order < 1 {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "roughsim.SSCM",
			"order must be ≥ 1, got %d", order)
	}
	vals, err := s.CollocationValues(ctx, []float64{f}, order)
	if err != nil {
		return nil, err
	}
	return sscm.FromValues(s.dim, order, vals[0])
}

// MonteCarlo estimates the distribution of K at f by brute force over n
// surface realizations.
func (s *Simulation) MonteCarlo(f float64, n int, seed uint64) (*sweepengine.MonteCarloResult, error) {
	return s.MonteCarloCtx(context.Background(), f, n, seed, 0)
}

// MonteCarloCtx is MonteCarlo honoring cancellation and tolerating up to
// maxFailFrac (in [0, 1]) failed samples: within that budget the
// returned result is partial, carrying per-cause failure accounting over
// the samples that did solve instead of discarding the run. The samples
// run through the sweep engine (sweepengine.Engine.MonteCarlo).
func (s *Simulation) MonteCarloCtx(ctx context.Context, f float64, n int, seed uint64, maxFailFrac float64) (*sweepengine.MonteCarloResult, error) {
	return s.engine().MonteCarlo(ctx, f, n, seed, maxFailFrac)
}

// SolveStats returns the aggregated resilient-solve accounting (solve
// count, fallback count, per-stage wins and failures) of the underlying
// solver — how often the fallback chain had to go past plain GMRES.
func (s *Simulation) SolveStats() core.SolveStats { return s.solver.Stats() }

// SPM2LossFactor evaluates the second-order small-perturbation baseline
// for the simulation's surface process at f.
func (s *Simulation) SPM2LossFactor(f float64) float64 {
	p := s.stack.material().Params(f)
	sp := spm2.Params{K1: p.K1, K2: p.K2, Beta: p.Beta}
	if s.spec.EtaY > 0 {
		c := surface.NewAnisoGaussianCorr(s.spec.Sigma, s.spec.Eta, s.spec.EtaY)
		etaMin := s.spec.Eta
		if s.spec.EtaY < etaMin {
			etaMin = s.spec.EtaY
		}
		return spm2.LossFactorAniso(sp, c.PSD2D, 40/etaMin, 0, 0)
	}
	return spm2.LossFactorCorr(sp, s.corr, s.corrEta())
}

func (s *Simulation) corrEta() float64 {
	// Patch period = PatchOverEta·η at construction.
	return s.kl.L / s.acc.PatchOverEta
}

// EmpiricalLossFactor evaluates the Morgan/Hammerstad formula (1) for
// the process σ at f. Out-of-domain inputs (f ≤ 0) yield NaN.
func (s *Simulation) EmpiricalLossFactor(f float64) float64 {
	k, err := core.Empirical(s.corr.Sigma(), s.stack.SkinDepth(f))
	if err != nil {
		return math.NaN()
	}
	return k
}

// HBMLossFactor evaluates the hemispherical-boss baseline for bosses of
// radius a on tiles of area tile at f (exposed at package level too).
func (s Stack) HBMLossFactor(f, a, tile float64) float64 {
	return hbm.Model{Radius: a, Tile: tile, Rho: s.Rho}.LossFactor(f)
}

// EmpiricalLossFactor is the package-level Morgan/Hammerstad formula (1).
// Out-of-domain inputs (skinDepth ≤ 0) yield NaN.
func EmpiricalLossFactor(sigma, skinDepth float64) float64 {
	k, err := core.Empirical(sigma, skinDepth)
	if err != nil {
		return math.NaN()
	}
	return k
}
