// Package core orchestrates the paper's simulation methodology: given a
// surface realization (or profile) and a frequency, it assembles and
// solves the SWM integral equations (Sec. III) and reports the loss
// enhancement factor K = Pr/Ps of eqs. (10)–(11).
//
// Ps is obtained by solving the same discretization on a flat surface,
// which cancels both the arbitrary scalar normalization (the |T|² of the
// transmitted flux) and the leading quadrature bias; the analytic
// Ps = |T|²·L²/(2δ) is available through mom.FlatPabsAnalytic and is
// verified against the numerical flat solve in the tests.
//
// Rough solves run through the resilient fallback chain of
// mom.SolveResilient (fft-gmres when the surface is admitted → GMRES →
// dense LU) with per-stage accounting aggregated on the Solver, and
// every entry point takes a context for cancellation and timeouts.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/memo"
	"roughsim/internal/mom"
	"roughsim/internal/resilience"
	"roughsim/internal/surface"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
	"roughsim/internal/units"
)

// Material describes the two-medium stack of the paper's experiments.
type Material struct {
	EpsR float64 // dielectric relative permittivity (paper: 3.7, SiO₂)
	Rho  float64 // conductor resistivity in Ω·m (paper: 1.67 μΩ·cm)
}

// PaperMaterial returns the stack used for every experiment in Sec. IV.
func PaperMaterial() Material {
	return Material{EpsR: 3.7, Rho: units.CopperResistivity}
}

// SkinDepth returns δ(f) for the conductor.
func (m Material) SkinDepth(f float64) float64 {
	return units.SkinDepth(m.Rho, f, units.Mu0)
}

// Params returns the SWM parameters (k₁, k₂, β) at frequency f.
func (m Material) Params(f float64) mom.Params {
	return mom.Params{
		K1:   complex(units.WavenumberDielectric(f, m.EpsR), 0),
		K2:   units.WavenumberConductor(f, m.Rho),
		Beta: units.Beta(f, m.EpsR, m.Rho),
	}
}

// SolveStats aggregates the per-stage accounting of every resilient
// solve a Solver has run.
type SolveStats struct {
	Solves int // completed resilient solves
	// Fallbacks counts solves not won by a first-line stage (the FFT
	// operator stage or plain GMRES): a fallback means an iterative
	// stage actually failed, not that the FFT stage was gated off.
	Fallbacks     int
	StageWins     map[string]int // winning stage → count
	StageFailures map[string]int // failed stage attempts → count
	// StageSkips counts stages gated off by a deterministic
	// admissibility check (e.g. fft-gmres on an over-bound surface) —
	// recorded rejections, not execution failures.
	StageSkips map[string]int
}

// Solver computes loss enhancement factors for surfaces over a fixed
// patch discretization; flat-reference solutions are cached per
// frequency. Solver is safe for concurrent use.
type Solver struct {
	Mat Material
	L   float64
	M   int
	Opt mom.Options

	// ZSpan > 0 enables tabulated assembly: the Green's functions are
	// tabulated once per frequency (Chebyshev in Δz over ±ZSpan) and
	// reused across every surface realization — the fast path for SSCM
	// and Monte-Carlo sweeps. ZSpan must bound ~2.2× the largest |f|
	// of any surface solved.
	ZSpan float64

	// SolveTol is the accepted relative residual of the resilient solve
	// chain (default 1e-8).
	SolveTol float64
	// Injector deterministically fails solver stages for testing; nil
	// injects nothing.
	Injector *resilience.Injector

	// Metrics, when non-nil, receives solve.* telemetry (fallback-stage
	// counters, flat-reference cache hits). Stage timings are the trace
	// spans below; a traced caller's sink turns them into histograms.
	// Set it before the first solve; it is read without locking.
	Metrics *telemetry.Registry

	key uint64 // running solve counter, the injector key

	// tables caches the per-frequency Green's-function table sets. It
	// defaults to a private cache and can be replaced (before the first
	// solve) by a shared one, so sweep points, solvers and roughsimd
	// jobs at overlapping frequencies build each table exactly once.
	tables *mom.TableCache

	// flat and flat2D cache the flat-reference Pabs of every frequency
	// seen, for surfaces and profiles. Concurrent callers at one
	// frequency share a single solve: the 2d+1 collocation nodes at a new
	// frequency would otherwise each solve the same flat system.
	flat, flat2D *memo.LRU[float64, float64]

	mu    sync.Mutex
	stats SolveStats
}

// NewSolver builds a Solver for an L-periodic patch with an M×M grid.
func NewSolver(mat Material, L float64, M int, opt mom.Options) (*Solver, error) {
	if L <= 0 || M < 2 {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "core.NewSolver",
			"needs L > 0, M ≥ 2 (got L=%g, M=%d)", L, M)
	}
	s := &Solver{Mat: mat, L: L, M: M, Opt: opt, tables: mom.NewTableCache(0, nil),
		flat2D: memo.NewLRU[float64, float64](math.MaxInt, memo.Hooks{})}
	s.flat = memo.NewLRU[float64, float64](math.MaxInt, memo.Hooks{
		Hit:      func() { s.Metrics.Counter("core.flat_hits").Inc() },
		Shared:   func() { s.Metrics.Counter("core.flat_shared").Inc() },
		Computed: func() { s.Metrics.Counter("core.flat_solves").Inc() },
	})
	return s, nil
}

// NewSolverTabulated builds a Solver that assembles through per-frequency
// Green's-function tables; zspan must bound 2.2× the height range of the
// surfaces it will solve.
func NewSolverTabulated(mat Material, L float64, M int, zspan float64, opt mom.Options) (*Solver, error) {
	s, err := NewSolver(mat, L, M, opt)
	if err != nil {
		return nil, err
	}
	if zspan <= 0 {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "core.NewSolverTabulated",
			"needs zspan > 0 (got %g)", zspan)
	}
	s.ZSpan = zspan
	return s, nil
}

// Stats returns a snapshot of the aggregated solve accounting.
func (s *Solver) Stats() SolveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.StageWins = make(map[string]int, len(s.stats.StageWins))
	for k, v := range s.stats.StageWins {
		out.StageWins[k] = v
	}
	out.StageFailures = make(map[string]int, len(s.stats.StageFailures))
	for k, v := range s.stats.StageFailures {
		out.StageFailures[k] = v
	}
	out.StageSkips = make(map[string]int, len(s.stats.StageSkips))
	for k, v := range s.stats.StageSkips {
		out.StageSkips[k] = v
	}
	return out
}

// record folds one solve report into the aggregate accounting.
func (s *Solver) record(rep *mom.SolveReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats.StageWins == nil {
		s.stats.StageWins = map[string]int{}
		s.stats.StageFailures = map[string]int{}
		s.stats.StageSkips = map[string]int{}
	}
	s.stats.Solves++
	s.Metrics.Counter("solve.count").Inc()
	if rep.Winner != "" {
		s.stats.StageWins[rep.Winner]++
		s.Metrics.Counter("solve.stage_win." + rep.Winner).Inc()
		if rep.Winner != mom.StageFFT && rep.Winner != mom.StageGMRES {
			s.stats.Fallbacks++
			s.Metrics.Counter("solve.fallbacks").Inc()
		}
	}
	for _, a := range rep.Attempts {
		switch {
		case a.Skipped:
			s.stats.StageSkips[a.Stage]++
			s.Metrics.Counter("solve.stage_skip." + a.Stage).Inc()
		case a.Err != nil:
			s.stats.StageFailures[a.Stage]++
			s.Metrics.Counter("solve.stage_failure." + a.Stage).Inc()
		}
	}
}

// solve runs the resilient chain on one assembled system and folds its
// accounting into the solver stats.
func (s *Solver) solve(ctx context.Context, sys *mom.System) (*mom.Solution, error) {
	ctx, sp := trace.StartSpan(ctx, "mom.solve")
	defer sp.End()
	sol, err := sys.SolveResilient(ctx, mom.SolveOptions{
		Tol:      s.SolveTol,
		Injector: s.Injector,
		Key:      atomic.AddUint64(&s.key, 1) - 1,
	})
	if err != nil {
		sp.SetAttr("error", err.Error())
		s.Metrics.Counter("solve.errors").Inc()
		return nil, err
	}
	if sol.Report != nil && sol.Report.Winner != "" {
		sp.SetAttr("winner", sol.Report.Winner)
		sp.SetAttr("attempts", len(sol.Report.Attempts))
	}
	s.record(sol.Report)
	return sol, nil
}

// TableCache returns the solver's Green's-function table cache.
func (s *Solver) TableCache() *mom.TableCache { return s.tables }

// SetTableCache replaces the solver's private table cache by a shared
// one. Call it before the first solve.
func (s *Solver) SetTableCache(tc *mom.TableCache) {
	if tc != nil {
		s.tables = tc
	}
}

// tableFor returns (building on first use, single-flighted across
// callers) the frequency's table set. The build runs outside any solver
// lock, so tables for distinct frequencies build in parallel.
func (s *Solver) tableFor(ctx context.Context, f float64) *mom.TableSet {
	return s.tables.GetCtx(ctx, s.Mat.Params(f), s.L, s.M, s.ZSpan, s.Opt)
}

// assembleSurface assembles the MoM system for surf at f through the
// solver's configured path (tabulated when ZSpan > 0). workers > 0
// overrides the solver's assembly parallelism — the batched sweep
// engine splits its worker budget across concurrent points. The
// assembly runs under a "mom.assemble" span (and any table build it
// forces under a nested "tables.build" span) of the context's trace.
func (s *Solver) assembleSurface(ctx context.Context, surf *surface.Surface, f float64, workers int) (*mom.System, error) {
	opt := s.Opt
	if workers > 0 {
		opt.Workers = workers
	}
	ctx, sp := trace.StartSpan(ctx, "mom.assemble")
	sp.SetAttr("f", f)
	defer sp.End()
	if s.ZSpan > 0 {
		return mom.AssembleTabulated(surf, s.Mat.Params(f), s.tableFor(ctx, f), opt)
	}
	return mom.Assemble(surf, s.Mat.Params(f), opt), nil
}

// PrepareSurfaceCtx builds the system for surf at f through the
// matrix-free operator path: when the surface passes the FFT
// admissibility gates the FFT-accelerated operator is constructed up
// front (under a "mom.fft.build" span, through the frequency's Green's
// tables when ZSpan > 0), and the dense matrix is only assembled — via
// the solver's configured dense path, counted in
// solve.dense_materialized — if a dense fallback stage of the resilient
// chain actually runs. A solve won by the fft-gmres stage therefore
// performs zero dense-matrix assemblies.
func (s *Solver) PrepareSurfaceCtx(ctx context.Context, surf *surface.Surface, f float64, workers int) (*mom.System, error) {
	opt := s.Opt
	if workers > 0 {
		opt.Workers = workers
	}
	var ts *mom.TableSet
	if s.ZSpan > 0 {
		ts = s.tableFor(ctx, f)
	}
	_, sp := trace.StartSpan(ctx, "mom.fft.build")
	sp.SetAttr("f", f)
	sys := mom.NewOperatorSystem(surf, s.Mat.Params(f), opt, ts, s.denseAssembler(ctx, surf, f, workers))
	if sys.FFTAdmitted() {
		s.Metrics.Counter("solve.fft_admitted").Inc()
	} else {
		s.Metrics.Counter("solve.fft_rejected").Inc()
		if rej := sys.FFTRejection(); rej != nil {
			sp.SetAttr("rejected", rej.Error())
		}
	}
	sp.End()
	return sys, nil
}

// denseAssembler is a lazily built system's dense fallback for surf at
// f, counted in solve.dense_materialized when it runs.
func (s *Solver) denseAssembler(ctx context.Context, surf *surface.Surface, f float64, workers int) func() (*cmplxmat.Matrix, error) {
	return func() (*cmplxmat.Matrix, error) {
		s.Metrics.Counter("solve.dense_materialized").Inc()
		sys, err := s.assembleSurface(ctx, surf, f, workers)
		if err != nil {
			return nil, err
		}
		return sys.Matrix, nil
	}
}

// MirrorSurfaceCtx turns sys, built by PrepareSurfaceCtx for a surface
// at f, into the system of its mirror image ms (ms.H = −H) in place,
// bitwise equal to building ms directly (see mom.System.Mirror) and
// without reading a kernel. The system keeps its FFT admission and
// assembles ms if a dense stage runs (workers as for
// PrepareSurfaceCtx). It runs under a "mom.mirror" span of the
// context's trace.
func (s *Solver) MirrorSurfaceCtx(ctx context.Context, sys *mom.System, ms *surface.Surface, f float64, workers int) {
	_, sp := trace.StartSpan(ctx, "mom.mirror")
	sp.SetAttr("f", f)
	sys.Mirror(ms, s.Mat.Params(f), s.denseAssembler(ctx, ms, f, workers))
	sp.End()
}

// SolveSystem runs the resilient fallback chain on a system assembled
// against this solver's discretization, folding the per-stage report
// into the solver's aggregate stats.
func (s *Solver) SolveSystem(ctx context.Context, sys *mom.System) (*mom.Solution, error) {
	return s.solve(ctx, sys)
}

// FlatPabs returns (computing and caching on first use) the numerically
// solved flat-surface absorbed power at frequency f.
func (s *Solver) FlatPabs(f float64) (float64, error) {
	return s.FlatPabsCtx(context.Background(), f)
}

// FlatPabsCtx is FlatPabs honoring cancellation. Concurrent callers at
// the same frequency share a single solve with the memo semantics:
// errors are not cached, and a waiter whose own ctx expires stops
// waiting while the solve continues for the others.
func (s *Solver) FlatPabsCtx(ctx context.Context, f float64) (float64, error) {
	v, _, err := s.flat.Do(ctx, f, func() (float64, error) { return s.flatSolve(ctx, f) })
	return v, err
}

// flatSolve runs the flat-reference assembly and solve at f.
func (s *Solver) flatSolve(ctx context.Context, f float64) (float64, error) {
	ctx, sp := trace.StartSpan(ctx, "flat.reference")
	sp.SetAttr("f", f)
	defer sp.End()
	sys, err := s.PrepareSurfaceCtx(ctx, surface.NewFlat(s.L, s.M), f, 0)
	if err != nil {
		return 0, fmt.Errorf("core: flat reference at f=%g: %w", f, err)
	}
	sol, err := s.solve(ctx, sys)
	if err != nil {
		return 0, fmt.Errorf("core: flat reference at f=%g: %w", f, err)
	}
	return sol.Pabs, nil
}

// CheckResolution reports whether the grid resolves the surface well
// enough for the collocation discretization to be trusted: the curvature
// contribution to the double-layer diagonal must stay well below the ½
// jump term. It returns the worst curvature diagonal term.
func CheckResolution(surf *surface.Surface) (worstCurv float64, err error) {
	for _, c := range mom.CurvatureDiagonal(surf) {
		if v := math.Abs(c); v > worstCurv {
			worstCurv = v
		}
	}
	// The curvature diagonal is a legitimate (and accurate) part of the
	// operator; only when it approaches the ½ jump term does the locally
	// flat collocation model itself break down. The paper-resolution
	// grids (Δ = η/8) stay below ~0.2 for every experiment in Sec. IV.
	if worstCurv > 0.45 {
		return worstCurv, resilience.Errorf(resilience.KindInvalidInput, "core.CheckResolution",
			"surface under-resolved: curvature self-term %.2f rivals the ½ jump term (refine the grid or band-limit the surface)", worstCurv)
	}
	return worstCurv, nil
}

// RigidShift reports whether surf is the flat surface shifted rigidly
// (every height equal, spectral derivatives) while k₁ is real at f. Its
// system is the flat reference's matrix with the right-hand side scaled
// by the unimodular e^{−jk₁c}, so its absorbed power is the flat one and
// its loss factor is K ≡ 1 without any solve.
func (s *Solver) RigidShift(surf *surface.Surface, f float64) bool {
	if surf.AnFx != nil || surf.AnFxx != nil || imag(s.Mat.Params(f).K1) != 0 {
		return false
	}
	for _, v := range surf.H {
		if v != surf.H[0] {
			return false
		}
	}
	return true
}

// LossFactor returns K = Pr/Ps for one surface realization at f. The
// surface must share the solver's L and M.
func (s *Solver) LossFactor(surf *surface.Surface, f float64) (float64, error) {
	return s.LossFactorCtx(context.Background(), surf, f)
}

// LossFactorCtx is LossFactor honoring cancellation and deadlines: the
// context is checked before assembly, between the stages of the
// fallback chain and between the restarts of its GMRES stages. A rigid
// shift (see RigidShift) is K ≡ 1 without any solve.
func (s *Solver) LossFactorCtx(ctx context.Context, surf *surface.Surface, f float64) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if surf.L != s.L || surf.M != s.M {
		return 0, resilience.Errorf(resilience.KindInvalidInput, "core.LossFactor",
			"surface grid %gx%d does not match solver %gx%d", surf.L, surf.M, s.L, s.M)
	}
	if s.RigidShift(surf, f) {
		return 1, nil
	}
	if _, err := CheckResolution(surf); err != nil {
		return 0, err
	}
	flat, err := s.FlatPabsCtx(ctx, f)
	if err != nil {
		return 0, err
	}
	sys, err := s.PrepareSurfaceCtx(ctx, surf, f, 0)
	if err != nil {
		return 0, fmt.Errorf("core: rough assembly at f=%g: %w", f, err)
	}
	sol, err := s.solve(ctx, sys)
	if err != nil {
		return 0, fmt.Errorf("core: rough solve at f=%g: %w", f, err)
	}
	return sol.Pabs / flat, nil
}

// FlatPabs2D is the profile (2D SWM) flat reference.
func (s *Solver) FlatPabs2D(f float64) (float64, error) {
	v, _, err := s.flat2D.Do(context.Background(), f, func() (float64, error) {
		sol, err := mom.Assemble2D(surface.NewFlatProfile(s.L, s.M), s.Mat.Params(f), s.Opt).Solve()
		if err != nil {
			return 0, fmt.Errorf("core: 2D flat reference at f=%g: %w", f, err)
		}
		return sol.Pabs, nil
	})
	return v, err
}

// LossFactor2D returns K for a 1-D profile (surface uniform along y)
// using the 2D SWM formulation of Fig. 6.
func (s *Solver) LossFactor2D(prof *surface.Profile, f float64) (float64, error) {
	if prof.L != s.L || prof.M != s.M {
		return 0, resilience.Errorf(resilience.KindInvalidInput, "core.LossFactor2D",
			"profile grid does not match solver")
	}
	flat, err := s.FlatPabs2D(f)
	if err != nil {
		return 0, err
	}
	sol, err := mom.Assemble2D(prof, s.Mat.Params(f), s.Opt).Solve()
	if err != nil {
		return 0, fmt.Errorf("core: 2D rough solve at f=%g: %w", f, err)
	}
	return sol.Pabs / flat, nil
}

// Empirical evaluates the Morgan/Hammerstad formula (1):
// Pr/Ps = 1 + (2/π)·atan(1.4·(σ/δ)²).
func Empirical(sigma, delta float64) (float64, error) {
	if !(delta > 0) || math.IsNaN(sigma) {
		return 0, resilience.Errorf(resilience.KindInvalidInput, "core.Empirical",
			"needs δ > 0 and finite σ (got σ=%g, δ=%g)", sigma, delta)
	}
	r := sigma / delta
	return 1 + 2/math.Pi*math.Atan(1.4*r*r), nil
}

// EmpiricalAt evaluates formula (1) at frequency f for the material.
func (m Material) EmpiricalAt(sigma, f float64) (float64, error) {
	return Empirical(sigma, m.SkinDepth(f))
}
