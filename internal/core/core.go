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
// Rough solves run through one sequence (LossFactorsCtx: flat reference,
// system build, preconditioned resilient solve, optional in-place
// mirror and second solve) and the two-stage chain of
// mom.SolveResilient (GMRES on the system's operator — fft-gmres when
// the surface is admitted — then dense LU), with per-stage accounting
// aggregated on the Solver; every entry point takes a context for
// cancellation and timeouts. A surface that a nontrivial subgroup of
// lattice shifts leaves invariant — the flat reference, and every
// first-order SSCM node, which is one KL mode — is built on the
// quotient lattice (mom.Quotient): one kernel row per orbit, folded into
// a system of two unknowns per orbit.
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

	// flat and flat2D cache the flat references of the flatMemoCap most
	// recent frequencies, for surfaces and profiles. Concurrent callers
	// at one frequency share a single solve: the 2d+1 collocation nodes
	// at a new frequency would otherwise each solve the same flat system.
	flat   *memo.LRU[float64, flatRef]
	flat2D *memo.LRU[float64, float64]

	mu    sync.Mutex
	stats SolveStats
}

// flatRef is a frequency's flat reference: the absorbed power K is
// relative to, and the flat system's exact inverse, the preconditioner
// of every system prepared at that frequency.
type flatRef struct {
	pabs float64
	inv  *mom.FlatInverse
}

// flatMemoCap bounds the flat-reference memo, so a long-running server
// sweeping ever new frequencies does not grow it without bound. It holds
// one sweep at the server's default frequency limit (256). An entry is
// dominated by its inverse's four complex symbols per lateral mode,
// 64·M² bytes, so the memo holds at most 16 KiB·M²: 6.6 MB at M=20,
// 26 MB at M=40.
const flatMemoCap = 256

// NewSolver builds a Solver for an L-periodic patch with an M×M grid.
func NewSolver(mat Material, L float64, M int, opt mom.Options) (*Solver, error) {
	if L <= 0 || M < 2 {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "core.NewSolver",
			"needs L > 0, M ≥ 2 (got L=%g, M=%d)", L, M)
	}
	s := &Solver{Mat: mat, L: L, M: M, Opt: opt, tables: mom.NewTableCache(0, nil),
		flat2D: memo.NewLRU[float64, float64](flatMemoCap, memo.Hooks{})}
	s.flat = memo.NewLRU[float64, flatRef](flatMemoCap, memo.Hooks{
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
	s.Metrics.Counter("solve.matvecs").Add(int64(rep.MatVecs))
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
		sp.SetAttr("matvecs", sol.Report.MatVecs)
	}
	if sys.Orbits() > 0 {
		s.Metrics.Counter("solve.quotient").Inc()
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

// prepare builds the system for surf at f through the matrix-free
// operator path: when the surface passes the FFT admissibility gates the
// FFT-accelerated operator is constructed up front (under a
// "mom.fft.build" span, through the frequency's Green's tables when
// ZSpan > 0), and the dense matrix is only assembled — via the solver's
// configured dense path, counted in solve.dense_materialized — if a
// stage of the resilient chain needs it. A solve won by the fft-gmres
// stage therefore performs zero dense-matrix assemblies. workers > 0
// overrides the solver's assembly parallelism.
func (s *Solver) prepare(ctx context.Context, surf *surface.Surface, f float64, workers int) *mom.System {
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
	sys := mom.NewOperatorSystem(surf, s.Mat.Params(f), opt, ts, s.denseAssembler(surf, f, workers))
	if sys.FFTAdmitted() {
		s.Metrics.Counter("solve.fft_admitted").Inc()
	} else {
		s.Metrics.Counter("solve.fft_rejected").Inc()
		if rej := sys.FFTRejection(); rej != nil {
			sp.SetAttr("rejected", rej.Error())
		}
	}
	sp.End()
	return sys
}

// denseAssembler is a lazily built system's dense assembler for surf at
// f, counted in solve.dense_materialized when it runs. It assembles
// under the context of the solve stage that needs the matrix, so its
// mom.assemble span nests under that solve's mom.solve span.
func (s *Solver) denseAssembler(surf *surface.Surface, f float64, workers int) func(context.Context) (*cmplxmat.Matrix, error) {
	return func(ctx context.Context) (*cmplxmat.Matrix, error) {
		s.Metrics.Counter("solve.dense_materialized").Inc()
		sys, err := s.assembleSurface(ctx, surf, f, workers)
		if err != nil {
			return nil, err
		}
		return sys.Matrix, nil
	}
}

// quotient builds surf's system at f on the quotient lattice
// (mom.Quotient, DESIGN §9 "Quotient-lattice systems"): when a
// nontrivial subgroup of lattice shifts leaves the surface geometry
// invariant, one kernel row per orbit under a "mom.assemble" span whose
// "orbits" attribute is the folded system's unknowns per field. It
// returns nil when the subgroup is trivial: the surface takes the
// FFT/dense path (prepare). workers > 0 overrides the solver's assembly
// parallelism.
func (s *Solver) quotient(ctx context.Context, surf *surface.Surface, f float64, workers int) (*mom.System, error) {
	opt := s.Opt
	if workers > 0 {
		opt.Workers = workers
	}
	q := mom.NewQuotient(surf, opt)
	if q == nil {
		return nil, nil
	}
	ctx, sp := trace.StartSpan(ctx, "mom.assemble")
	sp.SetAttr("f", f)
	sp.SetAttr("orbits", q.Orbits())
	defer sp.End()
	var ts *mom.TableSet
	if s.ZSpan > 0 {
		ts = s.tableFor(ctx, f)
	}
	return q.System(s.Mat.Params(f), ts)
}

// flatRef returns (computing and caching on first use) the flat
// reference at f. Concurrent callers at the same frequency share a
// single solve with the memo semantics: errors are not cached, and a
// waiter whose own ctx expires stops waiting while the solve continues
// for the others.
func (s *Solver) flatRef(ctx context.Context, f float64) (flatRef, error) {
	ref, _, err := s.flat.Do(ctx, f, func() (flatRef, error) { return s.flatSolve(ctx, f) })
	return ref, err
}

// flatSolve builds the flat system at f — the quotient path's whole-grid
// case, two unknowns from one kernel row — derives the full flat
// system's exact inverse from that row's two far orders under a
// "flat.inverse" span, and solves the flat system preconditioned by it,
// which converges in one GMRES iteration.
func (s *Solver) flatSolve(ctx context.Context, f float64) (flatRef, error) {
	ctx, sp := trace.StartSpan(ctx, "flat.reference")
	sp.SetAttr("f", f)
	defer sp.End()
	// A flat surface is one orbit, so the quotient is never nil.
	sys, err := s.quotient(ctx, surface.NewFlat(s.L, s.M), f, 0)
	if err != nil {
		return flatRef{}, fmt.Errorf("core: flat reference at f=%g: %w", f, err)
	}
	_, isp := trace.StartSpan(ctx, "flat.inverse")
	inv, err := sys.FlatInverse()
	isp.End()
	if err != nil {
		return flatRef{}, fmt.Errorf("core: flat inverse at f=%g: %w", f, err)
	}
	sys.Precondition(inv)
	sol, err := s.solve(ctx, sys)
	if err != nil {
		return flatRef{}, fmt.Errorf("core: flat reference at f=%g: %w", f, err)
	}
	return flatRef{pabs: sol.Pabs, inv: inv}, nil
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
// fallback chain and between the restarts of its GMRES stage. A rigid
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
	ks, err := s.LossFactorsCtx(ctx, []*surface.Surface{surf}, f, 0)
	if err != nil {
		return 0, err
	}
	return ks[0], nil
}

// LossFactorsCtx is the one solve sequence every loss factor runs
// through: it returns K at f for surfs, one surface optionally followed
// by its exact mirror image (see IsMirror), from one system build. The
// system is built for surfs[0] — on the quotient lattice when the
// surface has a nontrivial lattice-shift invariance (quotient), else
// through the FFT/dense path (prepare) — preconditioned by the
// frequency's flat inverse and solved; for a pair it is then mirrored
// in place (mom.System.Mirror, under a "mom.mirror" span), bitwise
// equal to building the mirror image directly and without reading a
// kernel, and solved again. Each absorbed power is divided by the flat
// one. workers > 0 overrides the solver's assembly parallelism. The
// surfaces must share the solver's grid and pass CheckResolution;
// LossFactorCtx checks both.
func (s *Solver) LossFactorsCtx(ctx context.Context, surfs []*surface.Surface, f float64, workers int) ([]float64, error) {
	if len(surfs) == 0 || len(surfs) > 2 || (len(surfs) == 2 && !IsMirror(surfs[0], surfs[1])) {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "core.LossFactors",
			"want one surface, optionally followed by its exact mirror image (got %d surfaces)", len(surfs))
	}
	ref, err := s.flatRef(ctx, f)
	if err != nil {
		return nil, err
	}
	sys, err := s.quotient(ctx, surfs[0], f, workers)
	if err != nil {
		return nil, fmt.Errorf("core: rough solve at f=%g: %w", f, err)
	}
	if sys == nil {
		sys = s.prepare(ctx, surfs[0], f, workers)
	}
	sys.Precondition(ref.inv)
	ks := make([]float64, len(surfs))
	for i, surf := range surfs {
		if i > 0 {
			_, sp := trace.StartSpan(ctx, "mom.mirror")
			sp.SetAttr("f", f)
			sys.Mirror(surf, s.Mat.Params(f), s.denseAssembler(surf, f, workers))
			sp.End()
		}
		sol, err := s.solve(ctx, sys)
		if err != nil {
			return nil, fmt.Errorf("core: rough solve at f=%g: %w", f, err)
		}
		ks[i] = sol.Pabs / ref.pabs
	}
	return ks, nil
}

// IsMirror reports whether b is a's mirror image: the same grid, heights
// negated exactly and spectral derivatives on both. Surfaces with
// analytic derivatives never qualify: their derivatives need not follow
// the heights.
func IsMirror(a, b *surface.Surface) bool {
	if a.L != b.L || a.M != b.M || a.AnFx != nil || b.AnFx != nil || a.AnFxx != nil || b.AnFxx != nil {
		return false
	}
	for i, v := range a.H {
		if b.H[i] != -v {
			return false
		}
	}
	return true
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
