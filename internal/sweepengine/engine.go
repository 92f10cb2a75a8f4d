// Package sweepengine executes a whole K(f) frequency sweep as one
// planned unit instead of N independent per-frequency runs.
//
// Solving each frequency on its own would repeat three kinds of work at
// every frequency: re-sampling the KL collocation surfaces (which do not
// depend on frequency at all), rebuilding the Green's-function tables,
// and re-assembling the dense MoM system for every surface even though
// the matrix entries vary smoothly with frequency. The engine removes
// all three:
//
//   - Surface reuse. The Smolyak collocation nodes ξ and their
//     synthesized surfaces are computed once per sweep and shared by
//     every frequency; the center (ξ = 0) node is exactly flat, so its
//     loss factor is K ≡ 1 without any solve. When the first KL mode is
//     the DC mode (the Gaussian CF), the ±ξ₁ nodes are the piston
//     pair: rigid shifts f ≡ ±c, whose system is the flat reference's
//     with a unimodular right-hand-side factor while k₁ is real, so
//     they are K ≡ 1 without any solve too (core.Solver.RigidShift).
//     The flat reference itself mom builds from one row of kernel work.
//
//   - Table reuse. Assembly goes through the solver's table cache, so
//     concurrent points — and concurrent sweeps sharing a cache — build
//     each frequency's tables exactly once.
//
//   - Mirror reuse. The Hermite rules are symmetric, so the non-flat
//     nodes come in pairs ±ξ whose surfaces are f and exactly −f. The
//     Green's function is even in Δz and its z-derivative odd, so the
//     system of −f is the system of f with its double-layer entries
//     negated: each pair is solved from one kernel build (dense
//     assembly or FFT operator), mirrored in place after the first
//     surface's solves, bit for bit what a direct build would give.
//
//   - Matrix interpolation across frequency (broadband sweeps). The
//     conductor wavenumber k₂ = (1+j)/δ ∝ √f dominates the frequency
//     dependence of the kernel, so the matrix entries are smooth
//     (entire, in fact: products of complex exponentials and
//     polynomials) in x = √f. The engine assembles exact systems only
//     at a few Chebyshev anchor abscissae in x over the sweep band and
//     reconstructs each sweep frequency's matrix by barycentric
//     interpolation; the right-hand side (e^{−jk₁·f_i}) is recomputed
//     exactly, and the flat reference goes through the same
//     interpolation so the leading kernel error cancels in the ratio
//     K = Pr/Ps. Narrow or short sweeps, where anchors would not
//     amortize, fall back to the exact per-frequency path, which is
//     bitwise identical to one first-order SSCM run per frequency.
//
// A point-level scheduler spreads the independent (frequency × node)
// units over the worker budget with prompt context cancellation.
package sweepengine

import (
	"context"
	"math"
	"math/cmplx"
	"runtime"
	"slices"
	"sync/atomic"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/core"
	"roughsim/internal/mom"
	"roughsim/internal/resilience"
	"roughsim/internal/sscm"
	"roughsim/internal/surface"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// Engine plans and executes batched sweeps over a prebuilt solver and
// surface process. Configure the exported fields before Run; the zero
// values of the optional ones select the noted defaults.
type Engine struct {
	// Solver is the configured SWM solver (required).
	Solver *core.Solver
	// Synth maps KL coordinates ξ to a surface realization (required;
	// typically (*surface.KL).Synthesize). It must be deterministic.
	Synth func(xi []float64) *surface.Surface
	// Dim is the KL truncation d (required, ≥ 1).
	Dim int
	// Order is the SSCM order (default 1, the paper's 1st-SSCM).
	Order int
	// Workers bounds total parallelism (default runtime.NumCPU()).
	Workers int
	// Anchors fixes the anchor count of the interpolated path; 0 picks
	// it adaptively from the band's phase swing, capped at 12.
	Anchors int
	// Metrics receives sweep.* engine telemetry; nil disables it.
	Metrics *telemetry.Registry
	// Checkpoint, when non-nil, persists each completed collocation-node
	// column K(·, ξ_j) — and, on the interpolated path, the
	// flat-reference power vector under FlatRefNode — as the sweep
	// progresses, and is consulted before solving so a resumed sweep
	// re-solves only the nodes that never completed (see checkpoint.go).
	Checkpoint Checkpoint
	// Progress, when non-nil, receives monotone (done, total) updates in
	// frequency units as the sweep advances.
	Progress func(done, total int)
}

// Result is the outcome of one batched sweep.
type Result struct {
	// Mean is E[K] per frequency, aligned with the freqs argument.
	Mean []float64
	// Values holds the raw collocation node values K(f_i, ξ_j) as
	// Values[freq][node], node-aligned with sscm.Nodes(Dim, Order) —
	// the projection inputs the broadband surrogate fitter consumes.
	Values [][]float64
	// AnchorsUsed is the anchor count of the interpolated path, or 0
	// when the sweep ran through the exact per-frequency path.
	AnchorsUsed int
}

const (
	defaultOrder = 1
	minAnchors   = 4
	maxAnchors   = 12
)

// Run executes the sweep and returns E[K] at every frequency.
func (e *Engine) Run(ctx context.Context, freqs []float64) (*Result, error) {
	p, err := e.plan(freqs)
	if err != nil {
		return nil, err
	}
	e.Metrics.Counter("sweep.batched_runs").Inc()

	// Synthesize (and resolution-check) every collocation surface once:
	// the surface process is frequency-independent, so this is per
	// sweep, not per point.
	_, synthSpan := trace.StartSpan(ctx, "sweep.synthesize")
	surfs := make([]*surface.Surface, len(p.nodes))
	nflat := 0
	for j := range p.nodes {
		if surfs[j], err = e.surface(p, j); err != nil {
			synthSpan.End()
			return nil, err
		}
		if surfs[j] == nil {
			nflat++
		}
	}
	synthSpan.SetAttr("nodes", len(p.nodes))
	synthSpan.SetAttr("flat", nflat)
	synthSpan.End()

	nf := len(freqs)
	name := "sweep.exact"
	if p.interp() {
		name = "sweep.interp"
	}
	e.Metrics.Counter(name + "_freqs").Add(int64(nf))
	sctx, span := trace.StartSpan(ctx, name)
	span.SetAttr("freqs", nf)
	if p.interp() {
		span.SetAttr("anchors", p.anchors)
	}
	vals, err := e.nodeValues(sctx, p, surfs)
	span.End()
	if err != nil {
		return nil, err
	}

	// Fit the PC surrogate per frequency from the collocation values.
	_, fitSpan := trace.StartSpan(ctx, "surrogate.fit")
	res := &Result{Mean: make([]float64, nf), Values: vals, AnchorsUsed: p.anchors}
	for fi := range freqs {
		r, err := sscm.FromValues(e.Dim, p.order, vals[fi])
		if err != nil {
			fitSpan.End()
			return nil, err
		}
		res.Mean[fi] = r.PCE.Mean()
	}
	fitSpan.End()
	e.progress(nf, nf)
	return res, nil
}

// nodeValues returns vals[freq][node] for Run. A rigid-shift node (nil
// surface) is K ≡ 1 without any solve, a checkpointed node loads its
// completed column, and the remaining nodes go through columns, each
// checkpointed the moment it completes. The interpolated path's flat
// reference is loaded or computed only when a node is left to solve.
func (e *Engine) nodeValues(ctx context.Context, p *sweepPlan, surfs []*surface.Surface) ([][]float64, error) {
	nf := len(p.freqs)
	cols := make([][]float64, len(surfs))
	var todo []int
	var solve []*surface.Surface
	for j, s := range surfs {
		var ok bool
		if s == nil {
			cols[j] = ones(nf)
		} else if cols[j], ok = e.loadColumn(j, nf); !ok {
			todo = append(todo, j)
			solve = append(solve, s)
		}
	}
	if len(todo) > 0 {
		var ps []float64
		if p.interp() {
			var ok bool
			if ps, ok = e.loadColumn(FlatRefNode, nf); !ok {
				e.Metrics.Counter("sweep.anchor_builds").Add(int64(p.anchors))
				var err error
				if ps, err = e.flatPabs(ctx, p); err != nil {
					return nil, err
				}
				e.saveColumn(FlatRefNode, ps)
			}
		}
		err := e.columns(ctx, p, solve, ps, func(k int, col []float64) {
			e.Metrics.Counter("sweep.node_solves").Inc()
			e.saveColumn(todo[k], col)
			cols[todo[k]] = col
		})
		if err != nil {
			return nil, err
		}
	}
	vals := make([][]float64, nf)
	for fi := range vals {
		vals[fi] = make([]float64, len(cols))
		for j, col := range cols {
			vals[fi][j] = col[fi]
		}
	}
	return vals, nil
}

// sweepPlan is the frequency-side plan every entry point starts from:
// the collocation grid and the path choice, made once.
type sweepPlan struct {
	freqs []float64
	nodes [][]float64 // sscm.Nodes(Dim, order)
	order int
	// anchors is the interpolated path's anchor count and xs its anchor
	// abscissae in x = √f; anchors is 0 on the exact path.
	anchors int
	xs      []float64
}

func (p *sweepPlan) interp() bool { return p.anchors > 0 }

// plan validates the sweep and chooses its path: the interpolated one
// when fewer anchors than frequencies cover a band of nonzero width,
// the exact per-frequency one otherwise.
func (e *Engine) plan(freqs []float64) (*sweepPlan, error) {
	if e.Solver == nil || e.Synth == nil {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "sweepengine",
			"engine needs a Solver and a Synth function")
	}
	if len(freqs) == 0 {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "sweepengine",
			"sweep needs at least one frequency")
	}
	order := e.Order
	if order <= 0 {
		order = defaultOrder
	}
	nodes, err := sscm.Nodes(e.Dim, order)
	if err != nil {
		return nil, err
	}
	p := &sweepPlan{freqs: freqs, nodes: nodes, order: order}
	fmin, fmax := slices.Min(freqs), slices.Max(freqs)
	if anchors := e.anchorCount(fmin, fmax); anchors < len(freqs) && fmax > fmin {
		p.anchors = anchors
		p.xs = ChebAnchors(anchors, math.Sqrt(fmin), math.Sqrt(fmax))
	}
	return p, nil
}

// surface synthesizes collocation node j. It returns nil for a rigid
// shift at every sweep frequency (the grid's flat center node and, for a
// DC first KL mode, the piston pair; see core.Solver.RigidShift), whose
// K ≡ 1 needs no solve, and the resolution error for a surface the
// solver cannot resolve.
func (e *Engine) surface(p *sweepPlan, j int) (*surface.Surface, error) {
	s := e.Synth(p.nodes[j])
	if !slices.ContainsFunc(p.freqs, func(f float64) bool { return !e.Solver.RigidShift(s, f) }) {
		return nil, nil
	}
	if _, err := core.CheckResolution(s); err != nil {
		return nil, err
	}
	return s, nil
}

// anchorCount estimates how many Chebyshev anchors in x = √f the band
// [fmin, fmax] needs. The kernel's frequency dependence is dominated by
// e^{jk₂r} with |k₂| ∝ √f, i.e. a complex exponential that is linear in
// the interpolation variable, so the Chebyshev coefficients decay like
// Bessel functions of half the total phase-and-decay swing S across the
// band: a few nodes beyond S reach the solver-tolerance regime. The
// swing is measured at the longest wrapped propagation distance L/√2.
func (e *Engine) anchorCount(fmin, fmax float64) int {
	if e.Anchors > 0 {
		return e.Anchors
	}
	p1 := e.Solver.Mat.Params(fmin)
	p2 := e.Solver.Mat.Params(fmax)
	r := e.Solver.L / math.Sqrt2
	swing := (cmplx.Abs(p2.K2-p1.K2) + cmplx.Abs(p2.K1-p1.K1)) * r
	n := 5 + int(math.Ceil(swing))
	return min(max(n, minAnchors), maxAnchors)
}

// columns computes the K column of every surface in surfs over the
// plan's frequencies, handing column k to save the moment it completes
// and reporting progress in frequency units.
//
// Surfaces are solved in mirror groups (see mirrorGroups): a pair's
// second surface reuses the first one's build, mirrored in place
// (core.Solver.MirrorSurfaceCtx), counted in sweep.mirror_reuses.
//
// The exact path schedules the independent (group × frequency) units
// across the worker budget through the operator prepare-and-solve path
// — the one core.Solver's LossFactor takes, so results stay bitwise
// identical to it. The operator build is deterministic across worker
// counts, so the inner split does not perturb bits. The interpolated
// path runs sweepPabs per group and divides by the flat reference ps.
func (e *Engine) columns(ctx context.Context, p *sweepPlan, surfs []*surface.Surface, ps []float64, save func(k int, col []float64)) error {
	nf := len(p.freqs)
	groups := mirrorGroups(surfs)
	if p.interp() {
		done := 0
		for _, grp := range groups {
			gs := make([]*surface.Surface, len(grp))
			for n, k := range grp {
				gs[n] = surfs[k]
			}
			err := e.sweepPabs(ctx, gs, p.xs, p.freqs, func(n int, pr []float64) {
				for fi := range pr {
					pr[fi] /= ps[fi]
				}
				if n > 0 {
					e.Metrics.Counter("sweep.mirror_reuses").Inc()
				}
				save(grp[n], pr)
				done++
				e.progress(done*nf/len(surfs), nf)
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	cols := make([][]float64, len(surfs))
	remaining := make([]atomic.Int64, len(surfs))
	for k := range cols {
		cols[k] = make([]float64, nf)
		remaining[k].Store(int64(nf))
	}
	units := len(groups) * nf
	w := e.workers()
	inner := 1
	if units < w {
		inner = w / units
	}
	var done atomic.Int64
	return resilience.ForEach(ctx, units, w, func(ctx context.Context, u int) error {
		grp, fi := groups[u/nf], u%nf
		f := p.freqs[fi]
		ref, err := e.Solver.FlatPabsCtx(ctx, f)
		if err != nil {
			return err
		}
		// An admissible surface wins the fft-gmres stage without ever
		// assembling the dense matrix; a rejected one materializes it
		// lazily inside the chain.
		sys, err := e.Solver.PrepareSurfaceCtx(ctx, surfs[grp[0]], f, inner)
		if err != nil {
			return err
		}
		for n, k := range grp {
			if n > 0 {
				e.Solver.MirrorSurfaceCtx(ctx, sys, surfs[k], f, inner)
			}
			sol, err := e.Solver.SolveSystem(ctx, sys)
			if err != nil {
				return err
			}
			cols[k][fi] = sol.Pabs / ref
			// The worker that takes a column's countdown to zero observed
			// every other worker's decrement for it, so (atomics being
			// sequentially consistent) all of the column's writes are
			// visible here.
			if remaining[k].Add(-1) == 0 {
				if n > 0 {
					e.Metrics.Counter("sweep.mirror_reuses").Inc()
				}
				save(k, cols[k])
			}
		}
		e.progress(int(done.Add(int64(len(grp))))/len(surfs), nf)
		return nil
	})
}

// mirrorGroups splits surfs into solve groups of indices: a surface
// joins the first earlier, still unpaired one whose heights it negates
// exactly (the surfaces of the Smolyak nodes ξ and −ξ, see
// quadrature.SmolyakHermite), as that group's mirror partner; every
// other surface is a group of one. Surfaces with analytic derivatives
// are never paired: their derivatives need not follow the heights.
func mirrorGroups(surfs []*surface.Surface) [][]int {
	var groups [][]int
	paired := make([]bool, len(surfs))
	for k, s := range surfs {
		if paired[k] {
			continue
		}
		grp := []int{k}
		for j := k + 1; j < len(surfs); j++ {
			if !paired[j] && isMirror(s, surfs[j]) {
				paired[j] = true
				grp = append(grp, j)
				break
			}
		}
		groups = append(groups, grp)
	}
	return groups
}

// isMirror reports whether b is a's mirror image: the same grid, heights
// negated exactly and spectral derivatives on both.
func isMirror(a, b *surface.Surface) bool {
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

// flatPabs is the interpolated path's flat-reference absorbed-power
// vector Ps over the plan's frequencies.
func (e *Engine) flatPabs(ctx context.Context, p *sweepPlan) ([]float64, error) {
	var ps []float64
	err := e.sweepPabs(ctx, []*surface.Surface{surface.NewFlat(e.Solver.L, e.Solver.M)}, p.xs, p.freqs,
		func(_ int, pr []float64) { ps = pr })
	return ps, err
}

// sweepPabs computes the absorbed power of each surface of a mirror
// group (surfs[1:], if any, mirror surfs[0]; see mirrorGroups) at every
// sweep frequency and hands surface n's vector to done as it completes:
// exact assemblies at the anchor abscissae xs (in x = √f) for the first
// surface, mirrored in place for the next, then an interpolated matrix,
// exact RHS and resilient solve per frequency. A sweep frequency
// coinciding with an anchor reproduces the exact system bit-for-bit
// (the barycentric weights collapse to a delta and the RHS formula is
// the assembly's own).
func (e *Engine) sweepPabs(ctx context.Context, surfs []*surface.Surface, xs []float64, freqs []float64, done func(n int, pabs []float64)) error {
	anch := make([]*mom.System, len(xs))
	for a, x := range xs {
		if err := ctx.Err(); err != nil {
			return err
		}
		sys, err := e.Solver.AssembleSurfaceCtx(ctx, surfs[0], x*x, e.workers())
		if err != nil {
			return err
		}
		anch[a] = sys
	}
	for n, surf := range surfs {
		if n > 0 {
			for a, x := range xs {
				e.Solver.MirrorSurfaceCtx(ctx, anch[a], surf, x*x, e.workers())
			}
		}
		out := make([]float64, len(freqs))
		err := resilience.ForEach(ctx, len(freqs), e.workers(), func(ctx context.Context, fi int) error {
			f := freqs[fi]
			sys := interpSystem(anch, xs, math.Sqrt(f), surf, e.Solver.Mat.Params(f))
			sol, err := e.Solver.SolveSystem(ctx, sys)
			if err != nil {
				return err
			}
			out[fi] = sol.Pabs
			return nil
		})
		if err != nil {
			return err
		}
		done(n, out)
	}
	return nil
}

// interpSystem builds the system at abscissa x from the anchor systems:
// entrywise barycentric interpolation of the matrix (the Lagrange basis
// sums to one, so frequency-independent entries — the ½ jump terms, the
// static self-singularity — are reproduced exactly up to round-off) and
// an exactly recomputed right-hand side.
func interpSystem(anch []*mom.System, xs []float64, x float64, surf *surface.Surface, p mom.Params) *mom.System {
	w := BaryWeights(xs, x)
	n := anch[0].N
	m := cmplxmat.New(2*n, 2*n)
	for a, wa := range w {
		if wa == 0 {
			continue
		}
		c := complex(wa, 0)
		src := anch[a].Matrix.Data
		dst := m.Data
		for i := range dst {
			dst[i] += c * src[i]
		}
	}
	return &mom.System{N: n, Matrix: m, RHS: mom.RHSVector(surf, p), Step: anch[0].Step}
}

// ChebAnchors places n Chebyshev–Gauss abscissae on [lo, hi]. Exported
// because the surrogate fitter anchors its broadband coefficient model
// on the same abscissae family (in x = √f) the engine interpolates
// matrices on.
func ChebAnchors(n int, lo, hi float64) []float64 {
	mid, half := (lo+hi)/2, (hi-lo)/2
	xs := make([]float64, n)
	for a := 0; a < n; a++ {
		xs[a] = mid + half*math.Cos((2*float64(a)+1)*math.Pi/(2*float64(n)))
	}
	return xs
}

// BaryWeights returns the Lagrange basis ℓ_a(x) for the Chebyshev–Gauss
// abscissae xs in barycentric form; a coincident x yields a delta.
// Exported for the surrogate model's coefficient interpolation.
func BaryWeights(xs []float64, x float64) []float64 {
	w := make([]float64, len(xs))
	for a, xa := range xs {
		if x == xa {
			w[a] = 1
			return w
		}
	}
	n := len(xs)
	var sum float64
	for a := range xs {
		ba := math.Sin((2*float64(a) + 1) * math.Pi / (2 * float64(n)))
		if a%2 == 1 {
			ba = -ba
		}
		w[a] = ba / (x - xs[a])
		sum += w[a]
	}
	for a := range w {
		w[a] /= sum
	}
	return w
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.NumCPU()
}

func (e *Engine) progress(done, total int) {
	if e.Progress != nil {
		e.Progress(done, total)
	}
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
