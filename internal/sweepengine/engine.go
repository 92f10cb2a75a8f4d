// Package sweepengine executes a whole K(f) frequency sweep as one
// planned unit instead of N independent per-frequency runs.
//
// Solving each frequency on its own would repeat three kinds of work at
// every frequency: re-sampling the KL collocation surfaces (which do not
// depend on frequency at all), rebuilding the Green's-function tables,
// and solving every surface at every frequency even though each node's
// loss factor varies smoothly with frequency. The engine removes all
// three:
//
//   - Surface reuse. The Smolyak collocation nodes ξ and their
//     synthesized surfaces are computed once per sweep and shared by
//     every frequency; the center (ξ = 0) node is exactly flat, so its
//     loss factor is K ≡ 1 without any solve. When the first KL mode is
//     the DC mode (the Gaussian CF), the ±ξ₁ nodes are the piston
//     pair: rigid shifts f ≡ ±c, whose system is the flat reference's
//     with a unimodular right-hand-side factor while k₁ is real, so
//     they are K ≡ 1 without any solve too (core.Solver.RigidShift).
//     Every other first-order node is one KL Fourier mode, which the
//     lattice shifts along its wavefronts leave invariant, so mom builds
//     it on the quotient lattice: one row of kernel work per orbit,
//     folded into two unknowns per orbit. The flat reference is that
//     path's whole-grid case: one row.
//
//   - Table reuse. Assembly goes through the solver's table cache, so
//     concurrent points — and concurrent sweeps sharing a cache — build
//     each frequency's tables exactly once.
//
//   - Mirror reuse. The Hermite rules are symmetric, so the non-flat
//     nodes come in pairs ±ξ whose surfaces are f and exactly −f. The
//     Green's function is even in Δz and its z-derivative odd, so the
//     system of −f is the system of f with its double-layer entries
//     negated: each pair is solved from one kernel build (quotient
//     system, dense assembly or FFT operator), mirrored in place after
//     the first surface's solves, bit for bit what a direct build would
//     give.
//
//   - K interpolation across frequency (broadband sweeps). The
//     conductor wavenumber k₂ = (1+j)/δ ∝ √f dominates the frequency
//     dependence of the kernel, so each node's loss factor is a smooth
//     function of x = √f. A broadband sweep solves every node exactly
//     only at a few Chebyshev anchor abscissae x_a over the band (the
//     exact path run at the frequencies x_a², checkpoints included) and
//     reconstructs each node's K column at the sweep frequencies by
//     barycentric interpolation in x — the same scheme the broadband
//     surrogate fits its coefficients with. Narrow or short sweeps,
//     where anchors would not amortize, solve at the sweep frequencies
//     themselves, bitwise identical to one first-order SSCM run per
//     frequency.
//
// A point-level scheduler spreads the independent (frequency × node)
// units over the worker budget with prompt context cancellation. Each
// unit is one core.Solver.LossFactorsCtx call, the solve sequence
// LossFactor runs, so a node's K is the one LossFactor gives bit for bit.
// The same units run brute-force Monte Carlo (MonteCarlo) over seeded
// KL draws instead of the collocation nodes, within a failure budget.
package sweepengine

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"roughsim/internal/core"
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
	// Anchors fixes the anchor count of the broadband path; 0 picks it
	// adaptively from the band's phase swing, capped at 12.
	Anchors int
	// Metrics receives sweep.* engine telemetry; nil disables it.
	Metrics *telemetry.Registry
	// Checkpoint, when non-nil, persists each completed collocation-node
	// column K(·, ξ_j) over the solve frequencies as the sweep
	// progresses, and is consulted before solving so a resumed sweep
	// re-solves only the nodes that never completed (see checkpoint.go).
	Checkpoint Checkpoint
	// Progress, when non-nil, receives monotone (done, total) updates in
	// frequency units as the sweep advances.
	Progress func(done, total int)
	// Injector fails nodes for testing: each unit consults it under
	// FaultOpNode, keyed by node index, before solving. Nil injects none.
	Injector *resilience.Injector
}

// Result is the outcome of one batched sweep.
type Result struct {
	// Mean is E[K] per frequency, aligned with the freqs argument.
	Mean []float64
	// Values holds the raw collocation node values K(f_i, ξ_j) as
	// Values[freq][node], node-aligned with sscm.Nodes(Dim, Order) —
	// the projection inputs the broadband surrogate fitter consumes.
	Values [][]float64
	// AnchorsUsed is the anchor count of the broadband path, or 0 when
	// the sweep solved at every sweep frequency.
	AnchorsUsed int
}

const (
	defaultOrder = 1
	minAnchors   = 4
	maxAnchors   = 12
)

// Run executes the sweep and returns E[K] at every frequency. SSCM needs
// every node, so its failure budget is zero.
func (e *Engine) Run(ctx context.Context, freqs []float64) (*Result, error) {
	p, err := e.plan(freqs)
	if err != nil {
		return nil, err
	}
	vals, _, err := e.run(ctx, p, 0)
	if err != nil {
		return nil, err
	}

	// Fit the PC surrogate per frequency from the collocation values.
	nf := len(freqs)
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

// run returns vals[freq][node], K at every node of the plan and sweep
// frequency, and lost[node], the error of a node whose synthesis or
// solve failed or panicked (its vals are then meaningless). More than
// budget lost nodes fail the run (see losses.add).
func (e *Engine) run(ctx context.Context, p *sweepPlan, budget int) ([][]float64, []error, error) {
	e.Metrics.Counter("sweep.batched_runs").Inc()
	lost := &losses{errs: make([]error, len(p.nodes)), budget: budget}

	// Synthesize (and resolution-check) every node's surface once: the
	// surface process is frequency-independent, so this is per sweep,
	// not per point.
	_, synthSpan := trace.StartSpan(ctx, "sweep.synthesize")
	surfs := make([]*surface.Surface, len(p.nodes))
	nflat := 0
	for j := range p.nodes {
		if err := ctx.Err(); err != nil {
			synthSpan.End()
			return nil, nil, err
		}
		err := resilience.Call(ctx, j, func(context.Context, int) (err error) {
			surfs[j], err = e.surface(p, j)
			return err
		})
		if err != nil {
			if err := lost.add(err, j); err != nil {
				synthSpan.End()
				return nil, nil, err
			}
		} else if surfs[j] == nil {
			nflat++
		}
	}
	synthSpan.SetAttr("nodes", len(p.nodes))
	synthSpan.SetAttr("flat", nflat)
	synthSpan.End()

	nf := len(p.freqs)
	name := "sweep.exact"
	if p.anchors > 0 {
		name = "sweep.interp"
	}
	e.Metrics.Counter(name + "_freqs").Add(int64(nf))
	sctx, span := trace.StartSpan(ctx, name)
	span.SetAttr("freqs", nf)
	if p.anchors > 0 {
		span.SetAttr("anchors", p.anchors)
	}
	vals, err := e.nodeValues(sctx, p, surfs, lost)
	span.End()
	if err != nil {
		return nil, nil, err
	}
	return vals, lost.errs, nil
}

// nodeValues returns vals[freq][node] for run. A node without a surface
// (a rigid shift, K ≡ 1 without any solve, or a lost node) is not
// solved, a checkpointed node loads its completed column, and the
// remaining nodes go through columns, each checkpointed the moment it
// completes. Every column covers the solve frequencies; resample
// carries it to the sweep frequencies.
func (e *Engine) nodeValues(ctx context.Context, p *sweepPlan, surfs []*surface.Surface, lost *losses) ([][]float64, error) {
	cols := make([][]float64, len(surfs))
	var todo []int
	var solve []*surface.Surface
	for j, s := range surfs {
		if s == nil {
			continue
		}
		var ok bool
		if cols[j], ok = e.loadColumn(j, len(p.solve)); !ok {
			todo = append(todo, j)
			solve = append(solve, s)
		}
	}
	if len(todo) > 0 {
		if p.anchors > 0 {
			e.Metrics.Counter("sweep.anchor_builds").Add(int64(p.anchors))
		}
		err := e.columns(ctx, p, solve, todo, lost, func(k int, col []float64) {
			e.Metrics.Counter("sweep.node_solves").Inc()
			e.saveColumn(todo[k], col)
			cols[todo[k]] = col
		})
		if err != nil {
			return nil, err
		}
	}
	vals := make([][]float64, len(p.freqs))
	for fi := range vals {
		vals[fi] = ones(len(cols))
	}
	for j, col := range cols {
		if col != nil {
			for fi, k := range p.resample(col) {
				vals[fi][j] = k
			}
		}
	}
	return vals, nil
}

// sweepPlan is the frequency-side plan every entry point starts from:
// the collocation grid and the path choice, made once.
type sweepPlan struct {
	freqs []float64
	// solve lists the frequencies every node is solved at: freqs on the
	// exact path, the anchors x_a² on the broadband path.
	solve []float64
	nodes [][]float64 // the KL coordinates ξ_j, by node index
	order int
	// anchors is the broadband path's anchor count and xs its anchor
	// abscissae in x = √f; anchors is 0 on the exact path.
	anchors int
	xs      []float64
}

// resample carries a node column over the solve frequencies to the
// sweep frequencies: the column itself on the exact path, its
// barycentric interpolant in x = √f on the broadband path.
func (p *sweepPlan) resample(col []float64) []float64 {
	if p.anchors == 0 {
		return col
	}
	out := make([]float64, len(p.freqs))
	for fi, f := range p.freqs {
		for a, w := range BaryWeights(p.xs, math.Sqrt(f)) {
			out[fi] += w * col[a]
		}
	}
	return out
}

// plan validates the sweep over the KL coordinates nodes (none: the
// SSCM grid sscm.Nodes(Dim, Order)) and chooses its path: the broadband
// one, solving at Chebyshev anchors, when fewer anchors than frequencies
// cover a band of nonzero width, the exact per-frequency one otherwise.
func (e *Engine) plan(freqs []float64, nodes ...[]float64) (*sweepPlan, error) {
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
	if nodes == nil {
		var err error
		if nodes, err = sscm.Nodes(e.Dim, order); err != nil {
			return nil, err
		}
	}
	p := &sweepPlan{freqs: freqs, solve: freqs, nodes: nodes, order: order}
	fmin, fmax := slices.Min(freqs), slices.Max(freqs)
	if anchors := e.anchorCount(fmin, fmax); anchors < len(freqs) && fmax > fmin {
		p.anchors = anchors
		p.xs = ChebAnchors(anchors, math.Sqrt(fmin), math.Sqrt(fmax))
		p.solve = make([]float64, anchors)
		for a, x := range p.xs {
			p.solve[a] = x * x
		}
	}
	return p, nil
}

// surface synthesizes collocation node j. It returns nil for a rigid
// shift at every solve frequency (the grid's flat center node and, for a
// DC first KL mode, the piston pair; see core.Solver.RigidShift), whose
// K ≡ 1 needs no solve, and the resolution error for a surface the
// solver cannot resolve.
func (e *Engine) surface(p *sweepPlan, j int) (*surface.Surface, error) {
	s := e.Synth(p.nodes[j])
	if !slices.ContainsFunc(p.solve, func(f float64) bool { return !e.Solver.RigidShift(s, f) }) {
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

// columns computes the K column of every surface in surfs (surfs[k] is
// node ids[k]'s) over the plan's solve frequencies, handing column k to
// save the moment it completes and reporting progress in sweep-frequency
// units. A failing or panicking unit charges its nodes to lost.
//
// Surfaces are solved in mirror groups (see mirrorGroups): a pair's
// second surface reuses the first one's build, mirrored in place,
// counted in sweep.mirror_reuses.
//
// The independent (group × solve frequency) units are scheduled across
// the worker budget, each one core.Solver.LossFactorsCtx call — the
// solve sequence LossFactor runs, so results are bitwise identical to
// it. The operator build is deterministic across worker counts, so the
// inner split does not perturb bits.
func (e *Engine) columns(ctx context.Context, p *sweepPlan, surfs []*surface.Surface, ids []int, lost *losses, save func(k int, col []float64)) error {
	nf, ns := len(p.freqs), len(p.solve)
	groups := mirrorGroups(surfs)
	cols := make([][]float64, len(surfs))
	remaining := make([]atomic.Int64, len(surfs))
	for k := range cols {
		cols[k] = make([]float64, ns)
		remaining[k].Store(int64(ns))
	}
	units := len(groups) * ns
	w := e.workers()
	inner := 1
	if units < w {
		inner = w / units
	}
	var done atomic.Int64
	unit := func(ctx context.Context, u int) error {
		grp, fi := groups[u/ns], u%ns
		for _, k := range grp {
			if f := e.Injector.Fault(FaultOpNode, uint64(ids[k])); f != nil {
				if f.Panic {
					panic(f)
				}
				return resilience.New(f.Kind, "sweepengine", f)
			}
		}
		gs := make([]*surface.Surface, len(grp))
		for n, k := range grp {
			gs[n] = surfs[k]
		}
		ks, err := e.Solver.LossFactorsCtx(ctx, gs, p.solve[fi], inner)
		if err != nil {
			return err
		}
		for n, k := range grp {
			cols[k][fi] = ks[n]
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
		e.progress(int(done.Add(int64(len(grp))))*nf/(len(surfs)*ns), nf)
		return nil
	}
	return resilience.ForEach(ctx, units, w, func(ctx context.Context, u int) error {
		err := resilience.Call(ctx, u, unit)
		if err == nil || ctx.Err() != nil {
			return err
		}
		nodes := make([]int, len(groups[u/ns]))
		for i, k := range groups[u/ns] {
			nodes[i] = ids[k]
		}
		return lost.add(err, nodes...)
	})
}

// losses is a run's failure budget: the classified error of every node
// the run lost, by node index, and how many nodes it may lose.
type losses struct {
	mu     sync.Mutex
	errs   []error
	n      int
	budget int
}

// add charges err to nodes, each counted once however many of its units
// fail, and returns the run's error once more than budget nodes are
// lost: err's kind, wrapped with the count.
func (l *losses) add(err error, nodes ...int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, j := range nodes {
		if l.errs[j] == nil {
			l.errs[j] = err
			l.n++
		}
	}
	if l.n <= l.budget {
		return nil
	}
	return resilience.New(resilience.Classify(err), "sweepengine",
		fmt.Errorf("%d of %d nodes failed (budget %d); node %d: %w", l.n, len(l.errs), l.budget, nodes[0], err))
}

// mirrorGroups splits surfs into solve groups of indices: a surface
// joins the first earlier, still unpaired one it is the exact mirror
// image of (core.IsMirror: the surfaces of the Smolyak nodes ξ and −ξ,
// see quadrature.SmolyakHermite), as that group's mirror partner; every
// other surface is a group of one.
func mirrorGroups(surfs []*surface.Surface) [][]int {
	var groups [][]int
	paired := make([]bool, len(surfs))
	for k, s := range surfs {
		if paired[k] {
			continue
		}
		grp := []int{k}
		for j := k + 1; j < len(surfs); j++ {
			if !paired[j] && core.IsMirror(s, surfs[j]) {
				paired[j] = true
				grp = append(grp, j)
				break
			}
		}
		groups = append(groups, grp)
	}
	return groups
}

// ChebAnchors places n Chebyshev–Gauss abscissae on [lo, hi]. Exported
// because the surrogate fitter anchors its broadband coefficient model
// on the same abscissae family (in x = √f) the engine interpolates K
// columns on.
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
