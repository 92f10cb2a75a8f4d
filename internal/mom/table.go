package mom

import (
	"math"
	"math/cmplx"

	"roughsim/internal/greens"
	"roughsim/internal/resilience"
	"roughsim/internal/surface"
)

// TableSet is a per-frequency acceleration structure for MoM assembly.
//
// Observation and source points of the collocation grid differ laterally
// by a finite set of offsets — (i + s/sub)·h per axis — while the
// vertical offset Δz = f_i − f_j varies continuously with the surface
// realization. The periodic Green's functions and their gradients are
// therefore tabulated once per lateral offset as Chebyshev interpolants
// in Δz over [−ZSpan, ZSpan], and every subsequent assembly (every SSCM
// collocation node, every Monte-Carlo sample at that frequency) reduces
// to Clenshaw evaluations: for the paper's Fig. 7 this replaces millions
// of Ewald/image-series evaluations per sample by one-time table
// construction.
type TableSet struct {
	L     float64
	M     int
	ZSpan float64
	Sub   int // near-field subdivision factor the tables cover
	Near  int // near-field radius the tables cover

	g1, g2 *tabulated
	// Exact evaluators the tables were sampled from.
	exact1, exact2 *greens.Periodic3D
}

const chebDegree = 32 // interpolation nodes per offset

// tabulated interpolates one medium's G and ∇G; it is the production
// kernelSource.
//
// What is stored is the smooth remainder G − G_free(central image): the
// free-space term e^{jkR}/(4πR) of the nearest image is sharply peaked
// in Δz for small lateral offsets (scale ~ρ, far below any reasonable
// node count), so it is subtracted before fitting and added back exactly
// (one complex exponential) at evaluation time. The remainder — distant
// images plus the spectral part — varies on the lattice scale L and is
// captured by the chebDegree-node fit to ~1e−13 relative in the
// dielectric and ~3e−10 in the conductor across 1–9 GHz
// (TestTableInterpolationErrorAcrossSkinDepthRange).
type tabulated struct {
	m, sub, near int
	h            float64
	zspan        float64
	k            complex128
	l            float64
	g            *greens.Periodic3D
	subShells    int // free-space image shells evaluated exactly (direct mode)
	ewaldCentral bool
	// far[(dy*m+dx)] and nearTab[subOffsetIndex] hold Chebyshev
	// coefficients for (G, Gx, Gy, Gz); the slots of one symmetry orbit
	// share vectors (see fitOrbits), so they are read-only.
	far     [][4][]complex128
	nearTab [][4][]complex128
	nearDim int // sub-offsets per axis = (2·near+1)·sub
}

// NewTableSet builds tables for both media at one frequency. zspan must
// bound |f_i − f_j| + the second-order tilt corrections of every surface
// that will be assembled against it.
func NewTableSet(p Params, L float64, M int, zspan float64, opt Options) *TableSet {
	opt = opt.withDefaults()
	ts := &TableSet{
		L: L, M: M, ZSpan: zspan, Sub: opt.NearSubdiv, Near: opt.NearRadius,
		exact1: greens.NewPeriodic3D(p.K1, L),
		exact2: greens.NewPeriodic3D(p.K2, L),
	}
	ts.g1 = newTabulated(ts.exact1, L, M, zspan, opt)
	ts.g2 = newTabulated(ts.exact2, L, M, zspan, opt)
	return ts
}

// compatible reports, as a typed error, whether the tables can serve a
// surface: the same grid (resilience.KindInvalidInput), the same
// near-field options (KindInvalidInput) and a Δz span of at least need
// (KindNumerical).
func (ts *TableSet) compatible(s *surface.Surface, opt Options, need float64) error {
	if s.M != ts.M || s.L != ts.L {
		return resilience.Errorf(resilience.KindInvalidInput, "mom.tables",
			"surface grid %gx%d does not match table %gx%d", s.L, s.M, ts.L, ts.M)
	}
	if opt.NearSubdiv != ts.Sub || opt.NearRadius != ts.Near {
		return resilience.Errorf(resilience.KindInvalidInput, "mom.tables",
			"options (near=%d sub=%d) do not match table (near=%d sub=%d)",
			opt.NearRadius, opt.NearSubdiv, ts.Near, ts.Sub)
	}
	if need > ts.ZSpan {
		return resilience.Errorf(resilience.KindNumerical, "mom.tables",
			"needed Δz span %g exceeds table span %g", need, ts.ZSpan)
	}
	return nil
}

// newTabulated samples g through exactSource at Chebyshev Δz-nodes for
// every far and near lateral offset, minus the exactly evaluated sharp
// part, and fits the remainder. The sharp part has the kernel's lateral
// and ±Δz symmetries, so the remainder does too: only one offset of each
// symmetry orbit and one node of each ±Δz pair are sampled (fitOrbits,
// chebFit).
func newTabulated(g *greens.Periodic3D, L float64, M int, zspan float64, opt Options) *tabulated {
	h := L / float64(M)
	t := &tabulated{m: M, sub: opt.NearSubdiv, near: opt.NearRadius, h: h, zspan: zspan, k: g.K, l: L, g: g}
	if g.UsesEwald() {
		// The spatial central Ewald term is the only sub-period-scale
		// part (it carries the |Δz| kink at small lateral offsets);
		// evaluate it exactly and interpolate the smooth remainder.
		t.ewaldCentral = true
	} else {
		// Direct-sum media (strong loss): the whole first image shell
		// still carries phase across the Δz span; evaluate it exactly
		// and interpolate only the tiny (≲e^{−2·Im(k)·L}) remainder.
		t.subShells = 1
	}
	nodes := chebNodes(chebDegree, zspan)
	t.nearDim = (2*opt.NearRadius + 1) * opt.NearSubdiv

	// Far table: one entry per wrapped grid offset. The near offsets are
	// also filled (they are cheap and keep indexing uniform), but
	// assembly never reads the (0,0) entry (self terms stay exact).
	t.far = fitOrbits(M, opt.Workers, gridMirror(M), isOrigin, func(ix, iy int) [4][]complex128 {
		return chebFit(nodes, t.farRemainder(ix, iy))
	})
	// Near sub-offsets: lateral values (i + (s+0.5)/sub − 0.5 − …)·h
	// relative to the observation point, spanning the near window.
	t.nearTab = fitOrbits(t.nearDim, opt.Workers, nearMirror(t.near, t.sub, M), never, func(ax, ay int) [4][]complex128 {
		return chebFit(nodes, t.nearRemainder(ax, ay))
	})
	return t
}

// farRemainder is the smooth part the far table fits at wrapped grid
// offset (ix, iy): the exact kernel minus freeImages.
func (t *tabulated) farRemainder(ix, iy int) func(z float64) (complex128, [3]complex128) {
	exact := exactSource{g: t.g, h: t.h, sub: t.sub}
	return t.remainder(float64(ix)*t.h, float64(iy)*t.h, func(z float64) (complex128, [3]complex128) {
		return exact.gridEval(ix, iy, z)
	})
}

// nearRemainder is the smooth part the near table fits at axis indices
// (ax, ay).
func (t *tabulated) nearRemainder(ax, ay int) func(z float64) (complex128, [3]complex128) {
	exact := exactSource{g: t.g, h: t.h, sub: t.sub}
	return t.remainder(t.nearOffset(ax), t.nearOffset(ay), func(z float64) (complex128, [3]complex128) {
		return exact.nearEval(ax/t.sub-t.near, ay/t.sub-t.near, ax%t.sub, ay%t.sub, z)
	})
}

// remainder subtracts the sharp part at lateral offset (dx, dy) from the
// exact kernel eval.
func (t *tabulated) remainder(dx, dy float64, eval func(z float64) (complex128, [3]complex128)) func(z float64) (complex128, [3]complex128) {
	return func(z float64) (complex128, [3]complex128) {
		v, gr := eval(z)
		fv, fg := t.freeImages(dx, dy, z)
		return v - fv, [3]complex128{gr[0] - fg[0], gr[1] - fg[1], gr[2] - fg[2]}
	}
}

// nearOffset maps a near-table axis index to its lateral offset: the
// observation sits at cell offset c ∈ [−near, near] with sub-cell shift
// o ∈ sub points, combined as (c − o) where o = ((s+0.5)/sub − 0.5)·h.
func (t *tabulated) nearOffset(a int) float64 {
	return float64(a/t.sub-t.near)*t.h - subOffset(a%t.sub, t.sub, t.h)
}

// nearIndex is the inverse of nearOffset for cell offset c and sub index s.
func (t *tabulated) nearIndex(c, s int) int {
	return (c+t.near)*t.sub + s
}

// freeImages returns the exactly evaluated sharp part of the kernel:
// the spatial central Ewald term (Ewald-mode media) or the free-space
// image sum over the central subShells shells (direct-mode media), with
// Δ-gradients, at the period-wrapped lateral offset.
func (t *tabulated) freeImages(dx, dy, dz float64) (complex128, [3]complex128) {
	if t.ewaldCentral {
		return t.g.SpatialShell(dx, dy, dz)
	}
	dx = greens.WrapPeriod(dx, t.l)
	dy = greens.WrapPeriod(dy, t.l)
	var v complex128
	var grad [3]complex128
	for p := -t.subShells; p <= t.subShells; p++ {
		for q := -t.subShells; q <= t.subShells; q++ {
			rx := dx - float64(p)*t.l
			ry := dy - float64(q)*t.l
			r := math.Sqrt(rx*rx + ry*ry + dz*dz)
			ekr := cmplx.Exp(complex(0, 1) * t.k * complex(r, 0))
			v += ekr / complex(4*math.Pi*r, 0)
			dvdr := ekr * (complex(0, 1)*t.k*complex(r, 0) - 1) / complex(4*math.Pi*r*r, 0)
			grad[0] += dvdr * complex(rx/r, 0)
			grad[1] += dvdr * complex(ry/r, 0)
			grad[2] += dvdr * complex(dz/r, 0)
		}
	}
	return v, grad
}

// gridEval interpolates G and ∇G at wrapped grid offset (ix, iy) and
// height difference dz.
func (t *tabulated) gridEval(ix, iy int, dz float64) (complex128, [3]complex128) {
	return t.eval(&t.far[iy*t.m+ix], float64(ix)*t.h, float64(iy)*t.h, dz)
}

func (t *tabulated) nearEval(cx, cy, sx, sy int, dz float64) (complex128, [3]complex128) {
	return t.evalNear(t.nearIndex(cx, sx), t.nearIndex(cy, sy), dz)
}

func (t *tabulated) regularized() complex128 { return t.g.EvalRegularized() }

// evalNear interpolates at near-table axis indices (ax, ay).
func (t *tabulated) evalNear(ax, ay int, dz float64) (complex128, [3]complex128) {
	return t.eval(&t.nearTab[ay*t.nearDim+ax], t.nearOffset(ax), t.nearOffset(ay), dz)
}

// eval adds the sharp part at lateral offset (dx, dy) back to the
// interpolated remainder e.
func (t *tabulated) eval(e *[4][]complex128, dx, dy, dz float64) (complex128, [3]complex128) {
	v, gr := chebEval(e, dz/t.zspan)
	fv, fg := t.freeImages(dx, dy, dz)
	return v + fv, [3]complex128{gr[0] + fg[0], gr[1] + fg[1], gr[2] + fg[2]}
}

// AssembleTabulated builds the dense system using the tables; it is
// numerically interchangeable with Assemble (the tests bound the
// difference) at a fraction of the cost per surface. A mismatched grid
// or options, or a surface whose heights exceed the table span, is
// rejected with a typed error (see TableSet.compatible).
func AssembleTabulated(s *surface.Surface, p Params, ts *TableSet, opt Options) (*System, error) {
	opt = opt.withDefaults()
	// Tilted sub-cells can push |Δz| slightly past 2·max|f|.
	if err := ts.compatible(s, opt, 2.2*surfaceZMax(s)); err != nil {
		return nil, err
	}
	return assemble(s, p, ts.g1, ts.g2, opt), nil
}
