package mom

import (
	"math"

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

	g1, g2 *tabulated
	// Exact evaluators the tables were sampled from.
	exact1, exact2 *greens.Periodic3D
}

// maxTableNodes caps the Chebyshev node count of one table fit (see
// tableNodes).
const maxTableNodes = 32

// tableNodes returns the Chebyshev node count a table fit over
// [−zspan, zspan] on period L needs. The fitted remainder is analytic in
// the strip |Im Δz| < 1.5L (see tabulated), so on the span scaled to
// [−1, 1] its coefficients decay like ρ⁻ⁿ with ρ = r + √(1 + r²),
// r = 1.5L/zspan, the Bernstein ellipse that touches the strip. The
// error of an n-node fit against a 32-node one measures err(n) ≈ 150·ρ⁻ⁿ
// from 210 nm to 4.6 µm spans on L = 5 µm, so n is the smallest count
// with 150·ρ⁻ⁿ ≤ 1e−16, double rounding of the kernel values, rounded up
// to even — sampling evaluates ⌈n/2⌉ nodes of each ±Δz pair, so an odd n
// costs as much as n+1 — and capped at maxTableNodes. At L = 5 µm that
// is 10 nodes at a 210 nm span, 12 at 280 nm, 22 at 2 µm and 32 from
// about 4 µm up. The target is not the evaluator's own error: the Ewald
// sum is truncated at 1.5e−10 of 1/(4πR) (greens.NewPeriodic3D), but
// that truncation is one smooth function of Δz, sampled by the fit and
// evaluated by Assemble alike, so it does not enter their difference.
func tableNodes(L, zspan float64) int {
	r := 1.5 * L / zspan
	n := int(math.Ceil(math.Log(150/1e-16) / math.Log(r+math.Sqrt(1+r*r))))
	return min(max(n+n%2, 2), maxTableNodes)
}

// tabulated interpolates one medium's G and ∇G; it is the production
// kernelSource.
//
// What is stored is the smooth remainder G − G_free(3×3 shell): the
// free-space terms e^{jkR}/(4πR) of the central image and its eight
// neighbours are sharply peaked in Δz for small lateral offsets (scale
// ~ρ, far below any reasonable node count; near ±L/2 a neighbour is as
// close as the central image), so they are subtracted before fitting and
// added back exactly at evaluation time (freeImages: greens.ImageSum with
// one shell, the real-arithmetic sum the conductor kernel also runs on
// its wider window). The remainder varies on the lattice scale L: its
// nearest complex-Δz singularity, the next image shell, sits at ±i·1.5L
// or farther. Each fit takes the node count that strip needs over its
// Δz span (tableNodes: err(n) ≈ 150·ρ⁻ⁿ against a 32-node fit, with ρ
// the Bernstein-ellipse radius of the strip), capped at 32:
//   - at sweep-m20's 210 nm span on L = 5 µm, 10 nodes reach the
//     32-node fit's kernel values; AssembleTabulated and the tabulated
//     FFT MatVec stay within 1e−13 of max |entry| of a 32-node build
//     (TestSpanSizedTablesMatchFullFits);
//   - at a 2 µm span on L = 5 µm (22 nodes), kernel values are within
//     ~1.7e−13 relative in the dielectric and ~3e−10 in the conductor
//     across 1–9 GHz (TestTableInterpolationErrorAcrossSkinDepthRange);
//   - AssembleTabulated entries are within ~1e−16 of max |entry| of
//     Assemble's at σ ≤ 0.33 µm (ZSpan = 14σ ≤ 4.6 µm, L = 5 µm), and
//     within ~2e−8 at the paper's σ = η = 1 µm on L = 4 µm (ZSpan
//     14 µm, TestTabulatedMatchesExactAtPaperSigma), where the span is
//     3.5 periods, the rule asks for about 88 nodes and the cap of 32
//     bounds the fit.
type tabulated struct {
	m, sub, near int
	h            float64
	zspan        float64
	k            complex128
	l            float64
	g            *greens.Periodic3D
	// far[(dy*m+dx)] and nearTab[subOffsetIndex] hold Chebyshev
	// coefficients for (G, Gx, Gy, Gz), each series only those its Δz
	// parity allows (see chebFit); the slots of one symmetry orbit
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
		L: L, M: M, ZSpan: zspan, Sub: opt.NearSubdiv,
		exact1: greens.NewPeriodic3D(p.K1, L),
		exact2: greens.NewPeriodic3D(p.K2, L),
	}
	ts.g1 = newTabulated(ts.exact1, L, M, zspan, opt)
	ts.g2 = newTabulated(ts.exact2, L, M, zspan, opt)
	return ts
}

// compatible reports, as a typed error, whether the tables can serve a
// surface: the same grid (resilience.KindInvalidInput), the same
// near-field subdivision (KindInvalidInput) and a Δz span of at least
// need (KindNumerical).
func (ts *TableSet) compatible(s *surface.Surface, opt Options, need float64) error {
	if s.M != ts.M || s.L != ts.L {
		return resilience.Errorf(resilience.KindInvalidInput, "mom.tables",
			"surface grid %gx%d does not match table %gx%d", s.L, s.M, ts.L, ts.M)
	}
	if opt.NearSubdiv != ts.Sub {
		return resilience.Errorf(resilience.KindInvalidInput, "mom.tables",
			"near-field subdivision %d does not match table's %d", opt.NearSubdiv, ts.Sub)
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
	t := &tabulated{m: M, sub: opt.NearSubdiv, near: nearRadius, h: h, zspan: zspan, k: g.K, l: L, g: g}
	t.nearDim = (2*nearRadius + 1) * opt.NearSubdiv
	t.fit(chebNodes(tableNodes(L, zspan), zspan), opt.Workers)
	return t
}

// fit fills the far and near tables from samples at the given Δz nodes.
func (t *tabulated) fit(nodes []float64, workers int) {
	// Far table: one entry per wrapped grid offset. The near offsets are
	// also filled (they are cheap and keep indexing uniform), but
	// assembly never reads the (0,0) entry (self terms stay exact).
	t.far = fitOrbits(t.m, workers, gridMirror(t.m), isOrigin, func(ix, iy int) [4][]complex128 {
		return chebFit(nodes, t.farRemainder(ix, iy))
	})
	// Near sub-offsets: lateral values (i + (s+0.5)/sub − 0.5 − …)·h
	// relative to the observation point, spanning the near window.
	t.nearTab = fitOrbits(t.nearDim, workers, nearMirror(t.near, t.sub, t.m), never, func(ax, ay int) [4][]complex128 {
		return chebFit(nodes, t.nearRemainder(ax, ay))
	})
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

// freeImages returns the exactly evaluated sharp part of the kernel: the
// free-space image sum over the central 3×3 shell (greens.ImageSum), with
// its Δ-gradient, at the period-wrapped lateral offset.
func (t *tabulated) freeImages(dx, dy, dz float64) (complex128, [3]complex128) {
	return greens.ImageSum(t.k, t.l, 1, greens.WrapPeriod(dx, t.l), greens.WrapPeriod(dy, t.l), dz)
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
