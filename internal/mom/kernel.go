package mom

import (
	"math"
	"sync"
	"sync/atomic"

	"roughsim/internal/greens"
	"roughsim/internal/surface"
)

// kernelSource evaluates one medium's periodic Green's function (and its
// Δ-gradient) at the lattice geometries the MoM rule needs. It is the
// only way 3D code reads a Green's function: dense assembly, the Green's
// table build and the FFT operator build all go through it. exactSource
// runs the Ewald/image sums and is the reference; *tabulated reads a
// TableSet's Chebyshev-in-Δz tables and is the production path.
type kernelSource interface {
	nearEvaluator
	// gridEval evaluates at the wrapped grid offset (ix, iy) ∈ [0, m)²
	// and height difference dz.
	gridEval(ix, iy int, dz float64) (complex128, [3]complex128)
	// regularized is the medium's regularized self value (see
	// greens.Periodic3D.EvalRegularized).
	regularized() complex128
}

// nearEvaluator is the part of a kernel the near-field quadrature reads.
// Besides the kernel sources, the FFT operator's nearChebCache is one.
type nearEvaluator interface {
	// nearEval evaluates at cell offset (cx, cy) ∈ [−near, near] with
	// sub-cell indices (sx, sy) and height difference dz.
	nearEval(cx, cy, sx, sy int, dz float64) (complex128, [3]complex128)
}

// exactSource evaluates through the Ewald/image machinery directly.
type exactSource struct {
	g   *greens.Periodic3D
	h   float64
	sub int
}

// exactSources returns both media's reference kernel sources for a
// surface's grid.
func exactSources(s *surface.Surface, p Params, opt Options) (exactSource, exactSource) {
	h := s.Step()
	return exactSource{g: greens.NewPeriodic3D(p.K1, s.L), h: h, sub: opt.NearSubdiv},
		exactSource{g: greens.NewPeriodic3D(p.K2, s.L), h: h, sub: opt.NearSubdiv}
}

func (e exactSource) gridEval(ix, iy int, dz float64) (complex128, [3]complex128) {
	return e.g.EvalGrad(float64(ix)*e.h, float64(iy)*e.h, dz)
}

func (e exactSource) nearEval(cx, cy, sx, sy int, dz float64) (complex128, [3]complex128) {
	return e.g.EvalGrad(float64(cx)*e.h-subOffset(sx, e.sub, e.h), float64(cy)*e.h-subOffset(sy, e.sub, e.h), dz)
}

func (e exactSource) regularized() complex128 { return e.g.EvalRegularized() }

// subOffset is the position of sub-cell s of sub along one axis,
// relative to the cell center.
func subOffset(s, sub int, h float64) float64 {
	return ((float64(s)+0.5)/float64(sub) - 0.5) * h
}

// selfTerm is the single-layer self-cell entry: the static singular
// integral ∫_cell 1/(4πR) dA over a square cell of side h with the
// observation point at its center, (1/4π)·4h·asinh(1) = h·ln(1+√2)/π,
// plus the regularized remainder over the cell area.
func selfTerm(h float64, src kernelSource) complex128 {
	return complex(h*math.Log(1+math.Sqrt2)/math.Pi, 0) + complex(h*h, 0)*src.regularized()
}

// CurvatureDiagonal returns the double-layer self term of every cell.
// The flat-cell principal value vanishes by odd symmetry, but the
// surface curvature leaves a first-order residue: for the local graph
// z ≈ (f_xx·x² + f_yy·y²)/2, n̂′·∇′G_static = (f_xx·x²+f_yy·y²)/(8πρ³),
// and integrating over the square cell gives (f_xx+f_yy)·h·ln(1+√2)/(4π).
// This term is the same order as the roughness perturbation itself and
// is required for SWM → SPM2 convergence (see the spm2 cross-test).
func CurvatureDiagonal(s *surface.Surface) []float64 {
	fxx, fyy, _ := s.SecondDerivs()
	return curvature(fxx, fyy, s.Step())
}

// curvature is CurvatureDiagonal from the second derivatives on a grid
// of step h.
func curvature(fxx, fyy []float64, h float64) []float64 {
	curv := make([]float64, len(fxx))
	for i := range curv {
		curv[i] = (fxx[i] + fyy[i]) * h * math.Log(1+math.Sqrt2) / (4 * math.Pi)
	}
	return curv
}

// cellGeom is the per-surface geometry the MoM quadrature rules read:
// heights and the local first- and second-order surface derivatives.
type cellGeom struct {
	m, sub                int
	h                     float64
	f                     []float64
	fx, fy, fxx, fyy, fxy []float64
}

func newCellGeom(s *surface.Surface, sub int) *cellGeom {
	g := &cellGeom{m: s.M, sub: sub, h: s.Step(), f: s.H}
	g.fx, g.fy = s.Gradients()
	g.fxx, g.fyy, g.fxy = s.SecondDerivs()
	return g
}

// nearQuadrature integrates source cell j, at cell offset (cx, cy) and
// center height difference dzc from the observation point, by
// sub×sub-point quadrature over its local second-order surface:
// staircase plaquettes with a constant normal would bias near
// interactions at the same order as the roughness perturbation. It
// returns both media's single- and double-layer entries.
func (g *cellGeom) nearQuadrature(src1, src2 nearEvaluator, j, cx, cy int, dzc float64) (s1, s2, d1, d2 complex128) {
	subArea := complex(g.h*g.h/float64(g.sub*g.sub), 0)
	fx, fy, fxx, fyy, fxy := g.fx[j], g.fy[j], g.fxx[j], g.fyy[j], g.fxy[j]
	for sy := 0; sy < g.sub; sy++ {
		oy := subOffset(sy, g.sub, g.h)
		for sx := 0; sx < g.sub; sx++ {
			ox := subOffset(sx, g.sub, g.h)
			ddz := dzc - (fx*ox + fy*oy + 0.5*fxx*ox*ox + 0.5*fyy*oy*oy + fxy*ox*oy)
			v1, gr1 := src1.nearEval(cx, cy, sx, sy, ddz)
			v2, gr2 := src2.nearEval(cx, cy, sx, sy, ddz)
			s1 += v1 * subArea
			s2 += v2 * subArea
			// Local (Jacobian-weighted) normal at the sub-point;
			// ∂G/∂n′ = J·n̂·∇′G = −J·n̂·∇_Δ G.
			snx := -(fx + fxx*ox + fxy*oy)
			sny := -(fy + fyy*oy + fxy*ox)
			d1 += -(complex(snx, 0)*gr1[0] + complex(sny, 0)*gr1[1] + gr1[2]) * subArea
			d2 += -(complex(snx, 0)*gr2[0] + complex(sny, 0)*gr2[1] + gr2[2]) * subArea
		}
	}
	return s1, s2, d1, d2
}

// farPair is the one-point rule for the far pair (i, j), with source
// cell j at wrapped grid offset (px, py) and height difference dzc from
// observation cell i: one medium's single-layer entry sv, which both
// orders share, the double-layer entry dij of j seen from i and dji of i
// seen from j. The kernel is even under Δ → −Δ and its Δ-gradient odd,
// so one kernel read serves both orders.
func (g *cellGeom) farPair(src kernelSource, i, j, px, py int, dzc float64) (sv, dij, dji complex128) {
	area := complex(g.h*g.h, 0)
	v, gr := src.gridEval(px, py, dzc)
	// flux is J·n̂·∇_Δ G with J·n̂ = (−f_x, −f_y, 1) at cell c; the
	// double-layer entry is ∂G/∂n′·area = −J·n̂·∇_Δ G·area.
	flux := func(c int) complex128 {
		return complex(-g.fx[c], 0)*gr[0] + complex(-g.fy[c], 0)*gr[1] + gr[2]
	}
	return v * area, -flux(j) * area, flux(i) * area
}

// parallelFor calls a body for every i in [0, n), spread over up to
// workers goroutines. newBody runs once per worker, so a body can own
// scratch buffers. Every index is handled independently, so results
// written to per-index slots are bitwise deterministic in workers.
func parallelFor(n, workers int, newBody func() func(i int)) {
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			body := newBody()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				body(i)
			}
		}()
	}
	wg.Wait()
}

// fitOrbits fills one coefficient set (G, Gx, Gy, Gz) per slot iy·n+ix
// of an n×n lattice of lateral offsets, fitting only one representative
// of each orbit of the kernel's D4 symmetry. At normal incidence on a
// square lattice the periodic Green's function is even in x, even in y
// and symmetric under x↔y, so a slot is an exact image of its
// representative: a transposed slot exchanges Gx and Gy, and a slot
// whose x (y) index is mirror's image of the representative's negates
// Gx (Gy). mirror is the involution that negates an axis offset; an
// index it fixes is never negated (ix = M/2 of the grid lattice wraps to
// −L/2 from both sides, where the truncated image window is not
// symmetric), so such offsets are only ever filled by their own fit.
// Slots of one orbit share the vectors they do not negate. Slots skip
// reports — the set must be closed under the symmetry — stay empty.
//
// The representatives are fitted over the worker budget, each into its
// own slot, and the images scattered serially afterwards, so the result
// is bitwise deterministic in workers.
func fitOrbits(n, workers int, mirror func(int) int, skip func(ix, iy int) bool, fit func(ix, iy int) [4][]complex128) [][4][]complex128 {
	slots := make([][4][]complex128, n*n)
	var reps []int
	for idx := range slots {
		if rx, ry, _, _, _ := orbitRep(idx%n, idx/n, mirror); ry*n+rx == idx && !skip(rx, ry) {
			reps = append(reps, idx)
		}
	}
	parallelFor(len(reps), workers, func() func(int) {
		return func(k int) { slots[reps[k]] = fit(reps[k]%n, reps[k]/n) }
	})
	negs := make([][4][]complex128, len(slots)) // a representative's negated vectors
	negated := func(rep, q int) []complex128 {
		if negs[rep][q] == nil {
			negs[rep][q] = make([]complex128, len(slots[rep][q]))
			for k, v := range slots[rep][q] {
				negs[rep][q][k] = -v
			}
		}
		return negs[rep][q]
	}
	for idx := range slots {
		ix, iy := idx%n, idx/n
		rx, ry, swap, negX, negY := orbitRep(ix, iy, mirror)
		rep := ry*n + rx
		if rep == idx || skip(ix, iy) {
			continue
		}
		qx, qy := 1, 2 // the representative's vectors that become Gx, Gy
		if swap {
			qx, qy = 2, 1
		}
		c := slots[rep]
		c[1], c[2] = c[qx], c[qy]
		if negX {
			c[1] = negated(rep, qx)
		}
		if negY {
			c[2] = negated(rep, qy)
		}
		slots[idx] = c
	}
	return slots
}

// orbitRep returns the representative of slot (ix, iy)'s orbit — each
// index folded to the smaller of itself and its mirror image, then the
// pair ordered rx ≤ ry — and the map from it back to the slot: a
// transpose, then the x and y reflections.
func orbitRep(ix, iy int, mirror func(int) int) (rx, ry int, swap, negX, negY bool) {
	if m := mirror(ix); m < ix {
		ix, negX = m, true
	}
	if m := mirror(iy); m < iy {
		iy, negY = m, true
	}
	if ix > iy {
		return iy, ix, true, negX, negY
	}
	return ix, iy, false, negX, negY
}

// isOrigin and never are fitOrbits skip sets.
func isOrigin(ix, iy int) bool { return ix == 0 && iy == 0 }

func never(int, int) bool { return false }

// gridMirror reflects a wrapped grid offset index: i → (m−i) mod m.
func gridMirror(m int) func(int) int {
	return func(i int) int { return (m - i) % m }
}

// nearMirror reflects a near-window axis index (see
// tabulated.nearOffset): a → dim−1−a negates the offset. A window that
// reaches half a period (grids of a few cells) holds period-wrapped
// offsets, one of which may sit at exactly L/2 and wrap onto −L/2 from
// both sides, so it is fitted without reflections.
func nearMirror(near, sub, m int) func(int) int {
	dim := (2*near + 1) * sub
	if dim-1 >= m*sub { // the largest offset, (dim−1)/(2·sub)·h, reaches L/2
		return func(a int) int { return a }
	}
	return func(a int) int { return dim - 1 - a }
}

// wrapOffset maps a cell-index difference to its periodic image in
// (−m/2, m/2].
func wrapOffset(d, m int) int {
	d = ((d % m) + m) % m
	if d > m/2 {
		d -= m
	}
	return d
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// chebNodes returns the n Chebyshev nodes of [−span, span].
func chebNodes(n int, span float64) []float64 {
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		x[k] = span * math.Cos((float64(k)+0.5)*math.Pi/float64(n))
	}
	return x
}

// sampleMirrored samples a kernel's value and Δ-gradient (G, Gx, Gy, Gz)
// at nodes symmetric about zero, nodes[n−1−k] = −nodes[k] as chebNodes
// returns them. The kernel is even in Δz but for Gz, which is odd, so
// only the first ⌈n/2⌉ nodes are evaluated and the rest mirrored.
func sampleMirrored(nodes []float64, eval func(z float64) (complex128, [3]complex128)) [4][]complex128 {
	n := len(nodes)
	var smp [4][]complex128
	for q := range smp {
		smp[q] = make([]complex128, n)
	}
	for k := 0; k < (n+1)/2; k++ {
		v, gr := eval(nodes[k])
		smp[0][k], smp[1][k], smp[2][k], smp[3][k] = v, gr[0], gr[1], gr[2]
		r := n - 1 - k
		smp[0][r], smp[1][r], smp[2][r] = v, gr[0], gr[1]
		if r != k {
			smp[3][r] = -gr[2]
		}
	}
	return smp
}

// chebFit samples a kernel at Chebyshev nodes (see sampleMirrored) and
// returns the Chebyshev coefficients of (G, Gx, Gy, Gz) that the
// kernel's Δz parity allows: G, Gx and Gy are even, so only c₀, c₂, …
// are kept, and Gz is odd, so only c₁, c₃, … (see chebEval). With
// mirrored samples the other coefficients are pure rounding noise of the
// cosine transform; leaving them out makes every fit evaluate exactly
// even (odd) under Δz → −Δz, so the system of a mirrored surface is the
// mirror of the original bit for bit.
func chebFit(nodes []float64, eval func(z float64) (complex128, [3]complex128)) [4][]complex128 {
	smp := sampleMirrored(nodes, eval)
	for q := range smp {
		smp[q] = chebCoeffs(smp[q], q/3)
	}
	return smp
}

// chebEval evaluates a chebFit result at t ∈ [−1, 1]. With u = 2t² − 1,
// T₂ₖ(t) = Tₖ(u) and T₂ₖ₊₁(t) = t·Vₖ(u), where Vₖ are the third-kind
// Chebyshev polynomials (V₀ = 1, V₁ = 2u − 1, the same three-term
// recurrence), so each series runs a Clenshaw recurrence
// b = c + 2u·b₁ − b₂ of half its full length: the even ones sum to
// c₀ + u·b₁ − b₂ and Gz to t·(b₀ − b₁). u depends on t², so the results
// are exactly even (odd) in t. t is real, so each complex series runs as
// two real recurrences. G, Gx and Gy share one loop of the first
// series' length.
func chebEval(c *[4][]complex128, t float64) (complex128, [3]complex128) {
	g := c[0]
	n := len(g)
	gx, gy, gz := c[1][:n], c[2][:n], c[3]
	u := 2*t*t - 1
	uu := 2 * u
	var gr1, gr2, gi1, gi2, xr1, xr2, xi1, xi2, yr1, yr2, yi1, yi2, zr1, zr2, zi1, zi2 float64
	for k := n - 1; k >= 1; k-- {
		gr1, gr2 = real(g[k])+uu*gr1-gr2, gr1
		gi1, gi2 = imag(g[k])+uu*gi1-gi2, gi1
		xr1, xr2 = real(gx[k])+uu*xr1-xr2, xr1
		xi1, xi2 = imag(gx[k])+uu*xi1-xi2, xi1
		yr1, yr2 = real(gy[k])+uu*yr1-yr2, yr1
		yi1, yi2 = imag(gy[k])+uu*yi1-yi2, yi1
	}
	for k := len(gz) - 1; k >= 0; k-- {
		zr1, zr2 = real(gz[k])+uu*zr1-zr2, zr1
		zi1, zi2 = imag(gz[k])+uu*zi1-zi2, zi1
	}
	return complex(real(g[0])+u*gr1-gr2, imag(g[0])+u*gi1-gi2), [3]complex128{
		complex(real(gx[0])+u*xr1-xr2, imag(gx[0])+u*xi1-xi2),
		complex(real(gy[0])+u*yr1-yr2, imag(gy[0])+u*yi1-yi2),
		complex(t*(zr1-zr2), t*(zi1-zi2))}
}

// chebCoeffs converts samples at the standard Chebyshev nodes into the
// expansion coefficients of parity par, c_par, c_par+2, … (plain O(n²)
// transform; n is small).
func chebCoeffs(samples []complex128, par int) []complex128 {
	n := len(samples)
	cos := chebCosines(n)
	out := make([]complex128, (n+1-par)/2)
	for k := range out {
		j := 2*k + par
		var s complex128
		for i, c := range cos[j*n : (j+1)*n] {
			s += samples[i] * complex(c, 0)
		}
		out[k] = s * complex(2/float64(n), 0)
	}
	if par == 0 {
		out[0] /= 2
	}
	return out
}

// chebCosineCache maps a node count n to its chebCosines matrix.
var chebCosineCache sync.Map

// chebCosines returns the n×n transform matrix cos(j·(k+½)·π/n) that
// chebCoeffs applies, row j at [j·n, (j+1)·n), computed once per n.
func chebCosines(n int) []float64 {
	if c, ok := chebCosineCache.Load(n); ok {
		return c.([]float64)
	}
	c := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			c[j*n+k] = math.Cos(float64(j) * (float64(k) + 0.5) * math.Pi / float64(n))
		}
	}
	v, _ := chebCosineCache.LoadOrStore(n, c)
	return v.([]float64)
}
