package mom

import (
	"context"
	"math"
	"math/cmplx"

	"roughsim/internal/fft"
	"roughsim/internal/resilience"
	"roughsim/internal/specfun"
	"roughsim/internal/surface"
)

// FFTOperator is the O(N log N) matrix-free form of the MoM system (9),
// implementing the FFT-based iterative strategy the paper cites ([17]):
// over the height range of the surface the kernels are replaced by
// per-lateral-offset polynomials in Δz,
//
//	G(Δρ, Δz) ≈ Σ_{q ≤ P} c_q(Δρ)·Δz^q,
//
// fitted at Chebyshev nodes of the occupied interval (a near-minimax
// variant of the Taylor expansion in the reference method). With
// Δz = f_i − f_j the powers split into observation and source factors,
// so the far interactions become P+1 two-dimensional cyclic convolutions
// per kernel family, evaluated by FFT. Close pairs — where the
// polynomial model cannot converge across the height range — are
// corrected with exact entries.
//
// Validity: the polynomial error decays like (Δz-range/ρ)^{P+1} with ρ
// the lateral pair distance, so the operator requires
// max|f_i − f_j| ≲ nearRadius·h — the slightly-rough / finely-gridded
// regime, as in ref. [17]. Construction returns a typed
// resilience.KindNumerical error outside it; use the dense or tabulated
// paths there (the resilient solve chain does exactly that).
type FFTOperator struct {
	N     int
	Order int

	m    int
	h    float64
	l    float64
	beta complex128
	surf *surface.Surface

	fpow         [][]float64
	jnx, jny     []float64
	spec         [2]kernelFamilies // spectral kernels (FFT of c_q·h²)
	realK        [2]kernelFamilies // real-space kernels for near model
	nearEntries  []nearEntry
	diag1, diag2 complex128
	curv         []float64
}

// kernelFamilies holds the four per-order kernel sets of one medium.
type kernelFamilies struct {
	g, gx, gy, gz [][]complex128 // [order+1][m*m]
}

type nearEntry struct {
	i, j           int
	s1, s2, d1, d2 complex128 // exact − polynomial-model corrections
}

// fftModelEstimate is the a-priori relative model error of the order-P
// polynomial kernel expansion (P = fftOrder) for a surface: the
// expansion error decays like (Δz-range/ρ)^{P+1} and the near
// corrections fix every pair inside fftReach's rhoMin exactly, so the
// worst surviving pair dominates. The solve chain admits the operator
// only when this estimate is below fftModelTol.
func fftModelEstimate(s *surface.Surface) float64 {
	zrange, rhoMin := fftReach(s)
	if zrange == 0 {
		return 0
	}
	return math.Pow(zrange/rhoMin, float64(fftOrder+1))
}

// fftReach returns the surface's height range 2·max|f| and rhoMin, the
// lateral distance of the closest pair the polynomial model must
// represent (every closer pair is corrected exactly).
func fftReach(s *surface.Surface) (zrange, rhoMin float64) {
	return 2 * surfaceZMax(s), float64(nearRadius+1) * s.Step()
}

// surfaceZMax returns max|f| over the surface heights.
func surfaceZMax(s *surface.Surface) float64 {
	var zmax float64
	for _, v := range s.H {
		if a := math.Abs(v); a > zmax {
			zmax = a
		}
	}
	return zmax
}

// NewFFTOperator builds the operator at polynomial order (≥ 1, typically
// 3–8) for the given surface, evaluating the kernels exactly. Rejections
// are typed: resilience.KindInvalidInput for a bad order,
// resilience.KindNumerical when the surface's height range exceeds the
// operator's convergence bound — both deterministic, so callers must
// fall back rather than retry.
func NewFFTOperator(s *surface.Surface, p Params, order int, opt Options) (*FFTOperator, error) {
	opt = opt.withDefaults()
	if err := checkFFTAdmissible(s, order, opt); err != nil {
		return nil, err
	}
	src1, src2 := exactSources(s, p, opt)
	return buildFFTOperator(s, p, order, opt, src1, src2), nil
}

// NewFFTOperatorTabulated is NewFFTOperator evaluating the kernels
// through a tabulated solver's Green's tables instead of exact Ewald
// sums, which removes nearly all transcendental work from the build.
// The tables must match the surface grid and options, and their Δz span
// must cover both the near-correction quadrature (2.2·zmax, as for
// AssembleTabulated) and the polynomial fit interval.
func NewFFTOperatorTabulated(s *surface.Surface, p Params, ts *TableSet, order int, opt Options) (*FFTOperator, error) {
	opt = opt.withDefaults()
	if err := checkFFTAdmissible(s, order, opt); err != nil {
		return nil, err
	}
	zmax := surfaceZMax(s)
	if err := ts.compatible(s, opt, math.Max(2.2*zmax, fitSpan(zmax, s.Step()))); err != nil {
		return nil, err
	}
	return buildFFTOperator(s, p, order, opt, ts.g1, ts.g2), nil
}

// checkFFTAdmissible applies the operator's deterministic admissibility
// checks: order validation and the polynomial convergence bound.
func checkFFTAdmissible(s *surface.Surface, order int, opt Options) error {
	if order < 1 {
		return resilience.Errorf(resilience.KindInvalidInput, "mom.fftop",
			"FFT operator order must be ≥ 1 (got %d)", order)
	}
	if zrange, rhoMin := fftReach(s); zrange > 0.8*rhoMin {
		return resilience.Errorf(resilience.KindNumerical, "mom.fftop",
			"height range %.3g exceeds FFT-operator convergence bound %.3g (σ too large for this grid; use dense/tabulated assembly)", zrange, 0.8*rhoMin)
	}
	return nil
}

// fitSpan is the Δz interval half-width the polynomial kernels are
// fitted over: slightly past the occupied ±zmax, or a small fraction of
// the cell for an exactly flat surface (a degenerate fit interval would
// make the Vandermonde system singular).
func fitSpan(zmax, h float64) float64 {
	if zmax == 0 {
		return h / 4
	}
	return 2.05 * zmax
}

// buildFFTOperator constructs the operator from per-medium kernel
// sources. The kernel fits and near corrections — the two costly loops —
// are spread over Options.Workers; both are bitwise deterministic in the
// worker count because every slot is computed independently.
func buildFFTOperator(s *surface.Surface, p Params, order int, opt Options, src1, src2 kernelSource) *FFTOperator {
	g := newCellGeom(s, opt.NearSubdiv)
	m := s.M
	n := m * m
	h := g.h

	op := &FFTOperator{N: n, Order: order, m: m, h: h, l: s.L, beta: p.Beta}
	op.bindSurface(s, g.fx, g.fy)

	zfit := fitSpan(surfaceZMax(s), h)
	for med, src := range []kernelSource{src1, src2} {
		rk := fitKernels(src, m, h, order, zfit, opt.Workers)
		op.realK[med] = rk
		var sp kernelFamilies
		sp.g = make([][]complex128, order+1)
		sp.gx = make([][]complex128, order+1)
		sp.gy = make([][]complex128, order+1)
		sp.gz = make([][]complex128, order+1)
		// The parity-forbidden families are zero (see fitKernels) and
		// stay untransformed; MatVec never reads them.
		for q := 0; q <= order; q++ {
			if q%2 == 0 {
				sp.g[q] = fft.Forward2D(rk.g[q], m, m)
				sp.gx[q] = fft.Forward2D(rk.gx[q], m, m)
				sp.gy[q] = fft.Forward2D(rk.gy[q], m, m)
			} else {
				sp.gz[q] = fft.Forward2D(rk.gz[q], m, m)
			}
		}
		op.spec[med] = sp
	}

	op.diag1 = selfTerm(h, src1)
	op.diag2 = selfTerm(h, src2)

	span := nearSpan(g)
	op.buildNearCorrections(g, fitNearCheb(src1, m, opt, span), fitNearCheb(src2, m, opt, span), opt)
	return op
}

// bindSurface sets the operator's surface-dependent factors for surface
// s with gradients (fx, fy): the height powers f^q, the Jacobian-weighted
// normal components and the curvature diagonal. A rebind (see mirror)
// reuses the storage.
func (op *FFTOperator) bindSurface(s *surface.Surface, fx, fy []float64) {
	op.surf = s
	if op.fpow == nil {
		op.jnx = make([]float64, op.N)
		op.jny = make([]float64, op.N)
		op.fpow = make([][]float64, op.Order+1)
		for q := range op.fpow {
			op.fpow[q] = make([]float64, op.N)
		}
	}
	for i := range fx {
		op.jnx[i] = -fx[i]
		op.jny[i] = -fy[i]
	}
	op.curv = CurvatureDiagonal(s)
	for q := range op.fpow {
		for i := range op.fpow[q] {
			op.fpow[q][i] = math.Pow(s.H[i], float64(q))
		}
	}
}

// fitKernels samples G and ∇G at Chebyshev z-nodes for every lateral
// grid offset and converts the samples into polynomial coefficients in
// Δz (already scaled by the cell area h²). The (0,0) offset is zeroed;
// near corrections supply it exactly. The coefficients parity forbids —
// odd q for G, Gx and Gy, even q for Gz — are exactly 0 (with mirrored
// samples the Vandermonde inverse would only leave rounding noise
// there), so the model is exactly even (odd) in Δz. One offset per
// symmetry orbit is fitted, from one node of each ±Δz pair (fitOrbits,
// sampleMirrored), across the worker budget with bitwise deterministic
// results.
func fitKernels(src kernelSource, m int, h float64, order int, zfit float64, workers int) kernelFamilies {
	nodes := chebNodes(order+1, zfit)
	inv := vandermondeInverse(nodes)
	area := complex(h*h, 0)
	fits := fitOrbits(m, workers, gridMirror(m), isOrigin, func(ix, iy int) [4][]complex128 {
		smp := sampleMirrored(nodes, func(z float64) (complex128, [3]complex128) {
			v, gr := src.gridEval(ix, iy, z)
			return v * area, [3]complex128{gr[0] * area, gr[1] * area, gr[2] * area}
		})
		var c [4][]complex128
		for f := range c {
			c[f] = make([]complex128, order+1)
			for q := f / 3; q <= order; q += 2 {
				for s, v := range smp[f] {
					c[f][q] += complex(inv[q][s], 0) * v
				}
			}
		}
		return c
	})
	family := func(f int) [][]complex128 {
		out := make([][]complex128, order+1)
		for q := range out {
			out[q] = make([]complex128, m*m)
			for idx, c := range fits {
				if c[f] != nil { // (0,0) stays zero
					out[q][idx] = c[f][q]
				}
			}
		}
		return out
	}
	return kernelFamilies{g: family(0), gx: family(1), gy: family(2), gz: family(3)}
}

// vandermondeInverse returns the inverse of V[s][q] = nodes[s]^q, so
// coefficients = inv · samples.
func vandermondeInverse(nodes []float64) [][]float64 {
	n := len(nodes)
	a := make([][]float64, n)
	inv := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		inv[i] = make([]float64, n)
		inv[i][i] = 1
		p := 1.0
		for q := 0; q < n; q++ {
			a[i][q] = p
			p *= nodes[i]
		}
	}
	// Gauss–Jordan with partial pivoting (n ≤ ~8).
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		a[c], a[p] = a[p], a[c]
		inv[c], inv[p] = inv[p], inv[c]
		pv := a[c][c]
		for q := 0; q < n; q++ {
			a[c][q] /= pv
			inv[c][q] /= pv
		}
		for r := 0; r < n; r++ {
			if r == c || a[r][c] == 0 {
				continue
			}
			fac := a[r][c]
			for q := 0; q < n; q++ {
				a[r][q] -= fac * a[c][q]
				inv[r][q] -= fac * inv[c][q]
			}
		}
	}
	// inv currently maps samples → solution of V·x = e, i.e. V⁻¹ rows:
	// x[q] = Σ_s inv[q][s]·samples[s].
	return inv
}

// modelEntry evaluates the polynomial-model S and D entries for a pair.
func (op *FFTOperator) modelEntry(med, i, j int) (sv, dv complex128) {
	m := op.m
	px := ((i%m-j%m)%m + m) % m
	py := ((i/m-j/m)%m + m) % m
	idx := py*m + px
	dz := op.surf.H[i] - op.surf.H[j]
	rk := op.realK[med]
	var zp complex128 = 1
	for q := 0; q <= op.Order; q++ {
		sv += rk.g[q][idx] * zp
		dv += -(complex(op.jnx[j], 0)*rk.gx[q][idx] +
			complex(op.jny[j], 0)*rk.gy[q][idx] + rk.gz[q][idx]) * zp
		zp *= complex(dz, 0)
	}
	return sv, dv
}

// nearChebOrder is the per-lateral-point Chebyshev order used to cache
// the near kernel's Δz dependence during the near-correction build. The
// nearest used lateral point sits at ρ ≈ 0.64h. At the default
// fftModelTol the gate admits 2·zmax up to 3h·(1e-6)^{1/7} ≈ 0.42h, where
// that point's Bernstein convergence factor is ≈ 3.3 and 17 nodes fit it
// to ~1e-9 relative; at |Δz| ≲ 0.25h the factor is ≳ 5 (~1e-12), and on
// sweep-m20's surfaces (|Δz| ≲ 0.1h) the fits reach rounding level.
const nearChebOrder = 16

// nearChebTol is the noise plateau of a near-cache fit, relative to a
// point's largest coefficient: the rounding of the tabulated samples and
// of the coefficient transform leaves the tail of a fast-converging fit
// at 1e-16–1e-15, so coefficients at most nearChebTol are dropped (see
// truncateCheb). On sweep-m20's collocation surfaces (Δz spans of
// 9–23 nm against h = 250 nm) points keep a full length of 8.4–10.5 of
// the 17 coefficients on average (10.5–12.4 before chebFit dropped the
// transform noise the other parity left above the cut), so each
// Clenshaw loop runs 4–5 steps; at 1e-16 almost none would go.
const nearChebTol = 1e-15

// nearChebCache holds, per (lateral cell offset, sub-cell) point, a
// Chebyshev fit in Δz of the near kernel's value and Δ-gradient. The
// near-correction loop queries the same few hundred lateral points at
// N·win²·sub² different heights; fitting each point once turns ~10⁶
// exact kernel evaluations (Ewald sums for the dielectric medium) into
// a few thousand plus cheap Clenshaw evaluations. It is the
// nearEvaluator the near-correction quadrature reads.
type nearChebCache struct {
	near, sub int
	dim       int     // per-axis index count = (2·near+1)·sub
	span      float64 // |Δz| half-range the fit covers (0 for flat surfaces)
	c         [][4][]complex128
}

func (nc *nearChebCache) nearEval(cx, cy, sx, sy int, dz float64) (complex128, [3]complex128) {
	var t float64
	if nc.span > 0 {
		t = dz / nc.span
	}
	return chebEval(&nc.c[((cy+nc.near)*nc.sub+sy)*nc.dim+(cx+nc.near)*nc.sub+sx], t)
}

// fitNearCheb samples src at Chebyshev Δz-nodes for every near lateral
// point (one per symmetry orbit, see fitOrbits) and converts the samples
// to coefficient vectors cut at their noise plateau (truncateCheb).
// span == 0 (flat surface) degenerates to a single node at Δz = 0,
// making the cached value bitwise identical to a direct evaluation. The
// (0,0) cell block is skipped: it can sit at ρ = 0 (singular) and the
// correction loop never queries it because the self pair is excluded.
func fitNearCheb(src nearEvaluator, m int, opt Options, span float64) *nearChebCache {
	near, sub := nearRadius, opt.NearSubdiv
	nc := &nearChebCache{near: near, sub: sub, dim: (2*near + 1) * sub, span: span}
	nn := nearChebOrder + 1
	if span == 0 {
		nn = 1
	}
	nodes := chebNodes(nn, span)
	centralCell := func(ax, ay int) bool { return ax/sub == near && ay/sub == near }
	nc.c = fitOrbits(nc.dim, opt.Workers, nearMirror(near, sub, m), centralCell, func(ax, ay int) [4][]complex128 {
		return truncateCheb(chebFit(nodes, func(z float64) (complex128, [3]complex128) {
			return src.nearEval(ax/sub-near, ay/sub-near, ax%sub, ay%sub, z)
		}))
	})
	return nc
}

// truncateCheb cuts one point's four parity-reduced series (see
// chebFit) to their shortest common full length n that drops only
// coefficients at most nearChebTol of the point's largest, keeping at
// least one: the even series keep their ⌈n/2⌉ coefficients below
// index n, Gz its ⌊n/2⌋.
func truncateCheb(c [4][]complex128) [4][]complex128 {
	var big float64
	for _, s := range c {
		for _, v := range s {
			big = math.Max(big, cmplx.Abs(v))
		}
	}
	n := 1
	for q, s := range c {
		par := q / 3
		for k := len(s) - 1; k >= 0 && 2*k+par >= n; k-- {
			if cmplx.Abs(s[k]) > nearChebTol*big {
				n = 2*k + par + 1
				break
			}
		}
	}
	for q := range c {
		c[q] = c[q][:(n+1-q/3)/2]
	}
	return c
}

// nearSpan bounds |Δz| as the near-correction loop sees it: the height
// difference range plus the largest quadratic-surface sub-cell shift.
func nearSpan(g *cellGeom) float64 {
	var fmin, fmax float64
	for _, v := range g.f {
		fmin = math.Min(fmin, v)
		fmax = math.Max(fmax, v)
	}
	var maxShift float64
	ho := g.h / 2
	for j := range g.f {
		sh := (math.Abs(g.fx[j])+math.Abs(g.fy[j]))*ho +
			0.5*(math.Abs(g.fxx[j])+math.Abs(g.fyy[j]))*ho*ho + math.Abs(g.fxy[j])*ho*ho
		maxShift = math.Max(maxShift, sh)
	}
	return (fmax - fmin) + maxShift
}

// buildNearCorrections precomputes exact−model deltas for close pairs
// (including the self offset, whose model contribution must be removed
// because the exact diagonal is applied separately), integrating the
// near kernels nc1, nc2 (fitNearCheb over nearSpan). Each observation
// row's window is computed independently into its own slots (nearRow),
// so the loop parallelizes over the worker budget with a bitwise
// deterministic result. On a translation-invariant surface
// (cellGeom.uniform) every window is row 0's shifted, so only row 0 is
// computed and its entries are copied with i and j moved by the shift.
func (op *FFTOperator) buildNearCorrections(g *cellGeom, nc1, nc2 nearEvaluator, opt Options) {
	m := op.m
	win := 2*nearRadius + 1
	w2 := win * win
	op.nearEntries = make([]nearEntry, op.N*w2)
	row := func(i int) { op.nearRow(g, nc1, nc2, nearRadius, i, op.nearEntries[i*w2:(i+1)*w2]) }
	if !g.uniform() {
		parallelFor(op.N, opt.Workers, func() func(int) { return row })
		return
	}
	row(0)
	for i := 1; i < op.N; i++ {
		iy, ix := i/m, i%m
		for k, e := range op.nearEntries[:w2] {
			e.i, e.j = i, (e.j/m+iy)%m*m+(e.j%m+ix)%m
			op.nearEntries[i*w2+k] = e
		}
	}
}

// nearRow writes observation row i's window of near corrections, cell
// offsets within radius r, into out.
func (op *FFTOperator) nearRow(g *cellGeom, nc1, nc2 nearEvaluator, r, i int, out []nearEntry) {
	m := op.m
	win := 2*r + 1
	iy, ix := i/m, i%m
	for dyC := -r; dyC <= r; dyC++ {
		for dxC := -r; dxC <= r; dxC++ {
			j := ((iy-dyC)%m+m)%m*m + ((ix-dxC)%m+m)%m
			var s1, s2, d1, d2 complex128
			if j != i {
				s1, s2, d1, d2 = g.nearQuadrature(nc1, nc2, j, dxC, dyC, g.f[i]-g.f[j])
			}
			t1s, t1d := op.modelEntry(0, i, j)
			t2s, t2d := op.modelEntry(1, i, j)
			out[(dyC+r)*win+(dxC+r)] = nearEntry{
				i: i, j: j,
				s1: s1 - t1s, s2: s2 - t2s,
				d1: d1 - t1d, d2: d2 - t2d,
			}
		}
	}
}

// MatVec applies the full 2N×2N system (9) to x = [Ψ; U], writing y.
func (op *FFTOperator) MatVec(y, x []complex128) {
	n := op.N
	m := op.m
	psi := x[:n]
	u := x[n : 2*n]

	// S·v  = Σ_l f^l ⊙ IFFT[ Σ_q binom(l+q,l)·Ĝ_{l+q} ⊙ FFT[(−f)^q ⊙ v] ]
	// D·v uses the (gx, gy) families against source-normal-weighted v and
	// the gz family against plain v. The forward transforms of the
	// q-weighted input fields depend only on the input vector, so they
	// are computed once and shared by both media.
	srcS := make([][]complex128, op.Order+1) // FFT[(−f)^q ⊙ u]
	srcD := make([][3][]complex128, op.Order+1)
	pv := make([]complex128, n)
	px := make([]complex128, n)
	py := make([]complex128, n)
	for q := 0; q <= op.Order; q++ {
		sign := 1.0
		if q%2 == 1 {
			sign = -1
		}
		for i := range pv {
			pv[i] = complex(sign*op.fpow[q][i], 0) * u[i]
		}
		srcS[q] = fft.Forward2D(pv, m, m)
		for i := range pv {
			base := complex(sign*op.fpow[q][i], 0) * psi[i]
			pv[i] = base
			px[i] = base * complex(op.jnx[i], 0)
			py[i] = base * complex(op.jny[i], 0)
		}
		srcD[q] = [3][]complex128{fft.Forward2D(pv, m, m), fft.Forward2D(px, m, m), fft.Forward2D(py, m, m)}
	}

	// Each medium's rows only ever need cS·S·u + cD·D·ψ — β·S₁u − D₁ψ
	// and D₂ψ − S₂u — and the inverse transform is linear, so per order l
	// the S and D spectral products accumulate into one array that is
	// inverse-transformed once.
	apply := func(med int, cS, cD complex128) []complex128 {
		sp := op.spec[med]
		out := make([]complex128, n)
		acc := make([]complex128, n)
		for l := 0; l <= op.Order; l++ {
			clear(acc)
			// Order l+q reads the even families (G, Gx, Gy) when it is
			// even and Gz when it is odd; the others are zero.
			for q := 0; l+q <= op.Order; q++ {
				b := complex(specfun.Binomial(l+q, l), 0)
				bS, bD := b*cS, b*cD
				if (l+q)%2 == 0 {
					g, gx, gy := sp.g[l+q], sp.gx[l+q], sp.gy[l+q]
					s, wx, wy := srcS[q], srcD[q][1], srcD[q][2]
					for idx := range acc {
						acc[idx] += bS*g[idx]*s[idx] - bD*(gx[idx]*wx[idx]+gy[idx]*wy[idx])
					}
				} else {
					gz, plain := sp.gz[l+q], srcD[q][0]
					for idx := range acc {
						acc[idx] -= bD * (gz[idx] * plain[idx])
					}
				}
			}
			conv := fft.Inverse2D(acc, m, m)
			for i := range out {
				out[i] += conv[i] * complex(op.fpow[l][i], 0)
			}
		}
		return out
	}
	top := apply(0, op.beta, -1) // β·S₁u − D₁ψ
	bottom := apply(1, -1, 1)    // D₂ψ − S₂u

	for i := 0; i < n; i++ {
		cv := complex(op.curv[i], 0)
		y[i] = 0.5*psi[i] - cv*psi[i] + op.beta*op.diag1*u[i] + top[i]
		y[n+i] = 0.5*psi[i] + cv*psi[i] - op.diag2*u[i] + bottom[i]
	}
	for _, e := range op.nearEntries {
		y[e.i] += -e.d1*psi[e.j] + op.beta*e.s1*u[e.j]
		y[e.i+n] += e.d2*psi[e.j] - e.s2*u[e.j]
	}
}

// Solve runs the chain's Krylov solve (krylov) on the FFT matvec alone,
// without a preconditioner: the operator carries none, a System does
// (see System.Precondition). The context is checked between GMRES
// restarts.
func (op *FFTOperator) Solve(ctx context.Context, rhs []complex128, tol float64) (*Solution, float64, error) {
	x, rr, _, err := krylov(ctx, op.MatVec, nil, rhs, tol)
	if err != nil {
		return nil, rr, err
	}
	return solutionFrom(x, op.h), rr, nil
}

// RHS builds the incident-field right-hand side for the operator's surface.
func (op *FFTOperator) RHS(p Params) []complex128 { return RHSVector(op.surf, p) }
