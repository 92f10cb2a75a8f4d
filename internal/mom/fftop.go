package mom

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/fft"
	"roughsim/internal/greens"
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
// max|f_i − f_j| ≲ NearRadius·h — the slightly-rough / finely-gridded
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

	f            []float64
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

// kernelSource evaluates one medium's periodic Green's function (and
// its Δ-gradient) at the lattice geometries the operator build needs.
// Two implementations exist: exact Ewald/image evaluation, and the
// Chebyshev-in-Δz Green's tables a tabulated solver already owns — the
// latter makes the operator build near-free on the production path.
type kernelSource interface {
	// gridEval evaluates at the wrapped grid offset (ix, iy) ∈ [0, m)²
	// and height difference dz.
	gridEval(ix, iy int, dz float64) (complex128, [3]complex128)
	// nearEval evaluates at cell offset (cx, cy) ∈ [−near, near] with
	// sub-cell indices (sx, sy) and height difference dz.
	nearEval(cx, cy, sx, sy int, dz float64) (complex128, [3]complex128)
	// regularized is the medium's regularized self value (see
	// greens.Periodic3D.EvalRegularized).
	regularized() complex128
}

// exactSource evaluates through the Ewald/image machinery directly.
type exactSource struct {
	g   *greens.Periodic3D
	h   float64
	sub int
}

func (e exactSource) gridEval(ix, iy int, dz float64) (complex128, [3]complex128) {
	return e.g.EvalGrad(float64(ix)*e.h, float64(iy)*e.h, dz)
}

func (e exactSource) nearEval(cx, cy, sx, sy int, dz float64) (complex128, [3]complex128) {
	ox := ((float64(sx)+0.5)/float64(e.sub) - 0.5) * e.h
	oy := ((float64(sy)+0.5)/float64(e.sub) - 0.5) * e.h
	return e.g.EvalGrad(float64(cx)*e.h-ox, float64(cy)*e.h-oy, dz)
}

func (e exactSource) regularized() complex128 { return e.g.EvalRegularized() }

// tabSource evaluates through a solver's Green's tables.
type tabSource struct{ t *tabulated }

func (s tabSource) gridEval(ix, iy int, dz float64) (complex128, [3]complex128) {
	return s.t.evalFar(ix, iy, dz)
}

func (s tabSource) nearEval(cx, cy, sx, sy int, dz float64) (complex128, [3]complex128) {
	return s.t.evalNear(s.t.nearIndex(cx, sx), s.t.nearIndex(cy, sy), dz)
}

func (s tabSource) regularized() complex128 { return s.t.g.EvalRegularized() }

// fftModelEstimate is the a-priori relative model error of the order-P
// polynomial kernel expansion for a surface of height range 2·zmax on a
// grid whose closest uncorrected pair sits at lateral distance rhoMin:
// the expansion error decays like (Δz-range/ρ)^{P+1} and the near
// corrections fix every pair inside rhoMin exactly, so the worst
// surviving pair dominates. The solve chain admits the operator only
// when this estimate is below Options.FFTModelTol.
func fftModelEstimate(zmax, rhoMin float64, order int) float64 {
	if zmax == 0 {
		return 0
	}
	return math.Pow(2*zmax/rhoMin, float64(order+1))
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
	h := s.Step()
	g1 := greens.NewPeriodic3D(p.K1, s.L)
	g2 := greens.NewPeriodic3D(p.K2, s.L)
	return buildFFTOperator(s, p, order, opt,
		exactSource{g: g1, h: h, sub: opt.NearSubdiv},
		exactSource{g: g2, h: h, sub: opt.NearSubdiv})
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
	if s.M != ts.M || s.L != ts.L {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "mom.fftop",
			"surface grid %gx%d does not match table %gx%d", s.L, s.M, ts.L, ts.M)
	}
	if opt.NearSubdiv != ts.Sub || opt.NearRadius != ts.Near {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "mom.fftop",
			"options (near=%d sub=%d) do not match table (near=%d sub=%d)",
			opt.NearRadius, opt.NearSubdiv, ts.Near, ts.Sub)
	}
	zmax := surfaceZMax(s)
	if need := math.Max(2.2*zmax, fitSpan(zmax, s.Step())); need > ts.ZSpan {
		return nil, resilience.Errorf(resilience.KindNumerical, "mom.fftop",
			"operator fit span %g exceeds table span %g", need, ts.ZSpan)
	}
	return buildFFTOperator(s, p, order, opt, tabSource{ts.g1}, tabSource{ts.g2})
}

// checkFFTAdmissible applies the operator's deterministic admissibility
// checks: order validation and the polynomial convergence bound.
func checkFFTAdmissible(s *surface.Surface, order int, opt Options) error {
	if order < 1 {
		return resilience.Errorf(resilience.KindInvalidInput, "mom.fftop",
			"FFT operator order must be ≥ 1 (got %d)", order)
	}
	zmax := surfaceZMax(s)
	rhoMin := float64(opt.NearRadius+1) * s.Step()
	if 2*zmax > 0.8*rhoMin {
		return resilience.Errorf(resilience.KindNumerical, "mom.fftop",
			"height range %.3g exceeds FFT-operator convergence bound %.3g (σ too large for this grid; use dense/tabulated assembly)", 2*zmax, 0.8*rhoMin)
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
func buildFFTOperator(s *surface.Surface, p Params, order int, opt Options, src1, src2 kernelSource) (*FFTOperator, error) {
	m := s.M
	n := m * m
	h := s.Step()
	zmax := surfaceZMax(s)

	op := &FFTOperator{N: n, Order: order, m: m, h: h, l: s.L, beta: p.Beta, f: s.H}
	fx, fy := s.Gradients()
	fxx, fyy, _ := s.SecondDerivs()
	op.jnx = make([]float64, n)
	op.jny = make([]float64, n)
	for i := range fx {
		op.jnx[i] = -fx[i]
		op.jny[i] = -fy[i]
	}
	op.curv = make([]float64, n)
	for i := range op.curv {
		op.curv[i] = (fxx[i] + fyy[i]) * h * math.Log(1+math.Sqrt2) / (4 * math.Pi)
	}
	op.fpow = make([][]float64, order+1)
	for q := 0; q <= order; q++ {
		op.fpow[q] = make([]float64, n)
		for i := range op.fpow[q] {
			op.fpow[q][i] = math.Pow(s.H[i], float64(q))
		}
	}

	zfit := fitSpan(zmax, h)
	for med, src := range []kernelSource{src1, src2} {
		rk := fitKernels(src, m, h, order, zfit, opt.Workers)
		op.realK[med] = rk
		var sp kernelFamilies
		sp.g = make([][]complex128, order+1)
		sp.gx = make([][]complex128, order+1)
		sp.gy = make([][]complex128, order+1)
		sp.gz = make([][]complex128, order+1)
		for q := 0; q <= order; q++ {
			sp.g[q] = fft.Forward2D(rk.g[q], m, m)
			sp.gx[q] = fft.Forward2D(rk.gx[q], m, m)
			sp.gy[q] = fft.Forward2D(rk.gy[q], m, m)
			sp.gz[q] = fft.Forward2D(rk.gz[q], m, m)
		}
		op.spec[med] = sp
	}

	selfSing := complex(h*math.Log(1+math.Sqrt2)/math.Pi, 0)
	op.diag1 = selfSing + complex(h*h, 0)*src1.regularized()
	op.diag2 = selfSing + complex(h*h, 0)*src2.regularized()

	op.buildNearCorrections(s, src1, src2, opt)
	return op, nil
}

// fitKernels samples G and ∇G at Chebyshev z-nodes for every lateral
// grid offset and converts the samples into polynomial coefficients in
// Δz (already scaled by the cell area h²). The (0,0) offset is zeroed;
// near corrections supply it exactly. The per-offset fits are
// independent, so they run across the worker budget with bitwise
// deterministic results.
func fitKernels(src kernelSource, m int, h float64, order int, zfit float64, workers int) kernelFamilies {
	n := m * m
	nodes := make([]float64, order+1)
	for s := range nodes {
		nodes[s] = zfit * math.Cos((float64(s)+0.5)*math.Pi/float64(order+1))
	}
	inv := vandermondeInverse(nodes)

	var kf kernelFamilies
	kf.g = make([][]complex128, order+1)
	kf.gx = make([][]complex128, order+1)
	kf.gy = make([][]complex128, order+1)
	kf.gz = make([][]complex128, order+1)
	for q := range kf.g {
		kf.g[q] = make([]complex128, n)
		kf.gx[q] = make([]complex128, n)
		kf.gy[q] = make([]complex128, n)
		kf.gz[q] = make([]complex128, n)
	}
	area := complex(h*h, 0)
	var wg sync.WaitGroup
	offsets := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampG := make([]complex128, order+1)
			sampX := make([]complex128, order+1)
			sampY := make([]complex128, order+1)
			sampZ := make([]complex128, order+1)
			for idx := range offsets {
				iy, ix := idx/m, idx%m
				for s, z := range nodes {
					v, gr := src.gridEval(ix, iy, z)
					sampG[s] = v * area
					sampX[s] = gr[0] * area
					sampY[s] = gr[1] * area
					sampZ[s] = gr[2] * area
				}
				for q := 0; q <= order; q++ {
					var cg, cx, cy, cz complex128
					for s := 0; s <= order; s++ {
						w := complex(inv[q][s], 0)
						cg += w * sampG[s]
						cx += w * sampX[s]
						cy += w * sampY[s]
						cz += w * sampZ[s]
					}
					kf.g[q][idx] = cg
					kf.gx[q][idx] = cx
					kf.gy[q][idx] = cy
					kf.gz[q][idx] = cz
				}
			}
		}()
	}
	for idx := 1; idx < n; idx++ { // (0,0) stays zero: supplied by near corrections
		offsets <- idx
	}
	close(offsets)
	wg.Wait()
	return kf
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
	dz := op.f[i] - op.f[j]
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
// nearest used lateral point sits at ρ ≳ 0.6h while |Δz| spans ≲ 0.25h
// for any admitted surface, so the Bernstein convergence factor is ≳ 5
// and 17 nodes leave the fit at rounding level (~1e-13 relative).
const nearChebOrder = 16

// nearChebCache holds, per (lateral cell offset, sub-cell) point, a
// Chebyshev fit in Δz of the near kernel's value and Δ-gradient. The
// near-correction loop queries the same few hundred lateral points at
// N·win²·sub² different heights; fitting each point once turns ~10⁶
// exact kernel evaluations (Ewald sums for the dielectric medium) into
// a few thousand plus cheap Clenshaw evaluations.
type nearChebCache struct {
	dim  int     // per-axis index count = (2·near+1)·sub
	span float64 // |Δz| half-range the fit covers (0 for flat surfaces)
	c    [][4][]complex128
}

func (nc *nearChebCache) eval(ax, ay int, dz float64) (complex128, [3]complex128) {
	e := &nc.c[ax*nc.dim+ay]
	var t float64
	if nc.span > 0 {
		t = dz / nc.span
	}
	return clenshaw(e[0], t), [3]complex128{
		clenshaw(e[1], t), clenshaw(e[2], t), clenshaw(e[3], t),
	}
}

// fitNearCheb samples src at Chebyshev Δz-nodes for every near lateral
// point and converts the samples to coefficient vectors. span == 0
// (flat surface) degenerates to a single node at Δz = 0, making the
// cached value bitwise identical to a direct evaluation. The (0,0) cell
// block is skipped: it can sit at ρ = 0 (singular) and the correction
// loop never queries it because the self pair is excluded.
func fitNearCheb(src kernelSource, opt Options, span float64, workers int) *nearChebCache {
	near, sub := opt.NearRadius, opt.NearSubdiv
	dim := (2*near + 1) * sub
	nc := &nearChebCache{dim: dim, span: span, c: make([][4][]complex128, dim*dim)}
	nn := nearChebOrder + 1
	if span == 0 {
		nn = 1
	}
	nodes := make([]float64, nn)
	for k := range nodes {
		nodes[k] = span * math.Cos((float64(k)+0.5)*math.Pi/float64(nn))
	}
	var wg sync.WaitGroup
	pts := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samp := [4][]complex128{}
			for q := range samp {
				samp[q] = make([]complex128, nn)
			}
			for idx := range pts {
				ax, ay := idx/dim, idx%dim
				cx, sx := ax/sub-near, ax%sub
				cy, sy := ay/sub-near, ay%sub
				if cx == 0 && cy == 0 {
					continue
				}
				for k, z := range nodes {
					v, gr := src.nearEval(cx, cy, sx, sy, z)
					samp[0][k] = v
					samp[1][k] = gr[0]
					samp[2][k] = gr[1]
					samp[3][k] = gr[2]
				}
				for q := range samp {
					nc.c[idx][q] = chebCoeffs(samp[q])
				}
			}
		}()
	}
	for idx := 0; idx < dim*dim; idx++ {
		pts <- idx
	}
	close(pts)
	wg.Wait()
	return nc
}

// buildNearCorrections precomputes exact−model deltas for close pairs
// (including the self offset, whose model contribution must be removed
// because the exact diagonal is applied separately). Each observation
// row's window is computed independently into a preallocated slot, so
// the loop parallelizes over the worker budget with a bitwise
// deterministic result.
func (op *FFTOperator) buildNearCorrections(s *surface.Surface, src1, src2 kernelSource, opt Options) {
	m := op.m
	h := op.h
	fx, fy := s.Gradients()
	fxx, fyy, fxy := s.SecondDerivs()
	sub := opt.NearSubdiv
	subArea := complex(h*h/float64(sub*sub), 0)
	win := 2*opt.NearRadius + 1
	op.nearEntries = make([]nearEntry, op.N*win*win)

	// Exact bound on |Δz| seen by the correction loop: the height
	// difference range plus the largest quadratic-surface sub-cell shift.
	var fmin, fmax float64
	for _, v := range s.H {
		fmin = math.Min(fmin, v)
		fmax = math.Max(fmax, v)
	}
	var maxShift float64
	ho := h / 2
	for j := range s.H {
		sh := (math.Abs(fx[j])+math.Abs(fy[j]))*ho +
			0.5*(math.Abs(fxx[j])+math.Abs(fyy[j]))*ho*ho + math.Abs(fxy[j])*ho*ho
		maxShift = math.Max(maxShift, sh)
	}
	span := (fmax - fmin) + maxShift

	nc1 := fitNearCheb(src1, opt, span, opt.Workers)
	nc2 := fitNearCheb(src2, opt, span, opt.Workers)

	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				iy, ix := i/m, i%m
				for dyC := -opt.NearRadius; dyC <= opt.NearRadius; dyC++ {
					for dxC := -opt.NearRadius; dxC <= opt.NearRadius; dxC++ {
						jx := ((ix-dxC)%m + m) % m
						jy := ((iy-dyC)%m + m) % m
						j := jy*m + jx
						var s1, s2, d1, d2 complex128
						if j != i {
							dzc := s.H[i] - s.H[j]
							for sy := 0; sy < sub; sy++ {
								oy := ((float64(sy)+0.5)/float64(sub) - 0.5) * h
								ay := (dyC+opt.NearRadius)*sub + sy
								for sx := 0; sx < sub; sx++ {
									ox := ((float64(sx)+0.5)/float64(sub) - 0.5) * h
									ddz := dzc - (fx[j]*ox + fy[j]*oy +
										0.5*fxx[j]*ox*ox + 0.5*fyy[j]*oy*oy + fxy[j]*ox*oy)
									ax := (dxC+opt.NearRadius)*sub + sx
									v1, gr1 := nc1.eval(ax, ay, ddz)
									v2, gr2 := nc2.eval(ax, ay, ddz)
									s1 += v1 * subArea
									s2 += v2 * subArea
									snx := -(fx[j] + fxx[j]*ox + fxy[j]*oy)
									sny := -(fy[j] + fyy[j]*oy + fxy[j]*ox)
									d1 += -(complex(snx, 0)*gr1[0] + complex(sny, 0)*gr1[1] + gr1[2]) * subArea
									d2 += -(complex(snx, 0)*gr2[0] + complex(sny, 0)*gr2[1] + gr2[2]) * subArea
								}
							}
						}
						t1s, t1d := op.modelEntry(0, i, j)
						t2s, t2d := op.modelEntry(1, i, j)
						op.nearEntries[i*win*win+(dyC+opt.NearRadius)*win+(dxC+opt.NearRadius)] = nearEntry{
							i: i, j: j,
							s1: s1 - t1s, s2: s2 - t2s,
							d1: d1 - t1d, d2: d2 - t2d,
						}
					}
				}
			}
		}()
	}
	for i := 0; i < op.N; i++ {
		rows <- i
	}
	close(rows)
	wg.Wait()
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
	fwdS := func(v []complex128) [][]complex128 {
		srcs := make([][]complex128, op.Order+1)
		for q := 0; q <= op.Order; q++ {
			pv := make([]complex128, n)
			sign := 1.0
			if q%2 == 1 {
				sign = -1
			}
			for i := range pv {
				pv[i] = complex(sign*op.fpow[q][i], 0) * v[i]
			}
			srcs[q] = fft.Forward2D(pv, m, m)
		}
		return srcs
	}
	applyS := func(med int, srcs [][]complex128) []complex128 {
		sp := op.spec[med]
		out := make([]complex128, n)
		for l := 0; l <= op.Order; l++ {
			acc := make([]complex128, n)
			for q := 0; l+q <= op.Order; q++ {
				b := complex(specfun.Binomial(l+q, l), 0)
				kh := sp.g[l+q]
				sq := srcs[q]
				for idx := range acc {
					acc[idx] += b * kh[idx] * sq[idx]
				}
			}
			conv := fft.Inverse2D(acc, m, m)
			for i := range out {
				out[i] += conv[i] * complex(op.fpow[l][i], 0)
			}
		}
		return out
	}
	fwdD := func(v []complex128) (plain, wx, wy [][]complex128) {
		plain = make([][]complex128, op.Order+1)
		wx = make([][]complex128, op.Order+1)
		wy = make([][]complex128, op.Order+1)
		for q := 0; q <= op.Order; q++ {
			pv := make([]complex128, n)
			px := make([]complex128, n)
			py := make([]complex128, n)
			sign := 1.0
			if q%2 == 1 {
				sign = -1
			}
			for i := range pv {
				base := complex(sign*op.fpow[q][i], 0) * v[i]
				pv[i] = base
				px[i] = base * complex(op.jnx[i], 0)
				py[i] = base * complex(op.jny[i], 0)
			}
			plain[q] = fft.Forward2D(pv, m, m)
			wx[q] = fft.Forward2D(px, m, m)
			wy[q] = fft.Forward2D(py, m, m)
		}
		return plain, wx, wy
	}
	applyD := func(med int, plain, wx, wy [][]complex128) []complex128 {
		sp := op.spec[med]
		out := make([]complex128, n)
		for l := 0; l <= op.Order; l++ {
			acc := make([]complex128, n)
			for q := 0; l+q <= op.Order; q++ {
				b := complex(specfun.Binomial(l+q, l), 0)
				gx := sp.gx[l+q]
				gy := sp.gy[l+q]
				gz := sp.gz[l+q]
				for idx := range acc {
					acc[idx] += b * -(gx[idx]*wx[q][idx] + gy[idx]*wy[q][idx] + gz[idx]*plain[q][idx])
				}
			}
			conv := fft.Inverse2D(acc, m, m)
			for i := range out {
				out[i] += conv[i] * complex(op.fpow[l][i], 0)
			}
		}
		return out
	}

	srcs := fwdS(u)
	plain, wx, wy := fwdD(psi)
	s1u := applyS(0, srcs)
	s2u := applyS(1, srcs)
	d1p := applyD(0, plain, wx, wy)
	d2p := applyD(1, plain, wx, wy)

	for i := 0; i < n; i++ {
		cv := complex(op.curv[i], 0)
		y[i] = 0.5*psi[i] - d1p[i] - cv*psi[i] + op.beta*(s1u[i]+op.diag1*u[i])
		y[n+i] = 0.5*psi[i] + d2p[i] + cv*psi[i] - s2u[i] - op.diag2*u[i]
	}
	for _, e := range op.nearEntries {
		y[e.i] += -e.d1*psi[e.j] + op.beta*e.s1*u[e.j]
		y[e.i+n] += e.d2*psi[e.j] - e.s2*u[e.j]
	}
}

// Solve runs GMRES with the FFT matvec, left-preconditioned by the
// block-Jacobi inverse of the per-node 2×2 diagonal
//
//	[ ½ − curv_i ,  β·S₁,ii ]
//	[ ½ + curv_i , −S₂,ii   ]
//
// which captures the dominant local coupling between ψ_i and u_i and
// roughly halves the Krylov iteration count. The context is checked
// between GMRES restarts, so a cancelled job or a daemon drain stops a
// long solve promptly instead of waiting for the next chain stage.
func (op *FFTOperator) Solve(ctx context.Context, rhs []complex128, tol float64) (*Solution, float64, error) {
	x, rr, err := op.solveVec(ctx, rhs, tol)
	if err != nil {
		return nil, rr, err
	}
	sol := &Solution{Psi: x[:op.N], U: x[op.N : 2*op.N]}
	var p float64
	for i := 0; i < op.N; i++ {
		p += real(sol.Psi[i])*real(sol.U[i]) + imag(sol.Psi[i])*imag(sol.U[i])
	}
	sol.Pabs = op.h * op.h / 2 * p
	return sol, rr, nil
}

// solveVec is the raw preconditioned GMRES run behind Solve; the solve
// chain uses it directly so it can verify the candidate against the
// operator's own MatVec before accepting it.
func (op *FFTOperator) solveVec(ctx context.Context, rhs []complex128, tol float64) ([]complex128, float64, error) {
	n2 := 2 * op.N
	pre := op.blockJacobi()
	// Right preconditioning — solve (A·M⁻¹)·y = b, then x = M⁻¹·y — so
	// the GMRES residual IS the true residual of the original system and
	// the chain's verification threshold applies to it directly (left
	// preconditioning would skew the relative residual by the
	// preconditioner's conditioning, which is large when β is small).
	mv := func(y, x []complex128) {
		tmp := make([]complex128, n2)
		pre(tmp, x)
		op.MatVec(y, tmp)
	}
	y, rr, err := cmplxmat.GMRES(n2, mv, rhs, nil,
		cmplxmat.IterOpts{Tol: tol, Restart: 80, MaxIter: 6000, Check: ctx.Err})
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, rr, resilience.New(resilience.KindCanceled, "mom.fftop.solve", ctxErr)
		}
		return nil, rr, fmt.Errorf("mom: FFT-operator GMRES: %w", err)
	}
	x := make([]complex128, n2)
	pre(x, y)
	return x, rr, nil
}

// blockJacobi returns the application of the inverse 2×2 node-diagonal.
func (op *FFTOperator) blockJacobi() func(y, x []complex128) {
	n := op.N
	inv := make([][4]complex128, n)
	for i := 0; i < n; i++ {
		cv := complex(op.curv[i], 0)
		a := 0.5 - cv
		b := op.beta * op.diag1
		c := 0.5 + cv
		d := -op.diag2
		det := a*d - b*c
		inv[i] = [4]complex128{d / det, -b / det, -c / det, a / det}
	}
	return func(y, x []complex128) {
		for i := 0; i < n; i++ {
			p, u := x[i], x[n+i]
			y[i] = inv[i][0]*p + inv[i][1]*u
			y[n+i] = inv[i][2]*p + inv[i][3]*u
		}
	}
}

// RHS builds the incident-field right-hand side for the operator's surface.
func (op *FFTOperator) RHS(p Params) []complex128 {
	rhs := make([]complex128, 2*op.N)
	for i := 0; i < op.N; i++ {
		rhs[i] = cmplx.Exp(complex(0, -1) * p.K1 * complex(op.f[i], 0))
	}
	return rhs
}
