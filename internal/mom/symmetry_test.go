package mom

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// The references below fit every lateral offset at every Δz node — the
// kernel fits without the symmetry reduction of fitOrbits and
// sampleMirrored.

// fullChebFit is chebFit sampling every node.
func fullChebFit(nodes []float64, eval func(z float64) (complex128, [3]complex128)) [4][]complex128 {
	var smp [4][]complex128
	for q := range smp {
		smp[q] = make([]complex128, len(nodes))
	}
	for k, z := range nodes {
		v, gr := eval(z)
		smp[0][k], smp[1][k], smp[2][k], smp[3][k] = v, gr[0], gr[1], gr[2]
	}
	for q := range smp {
		smp[q] = chebCoeffs(smp[q], q/3)
	}
	return smp
}

// fullTabulated is a copy of t whose far and near tables are fitted at
// every offset.
func fullTabulated(t *tabulated, workers int) *tabulated {
	full := *t
	nodes := chebNodes(tableNodes(t.l, t.zspan), t.zspan)
	full.far = make([][4][]complex128, t.m*t.m)
	parallelFor(len(full.far)-1, workers, func() func(int) {
		return func(k int) {
			idx := k + 1 // (0, 0) is never read
			full.far[idx] = fullChebFit(nodes, t.farRemainder(idx%t.m, idx/t.m))
		}
	})
	full.nearTab = make([][4][]complex128, t.nearDim*t.nearDim)
	parallelFor(len(full.nearTab), workers, func() func(int) {
		return func(idx int) {
			full.nearTab[idx] = fullChebFit(nodes, t.nearRemainder(idx%t.nearDim, idx/t.nearDim))
		}
	})
	return &full
}

// fullNearCheb is fitNearCheb fitting every near point at every node.
func fullNearCheb(src nearEvaluator, opt Options, span float64) *nearChebCache {
	near, sub := nearRadius, opt.NearSubdiv
	dim := (2*near + 1) * sub
	nc := &nearChebCache{near: near, sub: sub, dim: dim, span: span, c: make([][4][]complex128, dim*dim)}
	nodes := chebNodes(nearChebOrder+1, span)
	parallelFor(dim*dim, opt.Workers, func() func(int) {
		return func(idx int) {
			ax, ay := idx%dim, idx/dim
			cx, sx := ax/sub-near, ax%sub
			cy, sy := ay/sub-near, ay%sub
			if cx == 0 && cy == 0 {
				return
			}
			nc.c[idx] = fullChebFit(nodes, func(z float64) (complex128, [3]complex128) {
				return src.nearEval(cx, cy, sx, sy, z)
			})
		}
	})
	return nc
}

// fullKernels is fitKernels fitting every grid offset at every node; it
// returns each offset's per-order coefficients (see kernelSlot).
func fullKernels(src kernelSource, m int, h float64, order int, zfit float64, workers int) [][4][]complex128 {
	nodes := chebNodes(order+1, zfit)
	inv := vandermondeInverse(nodes)
	area := complex(h*h, 0)
	fits := make([][4][]complex128, m*m)
	parallelFor(m*m-1, workers, func() func(int) {
		return func(k int) {
			idx := k + 1 // (0, 0) is supplied by the near corrections
			var smp [4][]complex128
			for f := range smp {
				smp[f] = make([]complex128, len(nodes))
			}
			for s, z := range nodes {
				v, gr := src.gridEval(idx%m, idx/m, z)
				smp[0][s], smp[1][s], smp[2][s], smp[3][s] = v*area, gr[0]*area, gr[1]*area, gr[2]*area
			}
			for f := range smp {
				fits[idx][f] = make([]complex128, order+1)
				for q := range fits[idx][f] {
					for s := range nodes {
						fits[idx][f][q] += complex(inv[q][s], 0) * smp[f][s]
					}
				}
			}
		}
	})
	return fits
}

// kernelSlot gathers one offset's per-order coefficients from kf.
func kernelSlot(kf kernelFamilies, idx int) [4][]complex128 {
	var c [4][]complex128
	for f, fam := range [4][][]complex128{kf.g, kf.gx, kf.gy, kf.gz} {
		for _, cq := range fam {
			c[f] = append(c[f], cq[idx])
		}
	}
	return c
}

// deviation tracks the worst |got − want| of kernel values (G, Gx, Gy,
// Gz) against the largest |want| component seen.
type deviation struct{ diff, scale float64 }

func (d *deviation) add(gv complex128, gg [3]complex128, wv complex128, wg [3]complex128) {
	for _, pair := range [4][2]complex128{{gv, wv}, {gg[0], wg[0]}, {gg[1], wg[1]}, {gg[2], wg[2]}} {
		d.diff = math.Max(d.diff, cmplx.Abs(pair[0]-pair[1]))
		d.scale = math.Max(d.scale, cmplx.Abs(pair[1]))
	}
}

func (d *deviation) check(t *testing.T, what string) {
	t.Helper()
	if !(d.diff <= 1e-14*d.scale) { // NaN fails too
		t.Errorf("%s: symmetric fit deviates from the full fit by %.3g of max |component| %.3g", what, d.diff/d.scale, d.scale)
	}
}

// sameBits reports whether a equals sign·b bit for bit.
func sameBits(a, b []complex128, sign float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		w := complex(sign*real(b[k]), sign*imag(b[k]))
		if math.Float64bits(real(a[k])) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(a[k])) != math.Float64bits(imag(w)) {
			return false
		}
	}
	return true
}

// checkOrbitImages asserts the lattice symmetry of a fit bit for bit:
// every slot in a filled slot's orbit holds its G and Gz, and its Gx and
// Gy exchanged by a transpose and negated by an x or y reflection, for
// at least one symmetry that maps the one offset to the other (a
// diagonal offset is reached both ways). A reflection that fixes an
// index is not a symmetry of the truncated kernel there, so it is never
// used.
func checkOrbitImages(t *testing.T, what string, n int, mirror func(int) int, slot func(idx int) [4][]complex128) {
	t.Helper()
	for idx := 0; idx < n*n; idx++ {
		ix, iy := idx%n, idx/n
		c := slot(idx)
		if c[0] == nil {
			continue
		}
		matched := map[int]bool{}
		for g := 0; g < 8; g++ {
			swap, reflX, reflY := g&1 != 0, g&2 != 0, g&4 != 0
			if (reflX && mirror(ix) == ix) || (reflY && mirror(iy) == iy) {
				continue
			}
			// Which of c's vectors, with which sign, become Gx and Gy.
			x, y, qx, qy, sx, sy := ix, iy, 1, 2, 1.0, 1.0
			if reflX {
				x, sx = mirror(x), -1
			}
			if reflY {
				y, sy = mirror(y), -1
			}
			if swap {
				x, y, qx, qy, sx, sy = y, x, qy, qx, sy, sx
			}
			if y*n+x == idx {
				continue
			}
			d := slot(y*n + x)
			matched[y*n+x] = matched[y*n+x] || sameBits(d[0], c[0], 1) && sameBits(d[1], c[qx], sx) &&
				sameBits(d[2], c[qy], sy) && sameBits(d[3], c[3], 1)
		}
		for img, ok := range matched {
			if !ok {
				t.Fatalf("%s: slot (%d,%d) is not an exact image of (%d,%d)", what, img%n, img/n, ix, iy)
			}
		}
	}
}

// TestSymmetricFitsMatchFullBuild checks the symmetry-reduced kernel fits
// — the Green's tables, the FFT build's near-correction cache and its
// polynomial kernel families — against fits of every offset at every
// node, and checks that every slot filled by symmetry is an exact image.
// The small-grid case has a near window that wraps past half a period
// (an offset at exactly L/2 with NearSubdiv 3), which is fitted without
// reflections.
func TestSymmetricFitsMatchFullBuild(t *testing.T) {
	cases := []struct {
		m    int
		fGHz float64
		sub  int
	}{{8, 3, 0}, {8, 9, 0}, {20, 3, 0}, {20, 9, 0}, {4, 9, 3}}
	for _, tc := range cases {
		surf, zspan := fingerprintSurface(tc.m)
		h := surf.Step()
		p := paramsAt(tc.fGHz * units.GHz)
		opt := Options{NearSubdiv: tc.sub}.withDefaults()
		ts := NewTableSet(p, surf.L, tc.m, zspan, opt)
		// Eight Δz points: ± pairs, zero and one unpaired point.
		fracs := []float64{0, 0.05, -0.05, 0.37, -0.37, 0.9, -0.9, 0.71}
		zfit := fitSpan(surfaceZMax(surf), h)
		span := math.Min(0.25*h, zspan)
		for mi, tb := range []*tabulated{ts.g1, ts.g2} {
			name := fmt.Sprintf("M=%d sub=%d f=%g GHz medium %d", tc.m, opt.NearSubdiv, tc.fGHz, mi+1)
			full := fullTabulated(tb, opt.Workers)
			var far, near deviation
			for idx := 1; idx < tc.m*tc.m; idx++ {
				for _, fr := range fracs {
					v, g := tb.gridEval(idx%tc.m, idx/tc.m, fr*zspan)
					wv, wg := full.gridEval(idx%tc.m, idx/tc.m, fr*zspan)
					far.add(v, g, wv, wg)
				}
			}
			for idx := range tb.nearTab {
				if tb.nearOffset(idx%tb.nearDim) == 0 && tb.nearOffset(idx/tb.nearDim) == 0 {
					continue // the singular self point (odd NearSubdiv)
				}
				for _, fr := range fracs {
					v, g := tb.evalNear(idx%tb.nearDim, idx/tb.nearDim, fr*zspan)
					wv, wg := full.evalNear(idx%tb.nearDim, idx/tb.nearDim, fr*zspan)
					near.add(v, g, wv, wg)
				}
			}
			far.check(t, name+" far table")
			near.check(t, name+" near table")
			checkOrbitImages(t, name+" far table", tc.m, gridMirror(tc.m), func(idx int) [4][]complex128 { return tb.far[idx] })
			checkOrbitImages(t, name+" near table", tb.nearDim, nearMirror(tb.near, tb.sub, tc.m), func(idx int) [4][]complex128 { return tb.nearTab[idx] })

			nc := fitNearCheb(tb, tc.m, opt, span)
			ncFull := fullNearCheb(tb, opt, span)
			var cache deviation
			for idx, c := range ncFull.c {
				if c[0] == nil {
					continue
				}
				ax, ay := idx%nc.dim, idx/nc.dim
				cx, sx, cy, sy := ax/nc.sub-nc.near, ax%nc.sub, ay/nc.sub-nc.near, ay%nc.sub
				for _, fr := range fracs {
					v, g := nc.nearEval(cx, cy, sx, sy, fr*span)
					wv, wg := ncFull.nearEval(cx, cy, sx, sy, fr*span)
					cache.add(v, g, wv, wg)
				}
			}
			cache.check(t, name+" near-correction cache")
			checkOrbitImages(t, name+" near-correction cache", nc.dim, nearMirror(nc.near, nc.sub, tc.m), func(idx int) [4][]complex128 { return nc.c[idx] })

			const order = 6
			kf := fitKernels(tb, tc.m, h, order, zfit, opt.Workers)
			kfFull := fullKernels(tb, tc.m, h, order, zfit, opt.Workers)
			var kern deviation
			for idx := 1; idx < tc.m*tc.m; idx++ {
				got, want := kernelSlot(kf, idx), kfFull[idx]
				for _, fr := range fracs {
					var gv, wv [4]complex128
					zp := complex(1, 0)
					for q := 0; q <= order; q++ {
						for f := range gv {
							gv[f] += got[f][q] * zp
							wv[f] += want[f][q] * zp
						}
						zp *= complex(fr*zfit, 0)
					}
					kern.add(gv[0], [3]complex128(gv[1:]), wv[0], [3]complex128(wv[1:]))
				}
			}
			kern.check(t, name+" FFT kernel families")
			checkOrbitImages(t, name+" FFT kernel families", tc.m, gridMirror(tc.m), func(idx int) [4][]complex128 {
				if idx == 0 {
					return [4][]complex128{} // zero, supplied by the near corrections
				}
				return kernelSlot(kf, idx)
			})
			t.Logf("%s: far %.2g, near %.2g, cache %.2g, kernels %.2g of max |component|",
				name, far.diff/far.scale, near.diff/near.scale, cache.diff/cache.scale, kern.diff/kern.scale)
		}
	}
}

// perPairAssemble is assemble reading the kernel once per entry: every
// far pair is read in both orders.
func perPairAssemble(s *surface.Surface, p Params, src1, src2 kernelSource, opt Options) *cmplxmat.Matrix {
	g := newCellGeom(s, opt.NearSubdiv)
	m := s.M
	n := m * m
	a := cmplxmat.New(2*n, 2*n)
	s1Self, s2Self := selfTerm(g.h, src1), selfTerm(g.h, src2)
	curv := CurvatureDiagonal(s)
	for i := 0; i < n; i++ {
		iy, ix := i/m, i%m
		row1, row2 := a.Row(i), a.Row(n+i)
		for j := 0; j < n; j++ {
			cx := wrapOffset(ix-j%m, m)
			cy := wrapOffset(iy-j/m, m)
			dzc := s.H[i] - s.H[j]
			var s1, s2, d1, d2 complex128
			switch {
			case j == i:
				s1, s2 = s1Self, s2Self
				d1 = complex(curv[i], 0)
				d2 = d1
			case absInt(cx) <= nearRadius && absInt(cy) <= nearRadius:
				s1, s2, d1, d2 = g.nearQuadrature(src1, src2, j, cx, cy, dzc)
			default:
				s1, d1, _ = g.farPair(src1, i, j, (cx+m)%m, (cy+m)%m, dzc)
				s2, d2, _ = g.farPair(src2, i, j, (cx+m)%m, (cy+m)%m, dzc)
			}
			row1[j] = -d1
			row1[n+j] = p.Beta * s1
			row2[j] = d2
			row2[n+j] = -s2
		}
		row1[i] += 0.5
		row2[i] += 0.5
	}
	return a
}

// TestFarPairFillMatchesPerPair checks assemble's one kernel read per far
// pair against reading the kernel for every entry, exact and tabulated,
// on an odd grid and on an even one (whose M/2 line is read per entry):
// G(−Δ) = G(Δ) and ∇_Δ G(−Δ) = −∇_Δ G(Δ) hold to rounding, so the
// matrices agree to rounding, and entries a pair's own read fills agree
// bit for bit.
func TestFarPairFillMatchesPerPair(t *testing.T) {
	p := paramsAt(5 * units.GHz)
	opt := Options{}.withDefaults()
	for _, m := range []int{9, 10} {
		surf := surface.NewKL(surface.NewGaussianCorr(1*um, 1*um), 5*um, m).Sample(rng.New(7))
		ts := NewTableSet(p, surf.L, m, 8*um, opt)
		e1, e2 := exactSources(surf, p, opt)
		for name, src := range map[string][2]kernelSource{"exact": {e1, e2}, "tabulated": {ts.g1, ts.g2}} {
			got := assemble(surf, p, src[0], src[1], opt).Matrix
			want := perPairAssemble(surf, p, src[0], src[1], opt)
			n := m * m
			var worst float64
			for r := 0; r < 2*n; r++ {
				for c := 0; c < 2*n; c++ {
					g, w := got.At(r, c), want.At(r, c)
					worst = math.Max(worst, cmplx.Abs(g-w))
					if r%n <= c%n && g != w {
						t.Fatalf("M=%d %s: entry (%d,%d) = %v, per-pair %v", m, name, r, c, g, w)
					}
				}
			}
			worst /= want.MaxAbs()
			t.Logf("M=%d %s: symmetric fill within %.3g of max |entry| of the per-pair fill", m, name, worst)
			if !(worst <= 1e-15) {
				t.Errorf("M=%d %s: symmetric fill deviates %.3g of max |entry| from the per-pair fill", m, name, worst)
			}
		}
	}
}
