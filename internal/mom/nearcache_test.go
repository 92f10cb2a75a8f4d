package mom

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"roughsim/internal/sscm"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// sweepNodeSurface is the first non-flat collocation surface of the
// sweep-m20 bench workload: a first-order d=2 SSCM node of the M=20 KL
// expansion (σ = 15 nm, η = 1 µm) on a 5 µm patch.
func sweepNodeSurface(t *testing.T) *surface.Surface {
	nodes, err := sscm.Nodes(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	kl := surface.NewKL(surface.NewGaussianCorr(0.015*um, 1*um), 5*um, 20)
	for _, xi := range nodes {
		if xi[0] != 0 || xi[1] != 0 {
			return kl.Synthesize(xi)
		}
	}
	t.Fatal("no non-flat collocation node")
	return nil
}

// TestNearCacheTruncation checks the noise-plateau cut of the FFT build's
// near-correction cache on the fingerprint surface and on a sweep-m20
// node surface. Every fitted point's cut series is a prefix of its
// untruncated 17-node fit and evaluates within 4e-15 of that point's
// largest coefficient of it at 64 points across [−1, 1] (the other
// points are exact images of these, see TestSymmetricFitsMatchFullBuild):
// each dropped coefficient is at most nearChebTol of the largest, but up
// to nine of them add up coherently at t = ±1 (2.4e-15 on the sweep-m20
// node). The operator's MatVec moves by at most 1e-15 of max |y| against
// one whose near corrections integrate untruncated fits, and a flat
// surface keeps one node per point.
func TestNearCacheTruncation(t *testing.T) {
	fp, fpSpan := fingerprintSurface(20)
	cases := []struct {
		name  string
		s     *surface.Surface
		zspan float64
		fGHz  float64
	}{
		{"fingerprint M=20", fp, fpSpan, 3},
		{"fingerprint M=20", fp, fpSpan, 9},
		{"sweep-m20 node", sweepNodeSurface(t), 14 * 0.015 * um, 5},
	}
	opt := Options{}.withDefaults()
	ts := make([]float64, 64)
	for i := range ts {
		ts[i] = -1 + 2*float64(i)/float64(len(ts)-1)
	}
	for _, tc := range cases {
		p := paramsAt(tc.fGHz * units.GHz)
		tabs := NewTableSet(p, tc.s.L, tc.s.M, tc.zspan, opt)
		g := newCellGeom(tc.s, opt.NearSubdiv)
		span := nearSpan(g)
		nodes := chebNodes(nearChebOrder+1, span)
		for mi, src := range []*tabulated{tabs.g1, tabs.g2} {
			name := fmt.Sprintf("%s f=%g GHz medium %d", tc.name, tc.fGHz, mi+1)
			nc := fitNearCheb(src, tc.s.M, opt, span)
			mirror := nearMirror(nc.near, nc.sub, tc.s.M)
			var kept, points int
			var worst float64
			for idx, c := range nc.c {
				ax, ay := idx%nc.dim, idx/nc.dim
				if c[0] == nil {
					continue
				}
				kept += len(c[0]) + len(c[3]) // the cut's full length
				points++
				if rx, ry, _, _, _ := orbitRep(ax, ay, mirror); rx != ax || ry != ay {
					continue
				}
				full := chebFit(nodes, func(z float64) (complex128, [3]complex128) {
					return src.nearEval(ax/nc.sub-nc.near, ay/nc.sub-nc.near, ax%nc.sub, ay%nc.sub, z)
				})
				var big float64
				for q := range full {
					if !sameBits(c[q], full[q][:len(c[q])], 1) {
						t.Fatalf("%s: point (%d,%d) series %d is not a prefix of its full fit", name, ax, ay, q)
					}
					for _, v := range full[q] {
						big = math.Max(big, cmplx.Abs(v))
					}
				}
				for _, x := range ts {
					v, gr := chebEval(&c, x)
					wv, wgr := chebEval(&full, x)
					for _, d := range [4]complex128{v - wv, gr[0] - wgr[0], gr[1] - wgr[1], gr[2] - wgr[2]} {
						worst = math.Max(worst, cmplx.Abs(d)/big)
					}
				}
			}
			if !(worst <= 4e-15) {
				t.Errorf("%s: cut series off the full fit by %.3g of the largest coefficient", name, worst)
			}
			t.Logf("%s: Δz span %.3g nm, mean kept length %.2f of %d, cut series within %.2g of the largest coefficient",
				name, span/1e-9, float64(kept)/float64(points), nearChebOrder+1, worst)
		}

		op, err := NewFFTOperatorTabulated(tc.s, p, tabs, 6, opt)
		if err != nil {
			t.Fatal(err)
		}
		full := *op
		full.buildNearCorrections(g, fullNearCheb(tabs.g1, opt, span), fullNearCheb(tabs.g2, opt, span), opt)
		x := make([]complex128, 2*op.N)
		for i := range x {
			x[i] = complex(math.Sin(float64(3*i+1)), math.Cos(float64(2*i+1)))
		}
		y := make([]complex128, len(x))
		yFull := make([]complex128, len(x))
		op.MatVec(y, x)
		full.MatVec(yFull, x)
		var diff, scale float64
		for i := range y {
			diff = math.Max(diff, cmplx.Abs(y[i]-yFull[i]))
			scale = math.Max(scale, cmplx.Abs(yFull[i]))
		}
		if !(diff <= 1e-15*scale) {
			t.Errorf("%s f=%g GHz: MatVec with cut near caches off the untruncated one by %.3g of max |y|", tc.name, tc.fGHz, diff/scale)
		}
		t.Logf("%s f=%g GHz: MatVec within %.2g of max |y| of the untruncated near caches", tc.name, tc.fGHz, diff/scale)
	}

	flat := surface.NewFlat(5*um, 20)
	tabs := NewTableSet(paramsAt(5*units.GHz), flat.L, flat.M, 0.1*um, opt)
	nc := fitNearCheb(tabs.g2, flat.M, opt, nearSpan(newCellGeom(flat, opt.NearSubdiv)))
	for idx, c := range nc.c {
		if c[0] != nil && len(c[0]) != 1 {
			t.Fatalf("flat surface: near point %d keeps %d nodes", idx, len(c[0]))
		}
	}
}
