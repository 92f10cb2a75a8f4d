package mom

import (
	"math"
	"math/cmplx"
	"testing"

	"roughsim/internal/greens"
	"roughsim/internal/resilience"
	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

func TestTabulatedMatchesExactAssembly(t *testing.T) {
	c := surface.NewGaussianCorr(1*um, 1*um)
	L := 5 * um
	m := 10
	kl := surface.NewKL(c, L, m)
	surf := kl.Sample(rng.New(21))
	worst, dPabs := tabulatedVsExact(t, surf, paramsAt(5*units.GHz), 8*um)
	if worst > 1e-7 {
		t.Fatalf("tabulated matrix deviates: worst rel %g", worst)
	}
	if dPabs > 1e-6 {
		t.Fatalf("tabulated Pabs deviates from exact: rel %g", dPabs)
	}
}

// TestTabulatedMatchesExactAtPaperSigma holds the tables to the exact
// kernel at the paper's roughness, σ = η = 1 µm, with the 14σ Δz span the
// solver gives the tables, on the fidelity gate's L = 4η patch. A long
// span is where a remainder that is not smooth on the span's scale shows:
// with the central Ewald shell as the sharp part the tables missed by
// 6.0e-7 of max |entry| (Pabs by 1.9e-5); with the free-space shell
// they miss by 2.2e-8 (Pabs by 8e-8).
func TestTabulatedMatchesExactAtPaperSigma(t *testing.T) {
	const sigma = 1 * um
	L := 4 * um
	m := 8
	surf := surface.NewKL(surface.NewGaussianCorr(sigma, 1*um), L, m).Sample(rng.New(21))
	for _, fGHz := range []float64{1, 9} {
		worst, dPabs := tabulatedVsExact(t, surf, paramsAt(fGHz*units.GHz), 14*sigma)
		t.Logf("f=%g GHz: worst entry %.3g of max |entry|, Pabs rel %.3g", fGHz, worst, dPabs)
		if worst > 5e-8 {
			t.Errorf("f=%g GHz: tabulated matrix deviates %g of max |entry| from exact", fGHz, worst)
		}
		if dPabs > 1e-6 {
			t.Errorf("f=%g GHz: tabulated Pabs deviates from exact: rel %g", fGHz, dPabs)
		}
	}
}

// tabulatedVsExact assembles surf exactly and from tables spanning zspan
// and returns the worst entry difference relative to max |entry| and the
// relative difference of the solved absorbed powers.
func tabulatedVsExact(t *testing.T, surf *surface.Surface, p Params, zspan float64) (worst, dPabs float64) {
	t.Helper()
	opt := Options{}
	exact := Assemble(surf, p, opt)
	tab, err := AssembleTabulated(surf, p, NewTableSet(p, surf.L, surf.M, zspan, opt), opt)
	if err != nil {
		t.Fatal(err)
	}
	scale := exact.Matrix.MaxAbs()
	for i := range exact.Matrix.Data {
		worst = math.Max(worst, cmplx.Abs(exact.Matrix.Data[i]-tab.Matrix.Data[i])/scale)
	}
	se, err := exact.Solve()
	if err != nil {
		t.Fatal(err)
	}
	st, err := tab.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return worst, math.Abs(se.Pabs-st.Pabs) / se.Pabs
}

func TestTableInterpolationErrorAcrossSkinDepthRange(t *testing.T) {
	// The tables must reproduce the direct Ewald/image-series kernels to
	// interpolation precision over the paper's whole 1–9 GHz sweep, where
	// the conductor's skin depth δ shrinks from ~2 μm to ~0.7 μm and the
	// medium-2 kernel becomes progressively sharper. Sample both media's
	// far and near tables at off-node heights and compare value and
	// gradient against the exact evaluators the tables were built from.
	L := 5 * um
	m := 8
	zspan := 2 * um
	opt := Options{}.withDefaults()
	// Off-node Δz samples: Chebyshev nodes cluster at the span edges, so
	// include mid-interval points where interpolation error peaks.
	dzs := []float64{-0.93 * zspan, -0.41 * zspan, -0.077 * zspan, 0.013 * zspan, 0.55 * zspan, 0.89 * zspan}

	for _, fGHz := range []float64{1, 5, 9} {
		f := fGHz * units.GHz
		p := paramsAt(f)
		delta := units.SkinDepthCopper(f)
		if delta < 0.5*um || delta > 2.5*um {
			t.Fatalf("f=%g GHz: skin depth %g m outside the expected 1–9 GHz range", fGHz, delta)
		}
		ts := NewTableSet(p, L, m, zspan, opt)

		for mi, tb := range []*tabulated{ts.g1, ts.g2} {
			exact := []*greens.Periodic3D{ts.exact1, ts.exact2}[mi]
			var worst float64
			check := func(label string, dx, dy float64, got complex128, gotGr [3]complex128, dz float64) {
				want, wantGr := exact.EvalGrad(dx, dy, dz)
				// Gradients are ~1/ρ² larger than values near the
				// origin; normalize each component by its own magnitude
				// (with the value's scale as a floor) so the bound is a
				// true relative error everywhere.
				floor := cmplx.Abs(want)
				if d := cmplx.Abs(got-want) / (floor + 1e-300); d > worst {
					worst = d
				}
				for q := 0; q < 3; q++ {
					ref := cmplx.Abs(wantGr[q])
					if ref < floor {
						ref = floor
					}
					if d := cmplx.Abs(gotGr[q]-wantGr[q]) / (ref + 1e-300); d > worst {
						worst = d
					}
				}
				if worst > 1e-6 {
					t.Fatalf("f=%g GHz medium %d %s (dx=%g dy=%g dz=%g): rel err %g",
						fGHz, mi+1, label, dx, dy, dz, worst)
				}
			}

			// Far table: a spread of wrapped grid offsets (never (0,0) —
			// assembly keeps the self cell exact).
			for _, off := range [][2]int{{1, 0}, {0, 3}, {2, 2}, {4, 1}, {3, 6}, {7, 7}} {
				ix, iy := off[0], off[1]
				for _, dz := range dzs {
					v, gr := tb.gridEval(ix, iy, dz)
					check("far", float64(ix)*tb.h, float64(iy)*tb.h, v, gr, dz)
				}
			}
			// Near table: every cell offset at two sub-offsets, including
			// the smallest lateral separations where the kernel peaks.
			for c := -tb.near; c <= tb.near; c++ {
				for _, s := range []int{0, tb.sub - 1} {
					ai := tb.nearIndex(c, s)
					for _, dz := range dzs {
						v, gr := tb.evalNear(ai, ai, dz)
						check("near", tb.nearOffset(ai), tb.nearOffset(ai), v, gr, dz)
					}
				}
			}
			t.Logf("f=%g GHz (δ=%.3g μm) medium %d: worst rel interp err %.3g", fGHz, delta/um, mi+1, worst)
		}
	}
}

func TestTabulatedRejectsMismatch(t *testing.T) {
	p := paramsAt(5 * units.GHz)
	ts := NewTableSet(p, 5*um, 8, 2*um, Options{})
	// Wrong grid.
	_, err := AssembleTabulated(surface.NewFlat(5*um, 10), p, ts, Options{})
	if err == nil {
		t.Fatal("expected grid mismatch error")
	}
	if k := resilience.Classify(err); k != resilience.KindInvalidInput {
		t.Fatalf("grid mismatch classified %v, want invalid-input", k)
	}
	// Height out of span.
	s := surface.NewFlat(5*um, 8)
	s.H[0] = 3 * um
	_, err = AssembleTabulated(s, p, ts, Options{})
	if err == nil {
		t.Fatal("expected span error")
	}
	if k := resilience.Classify(err); k != resilience.KindNumerical {
		t.Fatalf("span error classified %v, want numerical", k)
	}
	// Option mismatch.
	_, err = AssembleTabulated(surface.NewFlat(5*um, 8), p, ts, Options{NearSubdiv: 2})
	if err == nil {
		t.Fatal("expected option mismatch error")
	}
	if k := resilience.Classify(err); k != resilience.KindInvalidInput {
		t.Fatalf("option mismatch classified %v, want invalid-input", k)
	}
}

func TestChebyshevInterpolationMachinery(t *testing.T) {
	// Interpolate four known smooth complex functions with the kernel's
	// Δz parity, even for series 0–2 and odd for series 3 (Gz), keeping
	// the coefficients of that parity, and check the accuracy of each.
	span := 3.0
	nodes := chebNodes(maxTableNodes, span)
	f := func(s int, z float64) complex128 {
		// Smooth on [−span, span]: nearest poles at z = ±5.
		v := cmplx.Exp(complex(0, (0.4+0.3*float64(s))*z*z/span)) / complex(25-z*z, 0)
		if s == 3 {
			v *= complex(z, 0)
		}
		return v
	}
	var coef [4][]complex128
	for s := range coef {
		smp := make([]complex128, maxTableNodes)
		for k, z := range nodes {
			smp[k] = f(s, z)
		}
		coef[s] = chebCoeffs(smp, s/3)
	}
	for _, z := range []float64{-2.9, -1.1, 0, 0.37, 2.5} {
		v, gr := chebEval(&coef, z/span)
		for s, got := range []complex128{v, gr[0], gr[1], gr[2]} {
			if want := f(s, z); cmplx.Abs(got-want) > 1e-9*(1+cmplx.Abs(want)) {
				t.Fatalf("chebyshev interp of series %d at %g: %v vs %v", s, z, got, want)
			}
		}
	}
}

func TestNearOffsetIndexRoundTrip(t *testing.T) {
	tb := &tabulated{sub: 4, near: 2, h: 0.5}
	tb.nearDim = (2*tb.near + 1) * tb.sub
	for c := -2; c <= 2; c++ {
		for s := 0; s < 4; s++ {
			idx := tb.nearIndex(c, s)
			if idx < 0 || idx >= tb.nearDim {
				t.Fatalf("index out of range: c=%d s=%d idx=%d", c, s, idx)
			}
			// The offset of this index must equal c·h − sub-shift.
			o := ((float64(s)+0.5)/4 - 0.5) * tb.h
			want := float64(c)*tb.h - o
			if got := tb.nearOffset(idx); math.Abs(got-want) > 1e-15 {
				t.Fatalf("offset mismatch c=%d s=%d: %g vs %g", c, s, got, want)
			}
		}
	}
}

func TestWrapOffset(t *testing.T) {
	cases := []struct{ d, m, want int }{
		{0, 8, 0}, {1, 8, 1}, {4, 8, 4}, {5, 8, -3}, {7, 8, -1}, {-1, 8, -1}, {-7, 8, 1}, {9, 8, 1},
	}
	for _, c := range cases {
		if got := wrapOffset(c.d, c.m); got != c.want {
			t.Errorf("wrapOffset(%d, %d) = %d, want %d", c.d, c.m, got, c.want)
		}
	}
}

func TestTableNodesFollowSpan(t *testing.T) {
	L := 5 * um
	for _, tc := range []struct {
		zspan float64
		want  int
	}{{0.21 * um, 10}, {0.28 * um, 12}, {2 * um, 22}} {
		if got := tableNodes(L, tc.zspan); got != tc.want {
			t.Errorf("span %g µm: %d nodes, want %d", tc.zspan/um, got, tc.want)
		}
	}
	prev := 0
	for zspan := 0.01 * um; zspan <= 40*um; zspan *= 1.1 {
		n := tableNodes(L, zspan)
		if n < prev || n > maxTableNodes || n%2 != 0 {
			t.Fatalf("span %g µm: %d nodes after %d (want even, monotone, ≤ %d)", zspan/um, n, prev, maxTableNodes)
		}
		prev = n
	}
	// campaign-g8's cells and the paper's roughness keep the full fit.
	for sigma := 0.30 * um; sigma <= 0.40*um; sigma += 0.01 * um {
		if n := tableNodes(L, 14*sigma); n != maxTableNodes {
			t.Errorf("σ = %g µm: %d nodes, want %d", sigma/um, n, maxTableNodes)
		}
	}
}

func TestSpanSizedTablesMatchFullFits(t *testing.T) {
	// At sweep-m20's physics (M=20, σ = 15 nm, η = 1 µm, 14σ span on
	// L = 5 µm) the span-sized tables' dense system and FFT MatVec match a
	// build whose tables take the full 32 nodes, within the fingerprint
	// bound of 1e-13 of max |entry|.
	const sigma = 0.015 * um
	surf := surface.NewKL(surface.NewGaussianCorr(sigma, 1*um), 5*um, 20).SampleTruncated(rng.New(5), 10)
	opt := Options{}.withDefaults()
	if n := tableNodes(surf.L, 14*sigma); n != 10 {
		t.Fatalf("%d table nodes at sweep-m20's span, want 10", n)
	}
	relDiff := func(got, want []complex128) float64 {
		var d, scale float64
		for k := range want {
			d = math.Max(d, cmplx.Abs(got[k]-want[k]))
			scale = math.Max(scale, cmplx.Abs(want[k]))
		}
		return d / scale
	}
	for _, fGHz := range []float64{3, 9} {
		p := paramsAt(fGHz * units.GHz)
		ts := NewTableSet(p, surf.L, surf.M, 14*sigma, opt)
		full := *ts
		nodes := chebNodes(maxTableNodes, ts.ZSpan)
		for _, tb := range []**tabulated{&full.g1, &full.g2} {
			c := **tb
			c.fit(nodes, opt.Workers)
			*tb = &c
		}
		sys, err := AssembleTabulated(surf, p, ts, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := AssembleTabulated(surf, p, &full, opt)
		if err != nil {
			t.Fatal(err)
		}
		d := relDiff(sys.Matrix.Data, ref.Matrix.Data)
		if d > 1e-13 {
			t.Errorf("f=%g GHz: dense entries differ by %.3g of max |entry|", fGHz, d)
		}
		x := make([]complex128, 2*surf.M*surf.M)
		for i := range x {
			x[i] = complex(math.Sin(float64(3*i+1)), math.Cos(float64(2*i+1)))
		}
		var ys [2][]complex128
		for k, set := range []*TableSet{ts, &full} {
			op, err := NewFFTOperatorTabulated(surf, p, set, 6, opt)
			if err != nil {
				t.Fatal(err)
			}
			ys[k] = make([]complex128, len(x))
			op.MatVec(ys[k], x)
		}
		dm := relDiff(ys[0], ys[1])
		if dm > 1e-13 {
			t.Errorf("f=%g GHz: MatVec entries differ by %.3g of max |entry|", fGHz, dm)
		}
		t.Logf("f=%g GHz: dense within %.3g, MatVec within %.3g of max |entry| of the 32-node build", fGHz, d, dm)
	}
}
