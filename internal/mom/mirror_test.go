package mom

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// mirrorPair synthesizes the KL surfaces of a seeded ξ and of −ξ
// (σ = sigma, η = eta, on an l-periodic m×m grid), the way the SSCM's
// mirrored collocation nodes are built.
func mirrorPair(t *testing.T, sigma, eta, l float64, m int) (s, ms *surface.Surface) {
	kl := surface.NewKL(surface.NewGaussianCorr(sigma, eta), l, m)
	xi := rng.New(11).NormVec(4)
	neg := make([]float64, len(xi))
	for k, v := range xi {
		neg[k] = -v
	}
	s, ms = kl.Synthesize(xi), kl.Synthesize(neg)
	for i, v := range s.H {
		if ms.H[i] != -v {
			t.Fatalf("synthesized heights are not mirrored at cell %d: %v vs %v", i, ms.H[i], v)
		}
	}
	return s, ms
}

// checkSameBits fails unless got equals want bit for bit.
func checkSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	var differ int
	for k := range got {
		if !sameBits(got[k:k+1], want[k:k+1], 1) {
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%s: %d of %d values differ from the direct build", what, differ, len(got))
	}
}

// TestMirrorIsExact checks that System.Mirror turns the system of a
// surface into the one of its mirror image bit for bit — matrix, FFT
// operator and right-hand side equal a direct build of −f — for exact
// and tabulated dense assembly at the campaign-g8 cell's roughness and
// at the paper's, and for the tabulated FFT operator at the sweep-m20
// workload's physics.
func TestMirrorIsExact(t *testing.T) {
	p := paramsAt(5 * units.GHz)
	opt := Options{}.withDefaults()
	dense := []struct {
		name          string
		sigma, eta, l float64
		m             int
		exact         bool
	}{
		{"exact M=8 σ=0.33µm", 0.33 * um, 1 * um, 5 * um, 8, true},
		{"tabulated M=8 σ=0.33µm", 0.33 * um, 1 * um, 5 * um, 8, false},
		{"tabulated M=12 σ=η=1µm", 1 * um, 1 * um, 4 * um, 12, false},
	}
	for _, tc := range dense {
		s, ms := mirrorPair(t, tc.sigma, tc.eta, tc.l, tc.m)
		build := func(surf *surface.Surface) *System {
			if tc.exact {
				return Assemble(surf, p, opt)
			}
			ts := NewTableSet(p, tc.l, tc.m, 14*tc.sigma, opt)
			sys, err := AssembleTabulated(surf, p, ts, opt)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		sys, want := build(s), build(ms)
		sys.Mirror(ms, p, nil)
		checkSameBits(t, tc.name+" matrix", sys.Matrix.Data, want.Matrix.Data)
		checkSameBits(t, tc.name+" RHS", sys.RHS, want.RHS)
	}

	// The sweep-m20 workload: M = 20, σ = 15 nm, η = 1 µm, L = 5 µm,
	// tables spanning 14σ, order-6 operator.
	s, ms := mirrorPair(t, 0.015*um, 1*um, 5*um, 20)
	ts := NewTableSet(p, 5*um, 20, 14*0.015*um, opt)
	assembler := func(surf *surface.Surface) func(context.Context) (*cmplxmat.Matrix, error) {
		return func(context.Context) (*cmplxmat.Matrix, error) {
			sys, err := AssembleTabulated(surf, p, ts, opt)
			if err != nil {
				return nil, err
			}
			return sys.Matrix, nil
		}
	}
	for _, materialized := range []bool{false, true} {
		name := fmt.Sprintf("FFT operator M=20 (dense materialized before the mirror: %v)", materialized)
		sys := NewOperatorSystem(s, p, opt, ts, assembler(s))
		want := NewOperatorSystem(ms, p, opt, ts, assembler(ms))
		if !sys.FFTAdmitted() || !want.FFTAdmitted() {
			t.Fatalf("%s: FFT stage not admitted: %v", name, sys.FFTRejection())
		}
		if materialized {
			if err := sys.Materialize(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		sys.Mirror(ms, p, assembler(ms))
		x := make([]complex128, 2*sys.N)
		re, im := rng.New(3).NormVec(len(x)), rng.New(4).NormVec(len(x))
		for i := range x {
			x[i] = complex(re[i], im[i])
		}
		y := make([]complex128, len(x))
		yWant := make([]complex128, len(x))
		sys.fft.MatVec(y, x)
		want.fft.MatVec(yWant, x)
		checkSameBits(t, name+" MatVec", y, yWant)
		checkSameBits(t, name+" RHS", sys.RHS, want.RHS)
		if err := sys.Materialize(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := want.Materialize(context.Background()); err != nil {
			t.Fatal(err)
		}
		checkSameBits(t, name+" dense matrix", sys.Matrix.Data, want.Matrix.Data)
	}
}

// TestKernelFitParity checks that the kernel fits carry the Δz parity of
// the Green's function exactly: the FFT operator's polynomial families
// hold exact zeros where parity forbids a coefficient, and the Green's
// tables and the near-correction cache evaluate G, Gx and Gy exactly even
// and Gz exactly odd in t.
func TestKernelFitParity(t *testing.T) {
	surf, zspan := fingerprintSurface(8)
	opt := Options{}.withDefaults()
	p := paramsAt(5 * units.GHz)
	ts := NewTableSet(p, surf.L, surf.M, zspan, opt)
	ts2 := []float64{0, 1e-3, 0.05, 0.37, 0.5, 0.9, 1}
	evenOdd := func(what string, c *[4][]complex128) {
		t.Helper()
		for _, x := range ts2 {
			v, gr := chebEval(c, x)
			mv, mgr := chebEval(c, -x)
			if !sameBits([]complex128{mv, mgr[0], mgr[1]}, []complex128{v, gr[0], gr[1]}, 1) ||
				!sameBits([]complex128{mgr[2]}, []complex128{gr[2]}, -1) {
				t.Fatalf("%s: fit at t = ±%g is not exactly even (odd)", what, x)
			}
		}
	}
	for mi, tb := range []*tabulated{ts.g1, ts.g2} {
		for idx := 1; idx < len(tb.far); idx++ {
			evenOdd(fmt.Sprintf("medium %d far table slot %d", mi+1, idx), &tb.far[idx])
		}
		for idx := range tb.nearTab {
			evenOdd(fmt.Sprintf("medium %d near table slot %d", mi+1, idx), &tb.nearTab[idx])
		}
		nc := fitNearCheb(tb, surf.M, opt, nearSpan(newCellGeom(surf, opt.NearSubdiv)))
		for idx := range nc.c {
			if nc.c[idx][0] != nil {
				evenOdd(fmt.Sprintf("medium %d near cache point %d", mi+1, idx), &nc.c[idx])
			}
		}
		kf := fitKernels(tb, surf.M, surf.Step(), 6, fitSpan(surfaceZMax(surf), surf.Step()), opt.Workers)
		for f, fam := range [4][][]complex128{kf.g, kf.gx, kf.gy, kf.gz} {
			for q := 1 - f/3; q < len(fam); q += 2 {
				for idx, v := range fam[q] {
					if v != 0 {
						t.Fatalf("medium %d family %d: order-%d coefficient at offset %d is %v, want 0", mi+1, f, q, idx, v)
					}
				}
			}
		}
	}
	// The coefficients chebFit leaves out are the transform's rounding
	// noise on mirrored samples (about 2e-15 of the largest kept one).
	nodes := chebNodes(tableNodes(ts.L, zspan), zspan)
	smp := sampleMirrored(nodes, ts.g1.farRemainder(1, 2))
	for q := range smp {
		var big, noise float64
		for _, v := range chebCoeffs(smp[q], q/3) {
			big = math.Max(big, cmplx.Abs(v))
		}
		for _, v := range chebCoeffs(smp[q], 1-q/3) {
			noise = math.Max(noise, cmplx.Abs(v))
		}
		if noise > 1e-14*big {
			t.Errorf("series %d: forbidden coefficients reach %.3g of the largest allowed one", q, noise/big)
		}
	}
}
