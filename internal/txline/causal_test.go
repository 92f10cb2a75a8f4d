package txline

import (
	"math"
	"testing"

	"roughsim/internal/core"
	"roughsim/internal/units"
)

func TestCausalRoughnessValidation(t *testing.T) {
	if _, err := NewCausalRoughness([]float64{1, 2}, []float64{1, 1}); err == nil {
		t.Fatal("too few samples accepted")
	}
	if _, err := NewCausalRoughness([]float64{0, 1, 2, 3}, []float64{1, 1, 1, 1}); err == nil {
		t.Fatal("zero frequency accepted")
	}
	if _, err := NewCausalRoughness([]float64{1, 2, 3, 4}, []float64{1, 0.5, 1, 1}); err == nil {
		t.Fatal("K < 1 accepted")
	}
}

func TestCausalRoughnessRejectsNonFinite(t *testing.T) {
	// NaN fails every ordered comparison, so a plain `f <= 0` check lets
	// it through silently — these must all be hard, typed rejections.
	cases := []struct {
		name     string
		freqs, k []float64
	}{
		{"nan-freq", []float64{1e9, math.NaN(), 3e9, 4e9}, []float64{1.1, 1.2, 1.3, 1.4}},
		{"inf-freq", []float64{1e9, 2e9, math.Inf(1), 4e9}, []float64{1.1, 1.2, 1.3, 1.4}},
		{"nan-k", []float64{1e9, 2e9, 3e9, 4e9}, []float64{1.1, math.NaN(), 1.3, 1.4}},
		{"inf-k", []float64{1e9, 2e9, 3e9, 4e9}, []float64{1.1, 1.2, math.Inf(1), 1.4}},
		{"neg-inf-k", []float64{1e9, 2e9, 3e9, 4e9}, []float64{1.1, 1.2, math.Inf(-1), 1.4}},
		{"duplicate-freq", []float64{1e9, 2e9, 2e9, 4e9}, []float64{1.1, 1.2, 1.3, 1.4}},
	}
	for _, tc := range cases {
		if _, err := NewCausalRoughness(tc.freqs, tc.k); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCausalRoughnessSingleAndUnsortedGrid(t *testing.T) {
	// A single-point grid (even replicated to four samples it is a
	// degenerate duplicate grid) must be rejected, not divide by zero in
	// the interpolator.
	if _, err := NewCausalRoughness([]float64{1e9}, []float64{1.2}); err == nil {
		t.Fatal("single-point grid accepted")
	}
	if _, err := NewCausalRoughness(
		[]float64{1e9, 1e9, 1e9, 1e9}, []float64{1.2, 1.2, 1.2, 1.2}); err == nil {
		t.Fatal("replicated single-frequency grid accepted")
	}
	// An unsorted grid is legal input: the constructor sorts, and the
	// result must be identical to the sorted build.
	sortedF := []float64{1e9, 2e9, 3e9, 4e9, 6e9, 9e9}
	sortedK := []float64{1.10, 1.20, 1.28, 1.34, 1.42, 1.48}
	shuffledF := []float64{4e9, 1e9, 9e9, 3e9, 6e9, 2e9}
	shuffledK := []float64{1.34, 1.10, 1.48, 1.28, 1.42, 1.20}
	a, err := NewCausalRoughness(sortedF, sortedK)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCausalRoughness(shuffledF, shuffledK)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0.5e9, 1.5e9, 2.5e9, 5e9, 8e9, 20e9} {
		if a.K(f) != b.K(f) {
			t.Fatalf("K(%g) differs across input order: %g vs %g", f, a.K(f), b.K(f))
		}
		if a.Factor(f) != b.Factor(f) {
			t.Fatalf("Factor(%g) differs across input order", f)
		}
	}
}

func TestKramersKronigDebyeReference(t *testing.T) {
	// Saturating-tail accuracy against an exact analytic pair: the Debye
	// profile K(f) = K∞ − A/(1 + (f/f0)²) saturates to K∞ like every
	// physical roughness model, and its exact Hilbert partner under the
	// transform this package computes, X(f) = (2f/π)·P∫ [K(ν)−K∞]/(ν²−f²) dν,
	// is
	//
	//	X(f) = +A·(f0·f)/(f0² + f²)
	//
	// (from P∫₀^∞ dν/(ν²−f²) = 0 and ∫₀^∞ dν/(ν²+f0²) = π/(2f0)).
	// Sampling far past f0 makes the truncated tail negligible: the
	// quadrature lands within 2.0e-6 of the closed form (relative, worst
	// at 4 GHz), and the gate allows about twice that.
	const (
		kInf = 1.6
		A    = 0.5
		f0   = 2e9
	)
	// Log-spaced samples from far below f0 (where K ≈ K(0)) to ~1000·f0
	// (tail saturated): the constructor's clamp outside the sampled band
	// then matches the true Debye profile to ~1e-3 on both ends.
	const n = 3000
	fmin, fmax := 0.02e9, 2000e9
	freqs := make([]float64, n)
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		f := fmin * math.Pow(fmax/fmin, float64(i)/(n-1))
		freqs[i] = f
		ks[i] = kInf - A/(1+(f/f0)*(f/f0))
	}
	c, err := NewCausalRoughness(freqs, ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, fG := range []float64{2, 4, 8, 16} {
		f := fG * 1e9
		want := A * f0 * f / (f0*f0 + f*f)
		got := imag(c.Factor(f))
		if math.Abs(got-want) > 4e-6*math.Abs(want) {
			t.Errorf("f=%g GHz: Im Kc = %g, want %g (Debye closed form)", fG, got, want)
		}
	}
}

// TestHilbertMatchesPerNodeLookup: hilbert's forward interval walk must
// reproduce, bit for bit, the quadrature that looks up K(ν) per node.
func TestHilbertMatchesPerNodeLookup(t *testing.T) {
	freqs := []float64{0.3e9, 0.5e9, 1e9, 1.7e9, 2e9, 3.1e9, 4e9, 6e9, 9e9}
	ks := []float64{1.02, 1.05, 1.11, 1.19, 1.23, 1.31, 1.36, 1.43, 1.47}
	c, err := NewCausalRoughness(freqs, ks)
	if err != nil {
		t.Fatal(err)
	}
	perNode := func(f float64) float64 {
		nuMax := freqs[len(freqs)-1]
		g := func(nu float64) float64 { return c.K(nu) - c.kInf }
		gf := 0.0
		if f < nuMax {
			gf = g(f)
		}
		const n = 4000
		var sum float64
		h := nuMax / n
		for i := 0; i < n; i++ {
			nu := (float64(i) + 0.5) * h
			den := nu*nu - f*f
			if math.Abs(den) < 1e-12*f*f+1e-300 {
				continue
			}
			sum += (g(nu) - gf) / den * h
		}
		x := 2 * f / math.Pi * sum
		if gf != 0 && math.Abs(nuMax-f) > 1e-12*f {
			x += 2 * f / math.Pi * gf * (1 / (2 * f) * math.Log(math.Abs((nuMax-f)/(nuMax+f))))
		}
		return x
	}
	for _, f := range []float64{0.1e9, 0.3e9, 0.75e9, 2e9, 2.5e9, 5.13e9, 9e9, 12e9} {
		if got, want := c.hilbert(f), perNode(f); got != want {
			t.Errorf("hilbert(%g) = %.17g, per-node lookup %.17g", f, got, want)
		}
	}
	for i, f := range freqs {
		if c.K(f) != ks[i] {
			t.Errorf("K(%g) = %.17g, want the sample %.17g", f, c.K(f), ks[i])
		}
	}
}

func TestCausalInterpolation(t *testing.T) {
	c, err := NewCausalRoughness(
		[]float64{1e9, 2e9, 3e9, 4e9},
		[]float64{1.1, 1.2, 1.3, 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.K(2.5e9); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("K(2.5GHz) = %g", got)
	}
	// Clamping outside the band.
	if c.K(0.1e9) != 1.1 || c.K(10e9) != 1.4 {
		t.Fatal("clamping broken")
	}
}

func TestKramersKronigAgainstAnalyticPair(t *testing.T) {
	// H(jω) = 1 + a·jω/(jω+b) is causal and minimum-phase with
	// Re H = 1 + a·ω²/(ω²+b²) and Im H = a·b·ω/(ω²+b²). Feeding Re H as
	// the "K(f)" samples must reproduce Im H. The numerical transform
	// truncates at the band edge, so compare in the middle of a wide
	// band: the relative error is 2.1e-3 at 2 GHz (the worst case, from
	// the truncation) and falls to 2.3e-4 at 8 GHz; the gate allows
	// about twice the worst case.
	a := 0.5
	b := 2 * math.Pi * 3e9
	n := 400
	freqs := make([]float64, n)
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		f := (float64(i) + 1) * 0.25e9 // 0.25–100 GHz
		w := 2 * math.Pi * f
		freqs[i] = f
		ks[i] = 1 + a*w*w/(w*w+b*b)
	}
	c, err := NewCausalRoughness(freqs, ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, fG := range []float64{2, 3, 5, 8} {
		f := fG * 1e9
		w := 2 * math.Pi * f
		want := a * b * w / (w*w + b*b)
		got := imag(c.Factor(f))
		if math.Abs(got-want)/want > 4e-3 {
			t.Errorf("f=%g GHz: Im Kc = %g, want %g", fG, got, want)
		}
	}
}

func TestCausalFactorSignsAndMagnitude(t *testing.T) {
	// For a monotonically rising K(f) the reactive part is positive
	// (added internal inductance) inside the band.
	// The sample band must extend to where K has genuinely saturated
	// (the transform treats K as constant beyond the band, and
	// truncating the rise mid-way distorts the in-band reactance).
	mat := core.PaperMaterial()
	var freqs, ks []float64
	for fG := 0.5; fG <= 400; fG += 1 {
		freqs = append(freqs, fG*1e9)
		k, err := mat.EmpiricalAt(1e-6, fG*1e9)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	c, err := NewCausalRoughness(freqs, ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, fG := range []float64{2, 5, 10} {
		kc := c.Factor(fG * 1e9)
		// The sign of Im Kc alone is shape-dependent (it is the Hilbert
		// transform of K − K∞); what causal physics demands is that the
		// total internal reactance of Z_int ∝ (1+j)·Kc stays inductive:
		// Re Kc + Im Kc > 0.
		if real(kc)+imag(kc) <= 0 {
			t.Errorf("f=%g GHz: internal reactance (ReKc+ImKc) = %g, want > 0", fG, real(kc)+imag(kc))
		}
		if math.Abs(imag(kc)) > real(kc) {
			t.Errorf("f=%g GHz: |reactive correction| %g exceeds resistive %g", fG, imag(kc), real(kc))
		}
	}
}

func TestRLGCReducesToSmooth(t *testing.T) {
	// K_c = 1 must give the smooth line's closed forms: the skin-effect
	// series resistance r = 2Rs/w of trace plus return plane, and the
	// external inductance plus exactly the smooth internal one,
	// l = Z0/v + r/ω.
	ms := fr4Line()
	f := 5 * units.GHz
	r, l, c, g, err := ms.RLGC(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	z0 := ms.Z0()
	v := units.C0 / math.Sqrt(ms.EffectivePermittivity())
	w := units.AngularFreq(f)
	wantR := 2 * units.SurfaceResistance(f, ms.Rho) / ms.Width
	wantC := 1 / (z0 * v)
	if math.Abs(r-wantR)/wantR > 1e-12 || c != wantC || g != w*wantC*ms.TanDelta {
		t.Fatalf("Kc=1 deviates from the smooth line: r=%g vs %g, c=%g vs %g, g=%g vs %g",
			r, wantR, c, wantC, g, w*wantC*ms.TanDelta)
	}
	wantL := z0/v + wantR/w
	if math.Abs(l-wantL)/wantL > 1e-12 {
		t.Fatalf("internal inductance wrong: %g vs %g", l, wantL)
	}
}

func TestCausalInsertionLossClose(t *testing.T) {
	// The causal reactance X changes the phase structure, but the loss
	// magnitude stays near that of the real factor K_c = K on the same
	// line model.
	ms := fr4Line()
	mat := core.PaperMaterial()
	var freqs, ks []float64
	for fG := 0.5; fG <= 30; fG += 0.5 {
		freqs = append(freqs, fG*1e9)
		k, err := mat.EmpiricalAt(1.5e-6, fG*1e9)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	c, err := NewCausalRoughness(freqs, ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, fG := range []float64{2, 5, 10} {
		f := fG * 1e9
		causal := mustIL(t, ms, 0.2, f, 50, c.Factor(f))
		realK := mustIL(t, ms, 0.2, f, 50, complex(c.K(f), 0))
		if causal <= 0 {
			t.Fatalf("f=%g GHz: non-positive causal IL %g", fG, causal)
		}
		if math.Abs(causal-realK)/realK > 0.15 {
			t.Errorf("f=%g GHz: causal IL %g vs real-K IL %g", fG, causal, realK)
		}
	}
}
