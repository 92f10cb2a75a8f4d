package surface

import (
	"math"
	"testing"

	"roughsim/internal/quadrature"
	"roughsim/internal/rng"
)

const um = 1e-6

func TestGaussianCorrBasics(t *testing.T) {
	c := NewGaussianCorr(1*um, 2*um)
	if math.Abs(c.At(0)-um*um) > 1e-30 {
		t.Fatalf("C(0) = %g, want σ²", c.At(0))
	}
	// At d = η the CF is σ²/e.
	if got, want := c.At(2*um), um*um/math.E; math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("C(η) = %g, want %g", got, want)
	}
	if c.At(20*um) > 1e-40 {
		t.Fatal("CF must vanish at large lags")
	}
}

func TestPSDNormalization(t *testing.T) {
	// σ² = 2π·∫₀^∞ W(k)·k dk for every CF.
	cases := []struct {
		c   Corr
		tol float64
	}{
		{NewGaussianCorr(1*um, 1*um), 1e-6},
		{NewGaussianCorr(0.5*um, 3*um), 1e-6},
		// The exponential PSD decays only like k⁻³, so the truncated
		// integral misses an O(σ²/(ηK)) tail ≈ 1.1% at K = 60/μm.
		{NewExpCorr(1*um, 1.5*um), 0.02},
	}
	for _, tc := range cases {
		c := tc.c
		upper := 60.0 / (1 * um)
		var sum float64
		n := 400
		for i := 0; i < n; i++ {
			r := quadrature.GaussLegendreOn(8, float64(i)*upper/float64(n), float64(i+1)*upper/float64(n))
			sum += r.Integrate(func(k float64) float64 { return c.PSD(k) * k })
		}
		got := 2 * math.Pi * sum
		want := c.Sigma() * c.Sigma()
		if math.Abs(got-want)/want > tc.tol {
			t.Errorf("%s: ∫PSD = %g, want σ² = %g", c.Name(), got, want)
		}
	}
}

func TestMeasuredCorrPSD(t *testing.T) {
	c := NewMeasuredCorr(1*um, 1.4*um, 0.53*um)
	if math.Abs(c.At(0)-um*um) > 1e-30 {
		t.Fatal("C(0) ≠ σ²")
	}
	// PSD non-negative at sample wavenumbers and integrates to ~σ².
	upper := 30.0 / um
	var sum float64
	n := 150
	for i := 0; i < n; i++ {
		r := quadrature.GaussLegendreOn(6, float64(i)*upper/float64(n), float64(i+1)*upper/float64(n))
		sum += r.Integrate(func(k float64) float64 {
			w := c.PSD(k)
			if w < -1e-22 {
				t.Fatalf("PSD negative at k=%g: %g", k, w)
			}
			if w < 0 {
				w = 0
			}
			return w * k
		})
	}
	got := 2 * math.Pi * sum
	want := um * um
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("CF(12) PSD integral %g, want ≈ %g", got, want)
	}
}

func TestKLTotalVariance(t *testing.T) {
	c := NewGaussianCorr(1*um, 1*um)
	kl := NewKL(c, 5*um, 24)
	got := kl.TotalVariance()
	want := um * um
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("KL total variance %g, want σ² = %g", got, want)
	}
}

func TestKLCapturedVarianceMonotone(t *testing.T) {
	kl := NewKL(NewGaussianCorr(1*um, 1*um), 5*um, 16)
	prev := 0.0
	for d := 1; d <= len(kl.Modes); d += 7 {
		f := kl.CapturedVariance(d)
		if f < prev-1e-12 || f > 1+1e-9 {
			t.Fatalf("captured variance not monotone in [0,1]: d=%d f=%g prev=%g", d, f, prev)
		}
		prev = f
	}
	if math.Abs(kl.CapturedVariance(len(kl.Modes))-1) > 1e-9 {
		t.Fatal("full truncation must capture all variance")
	}
}

func TestKLTruncationForVariance(t *testing.T) {
	kl := NewKL(NewGaussianCorr(1*um, 1*um), 5*um, 20)
	d := kl.TruncationForVariance(0.9)
	if d <= 0 || d > len(kl.Modes) {
		t.Fatalf("truncation %d out of range", d)
	}
	if kl.CapturedVariance(d) < 0.9 || (d > 1 && kl.CapturedVariance(d-1) >= 0.9) {
		t.Fatalf("TruncationForVariance(0.9) = %d is not minimal", d)
	}
}

func TestKLSingleModeRMS(t *testing.T) {
	// A unit coordinate on mode j yields a surface with RMS = √(λ_j)/M.
	kl := NewKL(NewGaussianCorr(1*um, 1*um), 5*um, 16)
	for j := 0; j < 5; j++ {
		xi := make([]float64, j+1)
		xi[j] = 1
		s := kl.Synthesize(xi)
		want := math.Sqrt(kl.Modes[j].Lambda) / 16
		if got := s.RMS(); math.Abs(got-want)/want > 1e-9 {
			t.Errorf("mode %d RMS %g, want %g", j, got, want)
		}
	}
}

func TestKLModeOrthogonality(t *testing.T) {
	kl := NewKL(NewGaussianCorr(1*um, 2*um), 8*um, 12)
	// Build grid samples of a handful of modes and verify orthonormality.
	nm := 8
	vecs := make([][]float64, nm)
	for j := 0; j < nm; j++ {
		xi := make([]float64, j+1)
		xi[j] = 1
		s := kl.Synthesize(xi)
		v := make([]float64, len(s.H))
		scale := math.Sqrt(kl.Modes[j].Lambda)
		for i, h := range s.H {
			v[i] = h / scale
		}
		vecs[j] = v
	}
	for a := 0; a < nm; a++ {
		for b := a; b < nm; b++ {
			var dot float64
			for i := range vecs[a] {
				dot += vecs[a][i] * vecs[b][i]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Errorf("⟨v%d,v%d⟩ = %g, want %g", a, b, dot, want)
			}
		}
	}
}

func TestSampleStatistics(t *testing.T) {
	// Full-rank samples must reproduce σ² and the CF shape.
	c := NewGaussianCorr(1*um, 1*um)
	L := 5 * um
	M := 16
	kl := NewKL(c, L, M)
	src := rng.New(1234)
	const nSamp = 300
	var varSum float64
	corrSum := make([]float64, M/2+1)
	for s := 0; s < nSamp; s++ {
		surf := kl.Sample(src)
		for i, v := range surf.CorrEstimate() {
			corrSum[i] += v
		}
		r := surf.RMS()
		varSum += r * r
	}
	meanVar := varSum / nSamp
	if math.Abs(meanVar-um*um)/(um*um) > 0.1 {
		t.Errorf("sample variance %g, want ≈ %g", meanVar, um*um)
	}
	h := L / float64(M)
	for lag := 0; lag <= M/4; lag++ {
		got := corrSum[lag] / nSamp
		want := c.At(float64(lag) * h)
		if math.Abs(got-want) > 0.12*um*um {
			t.Errorf("lag %d: empirical C %g, target %g", lag, got, want)
		}
	}
}

func TestKLMatchesDenseCovariance(t *testing.T) {
	// The circulant eigenvalues must agree with a brute-force check:
	// C·v = λ·v for the dense periodic covariance matrix and the
	// synthesized mode vector.
	c := NewGaussianCorr(1*um, 1.3*um)
	L := 6 * um
	M := 8
	kl := NewKL(c, L, M)
	n := M * M
	h := L / float64(M)
	cov := make([]float64, n*n)
	for p := 0; p < n; p++ {
		py, px := p/M, p%M
		for q := 0; q < n; q++ {
			qy, qx := q/M, q%M
			dx := minImage(((px-qx)%M+M)%M, M) * h
			dy := minImage(((py-qy)%M+M)%M, M) * h
			cov[p*n+q] = c.At(math.Hypot(dx, dy))
		}
	}
	for j := 0; j < 6; j++ {
		xi := make([]float64, j+1)
		xi[j] = 1
		s := kl.Synthesize(xi)
		scale := math.Sqrt(kl.Modes[j].Lambda)
		var resid, nrm float64
		for p := 0; p < n; p++ {
			var cv float64
			for q := 0; q < n; q++ {
				cv += cov[p*n+q] * s.H[q] / scale
			}
			d := cv - kl.Modes[j].Lambda*s.H[p]/scale
			resid += d * d
			nrm += cv * cv
		}
		if math.Sqrt(resid) > 1e-8*math.Sqrt(nrm) {
			t.Errorf("mode %d: |Cv−λv|/|Cv| = %g", j, math.Sqrt(resid/nrm))
		}
	}
}

// TestConstantSurfaceDerivativesAreZero: a flat or rigidly shifted
// surface has exactly zero derivatives in every cell, on grids whose
// transform leaves rounding noise in the non-DC bins (M = 5, 20) as on
// powers of two.
func TestConstantSurfaceDerivativesAreZero(t *testing.T) {
	for _, m := range []int{5, 8, 20} {
		for _, c := range []float64{0, -0.03 * um, 0.03 * um} {
			s := NewFlat(5*um, m)
			for i := range s.H {
				s.H[i] = c
			}
			fx, fy := s.Gradients()
			fxx, fyy, fxy := s.SecondDerivs()
			for k, d := range [][]float64{fx, fy, fxx, fyy, fxy} {
				for i, v := range d {
					if math.Float64bits(v) != 0 {
						t.Fatalf("M=%d f≡%g: derivative %d at cell %d is %g, want +0", m, c, k, i, v)
					}
				}
			}
		}
	}
}

func TestGradientsSpectralAccuracy(t *testing.T) {
	// For a single Fourier mode surface the gradient is analytic.
	L := 5 * um
	M := 32
	s := NewFlat(L, M)
	kx := 2 * math.Pi * 2 / L
	ky := 2 * math.Pi * 1 / L
	amp := 0.3 * um
	for iy := 0; iy < M; iy++ {
		for ix := 0; ix < M; ix++ {
			x := float64(ix) * s.Step()
			y := float64(iy) * s.Step()
			s.H[iy*M+ix] = amp * math.Cos(kx*x+ky*y)
		}
	}
	fx, fy := s.Gradients()
	for iy := 0; iy < M; iy++ {
		for ix := 0; ix < M; ix++ {
			x := float64(ix) * s.Step()
			y := float64(iy) * s.Step()
			wx := -amp * kx * math.Sin(kx*x+ky*y)
			wy := -amp * ky * math.Sin(kx*x+ky*y)
			if math.Abs(fx[iy*M+ix]-wx) > 1e-9*amp*kx || math.Abs(fy[iy*M+ix]-wy) > 1e-9*amp*kx {
				t.Fatalf("gradient mismatch at (%d,%d)", ix, iy)
			}
		}
	}
}

func TestHalfSpheroid(t *testing.T) {
	L := 40 * um
	M := 64
	h := 5.8 * um
	a := 4.7 * um
	s := HalfSpheroid(L, M, h, a)
	// Peak at center.
	cx := M / 2
	if got := s.H[cx*M+cx]; math.Abs(got-h)/h > 1e-12 {
		t.Fatalf("peak height %g, want %g", got, h)
	}
	// Zero outside the base.
	if s.H[0] != 0 {
		t.Fatal("corner height should be 0")
	}
	// Height never negative nor above h.
	for _, v := range s.H {
		if v < 0 || v > h {
			t.Fatalf("height %g out of range", v)
		}
	}
}

func TestHalfSpheroidTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for spheroid not fitting the patch")
		}
	}()
	HalfSpheroid(10*um, 16, 1*um, 6*um)
}

func TestKL1DVarianceAndSampling(t *testing.T) {
	c := NewGaussianCorr(1*um, 1*um)
	kl := NewKL1D(c, 5*um, 64)
	if got := kl.TotalVariance(); math.Abs(got-um*um)/(um*um) > 0.01 {
		t.Fatalf("1D KL total variance %g", got)
	}
	src := rng.New(99)
	var varSum float64
	const nSamp = 400
	for i := 0; i < nSamp; i++ {
		p := kl.Sample(src)
		r := p.RMS()
		varSum += r * r
	}
	if got := varSum / nSamp; math.Abs(got-um*um)/(um*um) > 0.1 {
		t.Fatalf("1D sample variance %g", got)
	}
}

func TestProfileGradient(t *testing.T) {
	L := 5 * um
	M := 64
	p := NewFlatProfile(L, M)
	k := 2 * math.Pi * 3 / L
	for i := 0; i < M; i++ {
		p.H[i] = um * math.Sin(k*float64(i)*p.Step())
	}
	g := p.Gradient()
	for i := 0; i < M; i++ {
		want := um * k * math.Cos(k*float64(i)*p.Step())
		if math.Abs(g[i]-want) > 1e-9*um*k {
			t.Fatalf("profile gradient at %d: %g want %g", i, g[i], want)
		}
	}
}

func TestSurfaceAtWraps(t *testing.T) {
	s := NewFlat(1*um, 4)
	s.H[0] = 1
	if s.At(4, 0) != 1 || s.At(-4, 4) != 1 || s.At(0, -4) != 1 {
		t.Fatal("periodic indexing broken")
	}
}
