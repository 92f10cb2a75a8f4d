package specfun

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func cAbsDiff(a, b complex128) float64 { return cmplx.Abs(a - b) }

func TestFaddeevaAtZero(t *testing.T) {
	// w(0) = 1 exactly.
	if d := cAbsDiff(Faddeeva(0), 1); d > 1e-12 {
		t.Fatalf("w(0) = %v, |err| = %g", Faddeeva(0), d)
	}
}

func TestFaddeevaKnownValues(t *testing.T) {
	// Reference values computed with mpmath (50 digits).
	cases := []struct {
		z    complex128
		want complex128
	}{
		{complex(1, 0), complex(0.36787944117144233, 0.60715770584139372)},
		{complex(0, 1), complex(0.42758357615580700, 0)},
		{complex(1, 1), complex(0.30474420525691259, 0.20821893820283162)},
		// The following two values are cross-validated by
		// TestFaddeevaAgainstDefiningIntegral.
		{complex(2, 3), complex(0.13075746966984855, 0.08111265047745664)},
		{complex(-1, 1), complex(0.30474420525691259, -0.20821893820283162)},
		{complex(5, 0.5), complex(0.011900325522593992, 0.1139727186318868)},
	}
	for _, c := range cases {
		got := Faddeeva(c.z)
		if d := cAbsDiff(got, c.want) / cmplx.Abs(c.want); d > 1e-10 {
			t.Errorf("w(%v) = %v, want %v (rel err %g)", c.z, got, c.want, d)
		}
	}
}

func TestFaddeevaSymmetry(t *testing.T) {
	// w(−conj(z)) = conj(w(z)) for all z.
	f := func(re, im float64) bool {
		re = math.Mod(re, 10)
		im = math.Abs(math.Mod(im, 10))
		z := complex(re, im)
		lhs := Faddeeva(-cmplx.Conj(z))
		rhs := cmplx.Conj(Faddeeva(z))
		return cAbsDiff(lhs, rhs) <= 1e-10*(1+cmplx.Abs(rhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaddeevaLowerHalfPlane(t *testing.T) {
	// Reflection identity: w(z) + w(−z) = 2·exp(−z²).
	for _, z := range []complex128{complex(0.3, -0.7), complex(2, -1), complex(-1.5, -0.2)} {
		lhs := Faddeeva(z) + Faddeeva(-z)
		rhs := 2 * cmplx.Exp(-z*z)
		if d := cAbsDiff(lhs, rhs) / cmplx.Abs(rhs); d > 1e-10 {
			t.Errorf("reflection identity at %v: rel err %g", z, d)
		}
	}
}

func TestErfcRealAxisMatchesStdlib(t *testing.T) {
	for x := -3.0; x <= 6.0; x += 0.25 {
		got := Erfc(complex(x, 0))
		want := math.Erfc(x)
		if math.Abs(real(got)-want) > 1e-11*(1+math.Abs(want)) || math.Abs(imag(got)) > 1e-11 {
			t.Errorf("Erfc(%g) = %v, want %g", x, got, want)
		}
	}
}

func TestErfcxMatchesDefinition(t *testing.T) {
	// erfcx(x) = exp(x²)·erfc(x) = w(ix) for real x.
	for x := -5.0; x <= 10.0; x += 0.5 {
		got := real(Faddeeva(complex(0, x)))
		want := math.Exp(x*x) * math.Erfc(x)
		if x > 5 {
			// Direct product underflows in accuracy; use asymptotic sanity:
			// erfcx(x) ≈ 1/(x√π).
			approx := 1 / (x * math.SqrtPi)
			if math.Abs(got-approx)/approx > 0.02 {
				t.Errorf("Erfcx(%g) = %g, asymptotic %g", x, got, approx)
			}
			continue
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("Erfcx(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestExpMulErfcConsistency(t *testing.T) {
	// For moderate arguments ExpMulErfc(c, z) must equal exp(c)·Erfc(z).
	cases := []struct{ c, z complex128 }{
		{complex(0.5, 1), complex(0.3, 0.4)},
		{complex(-1, 2), complex(1.5, -0.7)},
		{complex(2, -3), complex(-0.8, 1.2)},
	}
	for _, tc := range cases {
		got := ExpMulErfc(tc.c, tc.z)
		want := cmplx.Exp(tc.c) * Erfc(tc.z)
		if d := cAbsDiff(got, want) / (1 + cmplx.Abs(want)); d > 1e-10 {
			t.Errorf("ExpMulErfc(%v, %v): rel err %g", tc.c, tc.z, d)
		}
	}
}

func TestExpMulErfcLargeArgs(t *testing.T) {
	// exp(c)·erfc(z) with exp(c) overflowing alone but the product finite:
	// c = z² means the product equals erfcx(z) scaled.
	z := complex(30, 2)
	got := ExpMulErfc(z*z, z)
	// exp(z²)·erfc(z) = w(iz); compare against Faddeeva directly.
	want := Faddeeva(complex(-imag(z), real(z)))
	if d := cAbsDiff(got, want) / cmplx.Abs(want); d > 1e-9 {
		t.Fatalf("ExpMulErfc large-arg: got %v want %v rel err %g", got, want, d)
	}
	if cmplx.IsInf(got) || cmplx.IsNaN(got) {
		t.Fatalf("ExpMulErfc overflowed: %v", got)
	}
}

func TestE1KnownValues(t *testing.T) {
	// Abramowitz & Stegun table values.
	cases := []struct{ x, want float64 }{
		{0.1, 1.8229239584193906},
		{0.5, 0.5597735947761607},
		{1.0, 0.21938393439552029},
		{2.0, 0.048900510708061120},
		{5.0, 0.0011482955912753257},
		{10.0, 4.156968929685324e-06},
	}
	for _, c := range cases {
		got := E1(c.x)
		if math.Abs(got-c.want)/c.want > 1e-12 {
			t.Errorf("E1(%g) = %.16g, want %.16g", c.x, got, c.want)
		}
	}
}

func TestEnRecurrenceIdentity(t *testing.T) {
	// n·Eₙ₊₁(x) = e^(−x) − x·Eₙ(x) must hold at the accuracy level of
	// the implementation for mixed series/CF regimes.
	for _, x := range []float64{0.2, 0.9, 1.4, 2.5, 7.0} {
		for n := 1; n <= 8; n++ {
			lhs := float64(n) * En(n+1, x)
			rhs := math.Exp(-x) - x*En(n, x)
			if math.Abs(lhs-rhs) > 1e-12*(math.Abs(lhs)+math.Abs(rhs)+1e-30) {
				t.Errorf("recurrence fails at n=%d x=%g: %g vs %g", n, x, lhs, rhs)
			}
		}
	}
}

func TestEnAtZero(t *testing.T) {
	if got := En(3, 0); math.Abs(got-0.5) > 1e-15 {
		t.Fatalf("E3(0) = %g, want 0.5", got)
	}
	if got := En(2, 0); math.Abs(got-1) > 1e-15 {
		t.Fatalf("E2(0) = %g, want 1", got)
	}
}

func TestHermiteProbValues(t *testing.T) {
	// He0=1, He1=x, He2=x²−1, He3=x³−3x, He4=x⁴−6x²+3.
	for _, x := range []float64{-2.3, -0.5, 0, 0.7, 1.9} {
		checks := []struct {
			n    int
			want float64
		}{
			{0, 1},
			{1, x},
			{2, x*x - 1},
			{3, x*x*x - 3*x},
			{4, x*x*x*x - 6*x*x + 3},
		}
		for _, c := range checks {
			if got := HermiteProb(c.n, x); math.Abs(got-c.want) > 1e-12*(1+math.Abs(c.want)) {
				t.Errorf("He%d(%g) = %g, want %g", c.n, x, got, c.want)
			}
		}
	}
}

func TestHermiteProbOrthogonality(t *testing.T) {
	// ∫ Heₙ Heₘ φ(x) dx = n!·δₙₘ via fine trapezoid on [−12, 12].
	const nPts = 20001
	const a = 12.0
	h := 2 * a / float64(nPts-1)
	inner := func(n, m int) float64 {
		var s float64
		for i := 0; i < nPts; i++ {
			x := -a + float64(i)*h
			w := math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
			v := HermiteProb(n, x) * HermiteProb(m, x) * w
			if i == 0 || i == nPts-1 {
				v /= 2
			}
			s += v
		}
		return s * h
	}
	for n := 0; n <= 5; n++ {
		for m := 0; m <= 5; m++ {
			got := inner(n, m)
			want := 0.0
			if n == m {
				want = Factorial(n)
			}
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Errorf("⟨He%d, He%d⟩ = %g, want %g", n, m, got, want)
			}
		}
	}
}

func TestFactorialAndBinomial(t *testing.T) {
	if Factorial(0) != 1 || Factorial(5) != 120 || Factorial(10) != 3628800 {
		t.Fatal("Factorial basic values wrong")
	}
	if Binomial(5, 2) != 10 || Binomial(10, 0) != 1 || Binomial(4, 5) != 0 {
		t.Fatal("Binomial basic values wrong")
	}
	// Pascal identity.
	for n := 1; n <= 20; n++ {
		for k := 1; k < n; k++ {
			if math.Abs(Binomial(n, k)-(Binomial(n-1, k-1)+Binomial(n-1, k))) > 1e-9 {
				t.Fatalf("Pascal identity fails at n=%d k=%d", n, k)
			}
		}
	}
}
