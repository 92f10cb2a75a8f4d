package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roughsim/internal/resilience"
)

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); math.Abs(m-5) > 1e-15 {
		t.Fatalf("mean %g, want 5", m)
	}
	// Sample variance with n−1: Σ(x−5)² = 32, /7.
	if v := Variance(x); math.Abs(v-32.0/7) > 1e-12 {
		t.Fatalf("variance %g, want %g", v, 32.0/7)
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("F(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		e := NewECDF(s)
		prev := -1.0
		for x := -4.0; x <= 4.0; x += 0.1 {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKSDistanceIdentical(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if d := KSDistance(NewECDF(s), NewECDF(s)); d != 0 {
		t.Fatalf("KS of identical samples = %g, want 0", d)
	}
}

func TestKSDistanceDisjoint(t *testing.T) {
	a := NewECDF([]float64{1, 2, 3})
	b := NewECDF([]float64{10, 11, 12})
	if d := KSDistance(a, b); math.Abs(d-1) > 1e-15 {
		t.Fatalf("KS of disjoint samples = %g, want 1", d)
	}
}

func TestKSDistanceGaussianShift(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 20000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 0.5
	}
	d := KSDistance(NewECDF(a), NewECDF(b))
	// Theoretical KS between N(0,1) and N(0.5,1) is 2Φ(0.25)−1 ≈ 0.1974.
	want := 2*NormalCDF(0.25) - 1
	if math.Abs(d-want) > 0.02 {
		t.Fatalf("KS = %g, want ≈ %g", d, want)
	}
}

func TestNormalCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Φ(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestSamplesForTolerance(t *testing.T) {
	// sd = 0.07, tol = 0.001 ⇒ 4900 samples: the paper's "5000 samples
	// for ~1% convergence" regime.
	n, err := SamplesForTolerance(0.07, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if n < 4800 || n > 5000 {
		t.Fatalf("n = %d, want ≈ 4900", n)
	}
	if _, err := SamplesForTolerance(0.07, 0); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("expected invalid-input error for tol=0, got %v", err)
	}
}
