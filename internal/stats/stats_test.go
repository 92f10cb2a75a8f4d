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

func TestQuantileInverse(t *testing.T) {
	// For a large uniform sample, Quantile(q) ≈ q.
	rng := rand.New(rand.NewSource(31))
	s := make([]float64, 50000)
	for i := range s {
		s[i] = rng.Float64()
	}
	e := NewECDF(s)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		if got := e.Quantile(q); math.Abs(got-q) > 0.01 {
			t.Errorf("Quantile(%g) = %g", q, got)
		}
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

func TestHistogram(t *testing.T) {
	h, err := Histogram([]float64{0.1, 0.2, 0.9, -5, 5}, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// −5 clamps to bin 0, 5 clamps to bin 1.
	if h[0] != 3 || h[1] != 2 {
		t.Fatalf("histogram %v, want [3 2]", h)
	}
	if _, err := Histogram(nil, 1, 0, 2); err == nil {
		t.Fatal("expected error for inverted range")
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := make([]float64, 5000)
	var r Running
	for i := range x {
		x[i] = rng.NormFloat64()*3 + 1
		r.Push(x[i])
	}
	if math.Abs(r.Mean()-Mean(x)) > 1e-10 {
		t.Errorf("running mean %g vs batch %g", r.Mean(), Mean(x))
	}
	if math.Abs(r.Variance()-Variance(x)) > 1e-8 {
		t.Errorf("running variance %g vs batch %g", r.Variance(), Variance(x))
	}
	if r.N() != len(x) {
		t.Errorf("running N %d", r.N())
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

func TestBootstrapCI(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sample := make([]float64, 400)
	for i := range sample {
		sample[i] = rng.NormFloat64()*2 + 5
	}
	lo, hi := BootstrapCI(sample, 0.95, 2000, 9)
	m := Mean(sample)
	if !(lo < m && m < hi) {
		t.Fatalf("CI [%g, %g] does not bracket the sample mean %g", lo, hi, m)
	}
	// Width ≈ 2·1.96·sd/√n = 2·1.96·2/20 ≈ 0.39.
	if w := hi - lo; w < 0.2 || w > 0.7 {
		t.Fatalf("CI width %g implausible", w)
	}
	// True mean inside (it is, with overwhelming probability).
	if !(lo < 5.2 && hi > 4.8) {
		t.Fatalf("CI [%g, %g] far from the true mean", lo, hi)
	}
}

func TestBootstrapCIPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty sample")
		}
	}()
	BootstrapCI(nil, 0.95, 100, 1)
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
