package sscm

import (
	"math"
	"testing"

	"roughsim/internal/resilience"
	"roughsim/internal/rng"
	"roughsim/internal/stats"
)

// fit evaluates the analytic model f at every collocation node of the
// (d, order) grid and projects the values: the whole SSCM with the
// solver replaced by a closed form.
func fit(t *testing.T, d, order int, f func(xi []float64) float64) *Result {
	t.Helper()
	nodes, err := Nodes(d, order)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(nodes))
	for i, xi := range nodes {
		vals[i] = f(xi)
	}
	res, err := FromValues(d, order, vals)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMultiIndicesCount(t *testing.T) {
	// |{α : |α| ≤ p}| = C(d+p, p).
	cases := []struct{ d, p, want int }{
		{1, 2, 3},
		{2, 2, 6},
		{3, 1, 4},
		{16, 1, 17},
		{16, 2, 153},
	}
	for _, c := range cases {
		got := len(multiIndices(c.d, c.p))
		if got != c.want {
			t.Errorf("d=%d p=%d: %d indices, want %d", c.d, c.p, got, c.want)
		}
	}
	// First index must be the constant term.
	mi := multiIndices(4, 2)
	for _, v := range mi[0] {
		if v != 0 {
			t.Fatal("index 0 is not the constant term")
		}
	}
}

func TestPCEExactQuadratic(t *testing.T) {
	// K(ξ) = 3 + 2ξ₀ − ξ₁ + 0.5ξ₀ξ₁ + ξ₂² is total degree 2: a 2nd-order
	// PCE must reproduce it exactly (sparse grid level 2 integrates
	// degree ≤ 5 exactly, covering K·He_α up to degree 4).
	d := 3
	f := func(xi []float64) float64 {
		return 3 + 2*xi[0] - xi[1] + 0.5*xi[0]*xi[1] + xi[2]*xi[2]
	}
	res := fit(t, d, 2, f)
	// E[K] = 3 + E[ξ₂²] = 4.
	if math.Abs(res.PCE.Mean()-4) > 1e-9 {
		t.Fatalf("mean %g, want 4", res.PCE.Mean())
	}
	// Var = 4 + 1 + 0.25·1 + Var(ξ²=He₂+1 ⇒ c=1, 1!·... = 2) = 7.25.
	if math.Abs(res.PCE.Variance()-7.25) > 1e-9 {
		t.Fatalf("variance %g, want 7.25", res.PCE.Variance())
	}
	// Pointwise agreement.
	src := rng.New(4)
	for i := 0; i < 50; i++ {
		xi := src.NormVec(d)
		want := f(xi)
		if got := res.PCE.Eval(xi); math.Abs(got-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("surrogate mismatch at %v: %g vs %g", xi, got, want)
		}
	}
}

func TestFirstOrderCapturesLinearPart(t *testing.T) {
	// 1st-order SSCM of a linear function is exact.
	d := 5
	f := func(xi []float64) float64 {
		s := 1.0
		for i, v := range xi {
			s += float64(i+1) * 0.1 * v
		}
		return s
	}
	res := fit(t, d, 1, f)
	if res.Points != 2*d+1 {
		t.Fatalf("1st-order points = %d, want %d", res.Points, 2*d+1)
	}
	if math.Abs(res.PCE.Mean()-1) > 1e-10 {
		t.Fatalf("mean %g, want 1", res.PCE.Mean())
	}
	var wantVar float64
	for i := 1; i <= d; i++ {
		wantVar += float64(i) * float64(i) * 0.01
	}
	if math.Abs(res.PCE.Variance()-wantVar) > 1e-10 {
		t.Fatalf("variance %g, want %g", res.PCE.Variance(), wantVar)
	}
}

func TestSurrogateCDFMatchesDirectSampling(t *testing.T) {
	// For a smooth nonlinear function, the 2nd-order surrogate CDF must
	// be close (KS distance) to the true sampled CDF — the Fig. 7
	// comparison in miniature.
	d := 4
	f := func(xi []float64) float64 {
		s := 1.5
		for i, v := range xi {
			s += 0.1*v + 0.02*float64(i+1)*v*v
		}
		s += 0.03 * xi[0] * xi[1]
		return s
	}
	res := fit(t, d, 2, f)
	const n = 20000
	sur := res.PCE.Sample(n, 99)
	src := rng.New(99)
	direct := make([]float64, n)
	for i := range direct {
		direct[i] = f(src.NormVec(d))
	}
	ks := stats.KSDistance(stats.NewECDF(sur), stats.NewECDF(direct))
	if ks > 0.02 {
		t.Fatalf("surrogate KS distance %g too large", ks)
	}
}

func TestGridSizeMatchesPaperTable1(t *testing.T) {
	// 1st-order: 2d+1 ⇒ 33 (d=16, Gaussian CF), 39 (d=19, CF 12).
	if got := GridSize(16, 1); got != 33 {
		t.Errorf("GridSize(16,1) = %d, want 33", got)
	}
	if got := GridSize(19, 1); got != 39 {
		t.Errorf("GridSize(19,1) = %d, want 39", got)
	}
	// 2nd-order grids stay well under the 5000-sample MC budget
	// (the paper reports 345/462 with its rule; ours are a few hundred).
	if got := GridSize(16, 2); got < 100 || got > 1000 {
		t.Errorf("GridSize(16,2) = %d, want a few hundred", got)
	}
}

// TestRejectsBadArgs: invalid grids and value vectors of the wrong
// length are typed input errors, never silently truncated.
func TestRejectsBadArgs(t *testing.T) {
	if _, err := Nodes(0, 1); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("Nodes d=0: %v", err)
	}
	if _, err := Nodes(2, -1); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("Nodes order=-1: %v", err)
	}
	if _, err := FromValues(0, 1, []float64{1}); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("FromValues d=0: %v", err)
	}
	vals := make([]float64, GridSize(3, 2))
	if _, err := FromValues(3, 2, vals[:len(vals)-1]); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("FromValues short vector: %v", err)
	}
}

func TestOrderZeroIsMeanOnly(t *testing.T) {
	res := fit(t, 3, 0, func([]float64) float64 { return 7 })
	if res.Points != 1 || math.Abs(res.PCE.Mean()-7) > 1e-12 || res.PCE.Variance() != 0 {
		t.Fatalf("order-0 run wrong: %+v", res)
	}
}

// TestResultExportsCoefficientStatistics pins the exported surrogate
// fields: Result.Coeffs is the fitted coefficient vector, and the
// mean/variance recomputed from it (E = c₀, Var = Σ_{α≠0} c_α²·α!)
// match both the exported Result.Mean/Variance and the PCE's own
// statistics to 1e-12 — so a caller persisting only the coefficients
// (the broadband surrogate registry) loses nothing.
func TestResultExportsCoefficientStatistics(t *testing.T) {
	// Linear K with d=2, order 1: level-1 Gauss–Hermite integrates the
	// degree ≤ 2 projection integrands exactly, so the coefficients are
	// analytic up to round-off: c = [2, −0.5, 3], E[K] = 2, Var = 9.25.
	res := fit(t, 2, 1, func(xi []float64) float64 { return 2 + 3*xi[0] - 0.5*xi[1] })
	if len(res.Coeffs) != len(res.PCE.Indices) {
		t.Fatalf("Coeffs has %d terms for %d indices", len(res.Coeffs), len(res.PCE.Indices))
	}
	mean := res.Coeffs[0]
	var variance float64
	for ti := 1; ti < len(res.Coeffs); ti++ {
		fact := 1.0
		for _, ai := range res.PCE.Indices[ti] {
			for k := 2; k <= ai; k++ {
				fact *= float64(k)
			}
		}
		variance += res.Coeffs[ti] * res.Coeffs[ti] * fact
	}
	for _, chk := range []struct {
		name      string
		got, want float64
	}{
		{"mean vs analytic", mean, 2},
		{"variance vs analytic", variance, 9.25},
		{"mean vs PCE.Mean", mean, res.PCE.Mean()},
		{"variance vs PCE.Variance", variance, res.PCE.Variance()},
		{"Result.Mean", res.Mean, mean},
		{"Result.Variance", res.Variance, variance},
	} {
		if math.Abs(chk.got-chk.want) > 1e-12 {
			t.Errorf("%s: %.17g, want %.17g", chk.name, chk.got, chk.want)
		}
	}
}
