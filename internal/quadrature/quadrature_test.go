package quadrature

import (
	"encoding/binary"
	"math"
	"testing"

	"roughsim/internal/specfun"
)

func TestGaussLegendreNodes(t *testing.T) {
	// 2-point rule: ±1/√3, weights 1.
	r := GaussLegendre(2)
	if math.Abs(r.X[0]+1/math.Sqrt(3)) > 1e-12 || math.Abs(r.X[1]-1/math.Sqrt(3)) > 1e-12 {
		t.Fatalf("GL2 nodes %v", r.X)
	}
	if math.Abs(r.W[0]-1) > 1e-12 || math.Abs(r.W[1]-1) > 1e-12 {
		t.Fatalf("GL2 weights %v", r.W)
	}
}

func TestGaussLegendreExactness(t *testing.T) {
	// n-point rule is exact for polynomials up to degree 2n−1.
	for _, n := range []int{1, 2, 3, 5, 10, 20} {
		r := GaussLegendre(n)
		for deg := 0; deg <= 2*n-1; deg++ {
			got := r.Integrate(func(x float64) float64 { return math.Pow(x, float64(deg)) })
			want := 0.0
			if deg%2 == 0 {
				want = 2 / float64(deg+1)
			}
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("n=%d deg=%d: %g want %g", n, deg, got, want)
			}
		}
	}
}

// TestGaussLegendreCachedRuleIsBitwise: GaussLegendreOn, which reads the
// shared per-n rule, maps bit for bit like a rule freshly eigensolved on
// every call, concurrent callers included, and a caller that writes into
// a GaussLegendre result does not reach the shared rule.
func TestGaussLegendreCachedRuleIsBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 31} {
		a, b := make([]float64, n), make([]float64, n)
		for k := 1; k < n; k++ {
			fk := float64(k)
			b[k] = fk * fk / (4*fk*fk - 1)
		}
		fresh := golubWelsch(a, b, 2)
		lo, hi := 0.3, 2.9
		half, mid := (hi-lo)/2, (hi+lo)/2
		spoiled := GaussLegendre(n)
		for i := range spoiled.X {
			spoiled.X[i], spoiled.W[i] = math.NaN(), math.NaN()
		}
		done := make(chan Rule1D)
		for g := 0; g < 4; g++ {
			go func() { done <- GaussLegendreOn(n, lo, hi) }()
		}
		for g := 0; g < 4; g++ {
			r := <-done
			for i := range fresh.X {
				if x, w := mid+half*fresh.X[i], half*fresh.W[i]; r.X[i] != x || r.W[i] != w {
					t.Fatalf("n=%d node %d: (%v, %v), fresh rule maps to (%v, %v)", n, i, r.X[i], r.W[i], x, w)
				}
			}
		}
	}
}

func TestGaussLegendreOnInterval(t *testing.T) {
	// ∫₀^π sin = 2.
	r := GaussLegendreOn(12, 0, math.Pi)
	if got := r.Integrate(math.Sin); math.Abs(got-2) > 1e-12 {
		t.Fatalf("∫ sin = %g", got)
	}
}

func TestGaussHermiteProbMoments(t *testing.T) {
	// Standard normal moments: 1, 1, 3, 15 for x⁰, x², x⁴, x⁶.
	r := GaussHermiteProb(10)
	wants := map[int]float64{0: 1, 1: 0, 2: 1, 3: 0, 4: 3, 5: 0, 6: 15}
	for deg, want := range wants {
		got := r.Integrate(func(x float64) float64 { return math.Pow(x, float64(deg)) })
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("E[x^%d] = %g, want %g", deg, got, want)
		}
	}
}

func TestGaussHermiteProbOrthogonality(t *testing.T) {
	// E[Heₙ Heₘ] = n!·δₙₘ must hold exactly for n+m ≤ 2·npts−1.
	r := GaussHermiteProb(8)
	for n := 0; n <= 5; n++ {
		for m := 0; m <= 5; m++ {
			got := r.Integrate(func(x float64) float64 {
				return specfun.HermiteProb(n, x) * specfun.HermiteProb(m, x)
			})
			want := 0.0
			if n == m {
				want = specfun.Factorial(n)
			}
			if math.Abs(got-want) > 1e-8*(1+want) {
				t.Errorf("E[He%d He%d] = %g, want %g", n, m, got, want)
			}
		}
	}
}

func TestTensorGridGaussian(t *testing.T) {
	// E[x₁²·x₂⁴] = 1·3 = 3 over iid standard normals.
	g := TensorGrid(2, 5, GaussHermiteProb)
	if g.Len() != 25 {
		t.Fatalf("tensor grid size %d, want 25", g.Len())
	}
	got := g.Integrate(func(x []float64) float64 { return x[0] * x[0] * x[1] * x[1] * x[1] * x[1] })
	if math.Abs(got-3) > 1e-9 {
		t.Fatalf("E[x²y⁴] = %g, want 3", got)
	}
}

func TestSmolyakLevel1Count(t *testing.T) {
	// Level-1 Smolyak over linear-growth Hermite: 2d+1 points. The paper's
	// Table I reports 33 points for the Gaussian-CF case, i.e. d = 16.
	for _, d := range []int{4, 10, 16, 19} {
		g := SmolyakHermite(d, 1)
		if g.Len() != 2*d+1 {
			t.Errorf("d=%d: level-1 count %d, want %d", d, g.Len(), 2*d+1)
		}
	}
}

func TestSmolyakWeightsSumToOne(t *testing.T) {
	// The grid integrates the constant 1 exactly (weights sum to μ0 = 1).
	for _, d := range []int{3, 8, 16} {
		for k := 0; k <= 2; k++ {
			g := SmolyakHermite(d, k)
			got := g.Integrate(func([]float64) float64 { return 1 })
			if math.Abs(got-1) > 1e-10 {
				t.Errorf("d=%d k=%d: Σw = %g", d, k, got)
			}
		}
	}
}

func TestSmolyakPolynomialExactness(t *testing.T) {
	// Level-k Smolyak with Gauss rules integrates total-degree ≤ 2k+1
	// polynomials of standard normals exactly.
	d := 5
	g2 := SmolyakHermite(d, 2)
	// E[x₀²] = 1.
	if got := g2.Integrate(func(x []float64) float64 { return x[0] * x[0] }); math.Abs(got-1) > 1e-9 {
		t.Errorf("E[x²] = %g", got)
	}
	// E[x₀² x₁²] = 1 (total degree 4 ≤ 5).
	if got := g2.Integrate(func(x []float64) float64 { return x[0] * x[0] * x[1] * x[1] }); math.Abs(got-1) > 1e-9 {
		t.Errorf("E[x₀²x₁²] = %g", got)
	}
	// E[x₀⁴] = 3.
	if got := g2.Integrate(func(x []float64) float64 { return math.Pow(x[0], 4) }); math.Abs(got-3) > 1e-9 {
		t.Errorf("E[x⁴] = %g", got)
	}
	// Odd moments vanish.
	if got := g2.Integrate(func(x []float64) float64 { return x[0] * x[1] * x[2] }); math.Abs(got) > 1e-9 {
		t.Errorf("E[xyz] = %g", got)
	}
}

func TestSmolyakMatchesTensorSmallDim(t *testing.T) {
	// In d=2 a level-2 sparse grid and a full 5×5 tensor grid must agree
	// on a smooth non-polynomial integrand to good accuracy.
	f := func(x []float64) float64 { return math.Exp(0.3*x[0] - 0.2*x[1]) }
	want := math.Exp((0.3*0.3 + 0.2*0.2) / 2) // E[e^{aX+bY}] = e^{(a²+b²)/2}
	tg := TensorGrid(2, 9, GaussHermiteProb)
	sg := SmolyakHermite(2, 3)
	if got := tg.Integrate(f); math.Abs(got-want) > 1e-6 {
		t.Errorf("tensor: %g want %g", got, want)
	}
	if got := sg.Integrate(f); math.Abs(got-want) > 1e-4 {
		t.Errorf("smolyak: %g want %g", got, want)
	}
}

func TestSmolyakCountsGrowth(t *testing.T) {
	// Sparse-grid size must grow polynomially, staying far below the
	// tensor grid: that is the whole point of SSCM vs MC (Table I).
	d := 16
	g1 := SmolyakHermite(d, 1)
	g2 := SmolyakHermite(d, 2)
	if g1.Len() != 33 {
		t.Errorf("level-1 d=16 count = %d, want 33 (paper Table I)", g1.Len())
	}
	if g2.Len() <= g1.Len() || g2.Len() > 1500 {
		t.Errorf("level-2 d=16 count = %d, expected a few hundred", g2.Len())
	}
}

func TestHermiteRulesAreSymmetric(t *testing.T) {
	for n := 1; n <= 12; n++ {
		r := GaussHermiteProb(n)
		for i := range r.X {
			j := n - 1 - i
			if r.X[i] != -r.X[j] || r.W[i] != r.W[j] {
				t.Fatalf("n=%d: node %d (%v, %v) is not the mirror of node %d (%v, %v)",
					n, i, r.X[i], r.W[i], j, r.X[j], r.W[j])
			}
		}
		if n%2 == 1 && math.Float64bits(r.X[n/2]) != 0 {
			t.Fatalf("n=%d: centre node %v, want +0", n, r.X[n/2])
		}
	}
}

// TestSmolyakHermiteClosedUnderNegation checks that every sparse-grid
// point's bitwise negation is a point of the grid with the same weight:
// the sweep engine pairs the collocation surfaces of ξ and −ξ.
func TestSmolyakHermiteClosedUnderNegation(t *testing.T) {
	for _, c := range [][2]int{{2, 1}, {2, 2}, {16, 1}, {16, 2}} {
		g := SmolyakHermite(c[0], c[1])
		index := map[string]float64{}
		key := func(x []float64, sign float64) string {
			b := make([]byte, 0, 8*len(x))
			for _, v := range x {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sign*v+0))
			}
			return string(b)
		}
		for _, p := range g.Points {
			index[key(p.X, 1)] = p.W
		}
		for _, p := range g.Points {
			w, ok := index[key(p.X, -1)]
			if !ok {
				t.Fatalf("d=%d k=%d: no point at −%v", c[0], c[1], p.X)
			}
			if w != p.W {
				t.Fatalf("d=%d k=%d: weight %v at %v but %v at its negation", c[0], c[1], p.W, p.X, w)
			}
		}
	}
}
