package eigen

import (
	"math"
	"math/rand"
	"testing"
)

func TestJacobiDiagonalMatrix(t *testing.T) {
	n := 4
	a := make([]float64, n*n)
	want := []float64{3, -1, 7, 0.5}
	for i := 0; i < n; i++ {
		a[i*n+i] = want[i]
	}
	vals, vecs, err := SymmetricJacobi(a, n)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted descending: 7, 3, 0.5, −1.
	exp := []float64{7, 3, 0.5, -1}
	for i, v := range vals {
		if math.Abs(v-exp[i]) > 1e-12 {
			t.Errorf("val[%d] = %g, want %g", i, v, exp[i])
		}
	}
	// Eigenvectors are unit coordinate vectors.
	for _, vec := range vecs {
		var nrm float64
		for _, x := range vec {
			nrm += x * x
		}
		if math.Abs(nrm-1) > 1e-12 {
			t.Errorf("eigenvector not unit norm: %g", nrm)
		}
	}
}

func TestJacobiKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := []float64{2, 1, 1, 2}
	vals, vecs, err := SymmetricJacobi(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("vals = %v, want [3 1]", vals)
	}
	// First eigenvector ∝ (1,1)/√2.
	v := vecs[0]
	if math.Abs(math.Abs(v[0])-1/math.Sqrt2) > 1e-10 || math.Abs(v[0]-v[1]) > 1e-10 {
		t.Fatalf("vec0 = %v, want ±(1,1)/√2", v)
	}
}

func makeRandomSymmetric(rng *rand.Rand, n int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i*n+j], a[j*n+i] = v, v
		}
	}
	return a
}

func TestJacobiReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 8, 20, 40} {
		a := makeRandomSymmetric(rng, n)
		vals, vecs, err := SymmetricJacobi(a, n)
		if err != nil {
			t.Fatal(err)
		}
		// Check A·v = λ·v for each pair, and orthonormality.
		for k := 0; k < n; k++ {
			v := vecs[k]
			var resid float64
			for i := 0; i < n; i++ {
				var av float64
				for j := 0; j < n; j++ {
					av += a[i*n+j] * v[j]
				}
				resid += (av - vals[k]*v[i]) * (av - vals[k]*v[i])
			}
			if math.Sqrt(resid) > 1e-9*(1+math.Abs(vals[k])) {
				t.Errorf("n=%d k=%d: |Av − λv| = %g", n, k, math.Sqrt(resid))
			}
			for k2 := 0; k2 <= k; k2++ {
				var dot float64
				for i := 0; i < n; i++ {
					dot += v[i] * vecs[k2][i]
				}
				want := 0.0
				if k2 == k {
					want = 1
				}
				if math.Abs(dot-want) > 1e-9 {
					t.Errorf("n=%d: ⟨v%d,v%d⟩ = %g, want %g", n, k, k2, dot, want)
				}
			}
		}
		// Trace preservation.
		var tr, sum float64
		for i := 0; i < n; i++ {
			tr += a[i*n+i]
		}
		for _, v := range vals {
			sum += v
		}
		if math.Abs(tr-sum) > 1e-9*(1+math.Abs(tr)) {
			t.Errorf("n=%d: trace %g vs eigenvalue sum %g", n, tr, sum)
		}
	}
}

// TestJacobiIsScaleInvariant checks that the stopping rule is relative
// to the matrix norm: a covariance in m² (entries ~1e−12) must converge
// as far as the same matrix in units of σ².
func TestJacobiIsScaleInvariant(t *testing.T) {
	const s = 1e-12
	n := 12
	a := makeRandomSymmetric(rand.New(rand.NewSource(13)), n)
	scaled := make([]float64, len(a))
	for i, v := range a {
		scaled[i] = s * v
	}
	want, _, err := SymmetricJacobi(a, n)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := SymmetricJacobi(scaled, n)
	if err != nil {
		t.Fatal(err)
	}
	big := math.Max(math.Abs(want[0]), math.Abs(want[n-1]))
	for k := range got {
		if math.Abs(got[k]/s-want[k]) > 1e-12*big {
			t.Errorf("λ%d of the scaled matrix = %g·s, want %g·s", k, got[k]/s, want[k])
		}
	}
}

func TestJacobiRejectsAsymmetric(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if _, _, err := SymmetricJacobi(a, 2); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
}

func TestTridiagQLMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 15
	d := make([]float64, n)
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = rng.NormFloat64()
		if i > 0 {
			e[i] = rng.NormFloat64()
		}
	}
	// Dense copy for Jacobi.
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = d[i]
		if i > 0 {
			a[i*n+i-1], a[(i-1)*n+i] = e[i], e[i]
		}
	}
	jv, _, err := SymmetricJacobi(a, n)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, n*n)
	for i := 0; i < n; i++ {
		z[i*n+i] = 1
	}
	dd := append([]float64(nil), d...)
	ee := append([]float64(nil), e...)
	if err := TridiagQL(dd, ee, z, n); err != nil {
		t.Fatal(err)
	}
	// Sort QL eigenvalues descending and compare.
	got := append([]float64(nil), dd[:n]...)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if got[j] > got[i] {
				got[i], got[j] = got[j], got[i]
			}
		}
	}
	for i := 0; i < n; i++ {
		if math.Abs(got[i]-jv[i]) > 1e-9*(1+math.Abs(jv[i])) {
			t.Errorf("eigenvalue %d: QL %g vs Jacobi %g", i, got[i], jv[i])
		}
	}
}

func TestTridiagQLEigenvectors(t *testing.T) {
	// Verify T·z_col = λ·z_col for a small tridiagonal system.
	n := 8
	d0 := make([]float64, n)
	e0 := make([]float64, n)
	for i := 0; i < n; i++ {
		d0[i] = 2
		if i > 0 {
			e0[i] = -1
		}
	}
	z := make([]float64, n*n)
	for i := 0; i < n; i++ {
		z[i*n+i] = 1
	}
	d := append([]float64(nil), d0...)
	e := append([]float64(nil), e0...)
	if err := TridiagQL(d, e, z, n); err != nil {
		t.Fatal(err)
	}
	// Known spectrum of the 1D Laplacian: 2 − 2·cos(kπ/(n+1)).
	want := make([]float64, n)
	for k := 1; k <= n; k++ {
		want[k-1] = 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
	}
	for _, w := range want {
		found := false
		for _, g := range d[:n] {
			if math.Abs(g-w) < 1e-10 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing eigenvalue %g in %v", w, d[:n])
		}
	}
	// Residual check for each column.
	for c := 0; c < n; c++ {
		var resid float64
		for i := 0; i < n; i++ {
			var tv float64
			tv += d0[i] * z[i*n+c]
			if i > 0 {
				tv += e0[i] * z[(i-1)*n+c]
			}
			if i < n-1 {
				tv += e0[i+1] * z[(i+1)*n+c]
			}
			r := tv - d[c]*z[i*n+c]
			resid += r * r
		}
		if math.Sqrt(resid) > 1e-10 {
			t.Errorf("column %d residual %g", c, math.Sqrt(resid))
		}
	}
}
