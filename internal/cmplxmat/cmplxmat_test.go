package cmplxmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func residual(a *Matrix, x, b []complex128) float64 {
	r := a.MulVec(x)
	for i := range r {
		r[i] -= b[i]
	}
	return Norm2(r) / Norm2(b)
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 8, 25, 60} {
		a := randomMatrix(rng, n)
		b := randomVec(rng, n)
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := residual(a, x, b); r > 1e-10 {
			t.Errorf("n=%d: residual %g", n, r)
		}
	}
}

func TestLUReuseFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 20
	a := randomMatrix(rng, n)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		b := randomVec(rng, n)
		x := f.Solve(b)
		if r := residual(a, x, b); r > 1e-10 {
			t.Errorf("rhs %d: residual %g", k, r)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := New(3, 3)
	// Rank-1 matrix.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, complex(float64(i+1)*float64(j+1), 0))
		}
	}
	if _, err := Factor(a); err == nil {
		t.Fatal("expected ErrSingular for a rank-1 matrix")
	}
}

func TestLUIdentity(t *testing.T) {
	n := 7
	a := New(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(float64(i), -float64(i))
	}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != b[i] {
			t.Fatalf("identity solve x[%d]=%v want %v", i, x[i], b[i])
		}
	}
}

func TestGMRESDenseOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{5, 30, 80} {
		// Diagonally dominant to keep GMRES honest without preconditioning.
		a := randomMatrix(rng, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, complex(float64(n), float64(n)/2))
		}
		b := randomVec(rng, n)
		mv := func(y, x []complex128) { copy(y, a.MulVec(x)) }
		x, rr, err := GMRES(n, mv, b, nil, IterOpts{Tol: 1e-11})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := residual(a, x, b); r > 1e-9 {
			t.Errorf("n=%d: true residual %g (reported %g)", n, r, rr)
		}
	}
}

func TestGMRESMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 40
	a := randomMatrix(rng, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, complex(8, 0))
	}
	b := randomVec(rng, n)
	xd, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mv := func(y, x []complex128) { copy(y, a.MulVec(x)) }
	xi, _, err := GMRES(n, mv, b, nil, IterOpts{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	diff := Sub(xd, xi)
	if Norm2(diff)/Norm2(xd) > 1e-9 {
		t.Fatalf("GMRES vs LU mismatch: %g", Norm2(diff)/Norm2(xd))
	}
}

func TestGMRESRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 50
	a := randomMatrix(rng, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, complex(12, 3))
	}
	b := randomVec(rng, n)
	mv := func(y, x []complex128) { copy(y, a.MulVec(x)) }
	// Force multiple restarts with a short Krylov space.
	x, _, err := GMRES(n, mv, b, nil, IterOpts{Tol: 1e-10, Restart: 5, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-8 {
		t.Fatalf("restarted GMRES residual %g", r)
	}
}

// TestGMRESNilGuessSkipsInitialMatVec: with x0 == nil the first
// residual is b itself, so the solve runs one matvec fewer than with an
// explicit zero guess and returns the same bits.
func TestGMRESNilGuessSkipsInitialMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 50
	a := randomMatrix(rng, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, complex(12, 3))
	}
	b := randomVec(rng, n)
	run := func(x0 []complex128) ([]complex128, float64, int) {
		calls := 0
		mv := func(y, x []complex128) { calls++; a.MulVecTo(y, x) }
		x, rr, err := GMRES(n, mv, b, x0, IterOpts{Tol: 1e-10, Restart: 5, MaxIter: 5000})
		if err != nil {
			t.Fatal(err)
		}
		return x, rr, calls
	}
	xNil, rrNil, callsNil := run(nil)
	xZero, rrZero, callsZero := run(make([]complex128, n))
	if callsNil != callsZero-1 {
		t.Fatalf("nil guess ran %d matvecs, explicit zero %d: want exactly one fewer", callsNil, callsZero)
	}
	if rrNil != rrZero {
		t.Fatalf("relative residuals differ: %g vs %g", rrNil, rrZero)
	}
	for i := range xNil {
		if xNil[i] != xZero[i] {
			t.Fatalf("x[%d] = %v with a nil guess, %v with an explicit zero", i, xNil[i], xZero[i])
		}
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	n := 10
	mv := func(y, x []complex128) { copy(y, x) }
	x, rr, err := GMRES(n, mv, make([]complex128, n), nil, IterOpts{})
	if err != nil || rr != 0 {
		t.Fatalf("zero rhs: err=%v rr=%g", err, rr)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
}

func TestDotAxpyProperties(t *testing.T) {
	// ⟨x, x⟩ = ‖x‖² and Axpy linearity, property-based.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		x := randomVec(rng, n)
		y := randomVec(rng, n)
		nx := Norm2(x)
		if math.Abs(real(Dot(x, x))-nx*nx) > 1e-9*(1+nx*nx) {
			return false
		}
		if math.Abs(imag(Dot(x, x))) > 1e-9*(1+nx*nx) {
			return false
		}
		// (x−y) + y == x via Axpy.
		d := Sub(x, y)
		Axpy(1, y, d)
		return Norm2(Sub(d, x)) <= 1e-9*(1+nx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGivensProperty(t *testing.T) {
	f := func(ar, ai, br, bi float64) bool {
		a := complex(math.Mod(ar, 5), math.Mod(ai, 5))
		b := complex(math.Mod(br, 5), math.Mod(bi, 5))
		c, s := givens(a, b)
		// Unitary: |c|² + |s|² = 1.
		if math.Abs(cmplx.Abs(c)*cmplx.Abs(c)+cmplx.Abs(s)*cmplx.Abs(s)-1) > 1e-12 {
			return false
		}
		// Elimination: −conj(s)·a + conj(c)·b == 0.
		elim := -cmplx.Conj(s)*a + cmplx.Conj(c)*b
		return cmplx.Abs(elim) <= 1e-10*(1+cmplx.Abs(a)+cmplx.Abs(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
