package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Rect(1, ang)
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func maxDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	// Every length up to 128: 5-smooth lengths run the mixed-radix plans
	// (each radix mix of 4, 2, 3 and 5), the rest Bluestein.
	rng := rand.New(rand.NewSource(21))
	var worst float64
	for n := 1; n <= 128; n++ {
		x := randVec(rng, n)
		for _, inverse := range []bool{false, true} {
			var got []complex128
			if inverse {
				got = Inverse(x)
			} else {
				got = Forward(x)
			}
			d := maxDiff(got, naiveDFT(x, inverse))
			if d > 1e-11 {
				t.Errorf("n=%d inverse=%v: max diff %g", n, inverse, d)
			}
			worst = max(worst, d)
		}
	}
	t.Logf("worst deviation from the naive DFT over n ≤ 128: %.3g", worst)
}

// TestPlansSharedAcrossGoroutines runs transforms of fresh lengths (so
// the plans are built concurrently) from eight goroutines and checks
// every result bitwise against a sequential run; under -race it also
// checks the shared plan cache and its pooled buffers.
func TestPlansSharedAcrossGoroutines(t *testing.T) {
	lengths := []int{150, 160, 162, 139, 149, 211}
	rng := rand.New(rand.NewSource(29))
	inputs := make([][]complex128, len(lengths))
	for i, n := range lengths {
		inputs[i] = randVec(rng, n)
	}
	run := func(x []complex128) []complex128 {
		f := Forward(x)
		return append(f, Inverse(f)...)
	}
	const workers = 8
	got := make([][][]complex128, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([][]complex128, len(lengths))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := range lengths {
				i := (w + r) % len(lengths)
				got[w][i] = run(inputs[i])
			}
		}(w)
	}
	wg.Wait()
	for i, x := range inputs {
		want := run(x)
		for w := range got {
			for k := range want {
				if got[w][i][k] != want[k] {
					t.Fatalf("worker %d, length %d: bin %d = %v, sequential %v", w, len(x), k, got[w][i][k], want[k])
				}
			}
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(130)
		x := randVec(rng, n)
		y := Inverse(Forward(x))
		return maxDiff(x, y) <= 1e-9*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{16, 37, 128} {
		x := randVec(rng, n)
		fx := Forward(x)
		var ex, ef float64
		for i := range x {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		if math.Abs(ef-float64(n)*ex)/(float64(n)*ex) > 1e-10 {
			t.Errorf("n=%d: Parseval violated: %g vs %g", n, ef, float64(n)*ex)
		}
	}
}

func TestDeltaFunctionTransform(t *testing.T) {
	// DFT of a delta at 0 is all-ones.
	n := 32
	x := make([]complex128, n)
	x[0] = 1
	fx := Forward(x)
	for i, v := range fx {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("delta transform bin %d = %v, want 1", i, v)
		}
	}
}

func TestForward2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Non-square shapes: one 5-smooth (mixed-radix rows and columns), one
	// with a factor 7 (Bluestein columns, read with the row stride).
	for _, sh := range [][2]int{{6, 10}, {12, 20}, {14, 9}} {
		ny, nx := sh[0], sh[1]
		x := randVec(rng, ny*nx)
		got := Forward2D(x, ny, nx)
		want := make([]complex128, ny*nx)
		for ky := 0; ky < ny; ky++ {
			for kx := 0; kx < nx; kx++ {
				var s complex128
				for jy := 0; jy < ny; jy++ {
					for jx := 0; jx < nx; jx++ {
						ang := -2 * math.Pi * (float64(ky*jy)/float64(ny) + float64(kx*jx)/float64(nx))
						s += x[jy*nx+jx] * cmplx.Rect(1, ang)
					}
				}
				want[ky*nx+kx] = s
			}
		}
		if d := maxDiff(got, want); d > 1e-10 {
			t.Errorf("%d×%d: 2D FFT max diff %g", ny, nx, d)
		}
	}
}

func TestInverse2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ny, nx := 12, 20
	x := randVec(rng, ny*nx)
	y := Inverse2D(Forward2D(x, ny, nx), ny, nx)
	if d := maxDiff(x, y); d > 1e-9 {
		t.Fatalf("2D round trip max diff %g", d)
	}
}

func TestCyclicConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{4, 9, 16, 31} {
		a := randVec(rng, n)
		b := randVec(rng, n)
		got := CyclicConvolve(a, b)
		want := make([]complex128, n)
		for k := 0; k < n; k++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += a[j] * b[((k-j)%n+n)%n]
			}
			want[k] = s
		}
		if d := maxDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: convolution max diff %g", n, d)
		}
	}
}

func TestCyclicConvolve2D(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ny, nx := 5, 7
	a := randVec(rng, ny*nx)
	b := randVec(rng, ny*nx)
	got := CyclicConvolve2D(a, b, ny, nx)
	want := make([]complex128, ny*nx)
	for ky := 0; ky < ny; ky++ {
		for kx := 0; kx < nx; kx++ {
			var s complex128
			for jy := 0; jy < ny; jy++ {
				for jx := 0; jx < nx; jx++ {
					iy := ((ky-jy)%ny + ny) % ny
					ix := ((kx-jx)%nx + nx) % nx
					s += a[jy*nx+jx] * b[iy*nx+ix]
				}
			}
			want[ky*nx+kx] = s
		}
	}
	if d := maxDiff(got, want); d > 1e-9 {
		t.Fatalf("2D convolution max diff %g", d)
	}
}

func TestLinearity(t *testing.T) {
	f := func(seed int64, ar, ai float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		alpha := complex(math.Mod(ar, 3), math.Mod(ai, 3))
		x := randVec(rng, n)
		y := randVec(rng, n)
		z := make([]complex128, n)
		for i := range z {
			z[i] = alpha*x[i] + y[i]
		}
		fz := Forward(z)
		fx := Forward(x)
		fy := Forward(y)
		for i := range fz {
			if cmplx.Abs(fz[i]-(alpha*fx[i]+fy[i])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
