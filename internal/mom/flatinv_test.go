package mom

import (
	"context"
	"math"
	"testing"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/resilience"
	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// TestFlatInverseIsExact: on a flat system, dense or FFT, C·C⁻¹x
// returns x to rounding.
func TestFlatInverseIsExact(t *testing.T) {
	const L = 5 * um
	p := paramsAt(5 * units.GHz)
	dense := Assemble(surface.NewFlat(L, 8), p, Options{})
	fftSys := operatorSystem(surface.NewFlat(L, 20), p, nil, Options{})
	if !fftSys.FFTAdmitted() {
		t.Fatalf("flat M=20 surface not admitted: %v", fftSys.fftRej)
	}
	for _, tc := range []struct {
		name string
		m    int
		mv   cmplxmat.MatVec
	}{
		{"dense M=8", 8, dense.Matrix.MulVecTo},
		{"fft M=20", 20, fftSys.fft.MatVec},
	} {
		inv, err := NewFlatInverse(tc.m, tc.mv)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		n2 := 2 * tc.m * tc.m
		x := make([]complex128, n2)
		for i := range x {
			x[i] = complex(math.Sin(float64(3*i+1)), math.Cos(float64(2*i+1)))
		}
		z := make([]complex128, n2)
		y := make([]complex128, n2)
		inv.Apply(z, x)
		tc.mv(y, z)
		if d := cmplxmat.Norm2(cmplxmat.Sub(y, x)) / cmplxmat.Norm2(x); d > 1e-12 {
			t.Errorf("%s: ‖C·C⁻¹x − x‖/‖x‖ = %.3g, want ≤ 1e-12", tc.name, d)
		}
	}
}

// TestFlatInverseSingularSymbol: a singular flat operator is a typed
// numerical error, not a panic.
func TestFlatInverseSingularSymbol(t *testing.T) {
	_, err := NewFlatInverse(4, func(y, x []complex128) { clear(y) })
	if resilience.Classify(err) != resilience.KindNumerical {
		t.Fatalf("singular symbol classified %v (err %v), want numerical", resilience.Classify(err), err)
	}
}

// TestFlatReferenceWinsInOneIteration: preconditioned by its own
// inverse, the flat system converges in a single GMRES iteration — one
// Arnoldi product, GMRES's true-residual check and the chain's
// verification.
func TestFlatReferenceWinsInOneIteration(t *testing.T) {
	sys := operatorSystem(surface.NewFlat(5*um, 20), paramsAt(5*units.GHz), nil, Options{})
	mv, err := sys.MatVec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inv, err := NewFlatInverse(20, mv)
	if err != nil {
		t.Fatal(err)
	}
	sys.Precondition(inv)
	sol, err := sys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Report.Winner != StageFFT || sol.Report.MatVecs != 3 {
		t.Fatalf("winner %q after %d matvecs, want %q after 3", sol.Report.Winner, sol.Report.MatVecs, StageFFT)
	}
}

// TestPreconditionedChainMatchesLU: on a paper-σ surface (σ = η = 1 µm,
// dense regime) the flat-preconditioned GMRES stage agrees with dense
// LU and needs fewer operator products than the unpreconditioned run.
func TestPreconditionedChainMatchesLU(t *testing.T) {
	const L, m = 5 * um, 12
	p := paramsAt(5 * units.GHz)
	c := surface.NewGaussianCorr(1*um, 1*um)
	s := surface.NewKL(c, L, m).SampleTruncated(rng.New(2), 8)
	sys := Assemble(s, p, Options{})
	lu, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := NewFlatInverse(m, Assemble(surface.NewFlat(L, m), p, Options{}).Matrix.MulVecTo)
	if err != nil {
		t.Fatal(err)
	}
	sys.Precondition(inv)
	pre, err := sys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pre.Report.Winner != StageGMRES {
		t.Fatalf("winner = %q, want %q", pre.Report.Winner, StageGMRES)
	}
	if d := math.Abs(pre.Pabs-lu.Pabs) / math.Abs(lu.Pabs); d > 1e-8 {
		t.Fatalf("preconditioned Pabs %g vs LU %g (rel dev %.3g)", pre.Pabs, lu.Pabs, d)
	}
	if pre.Report.MatVecs >= plain.Report.MatVecs {
		t.Fatalf("preconditioned solve ran %d matvecs, unpreconditioned %d", pre.Report.MatVecs, plain.Report.MatVecs)
	}
	t.Logf("matvecs: %d preconditioned, %d plain", pre.Report.MatVecs, plain.Report.MatVecs)
}
