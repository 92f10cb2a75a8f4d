package mom

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

const um = 1e-6

// paramsAt builds the paper's material parameters at frequency f.
func paramsAt(f float64) Params {
	return Params{
		K1:   complex(units.WavenumberDielectric(f, 3.7), 0),
		K2:   units.WavenumberConductor(f, units.CopperResistivity),
		Beta: units.Beta(f, 3.7, units.CopperResistivity),
	}
}

func TestFlatSurfaceMatchesAnalyticTransmission(t *testing.T) {
	// The decisive end-to-end check of the whole discretization: on a
	// flat surface the solved ψ must be the uniform analytic transmission
	// coefficient T, u must be −j·k₂·T, and Pabs must match
	// |T|²·L²/(2δ).
	f := 5 * units.GHz
	p := paramsAt(f)
	L := 5 * um
	// Discretization bias shrinks fast with the grid: measured −2.4% at
	// M=8 and −0.4% at M=12.
	tols := map[int]float64{8: 0.03, 12: 0.01}
	for _, m := range []int{8, 12} {
		s := surface.NewFlat(L, m)
		sys := Assemble(s, p, Options{})
		sol, err := sys.Solve()
		if err != nil {
			t.Fatal(err)
		}
		_, trans := FlatTransmission(p)
		for i, ps := range sol.Psi {
			if d := cmplx.Abs(ps-trans) / cmplx.Abs(trans); d > 2e-2 {
				t.Fatalf("M=%d: ψ[%d] = %v, want T = %v (rel %g)", m, i, ps, trans, d)
			}
		}
		wantU := complex(0, -1) * p.K2 * trans
		for i, u := range sol.U {
			if d := cmplx.Abs(u-wantU) / cmplx.Abs(wantU); d > 2e-2 {
				t.Fatalf("M=%d: u[%d] = %v, want %v (rel %g)", m, i, u, wantU, d)
			}
		}
		want := FlatPabsAnalytic(p, L)
		if d := math.Abs(sol.Pabs-want) / want; d > tols[m] {
			t.Fatalf("M=%d: Pabs = %g, want %g (rel %g)", m, sol.Pabs, want, d)
		}
	}
}

func TestFlatSurfaceUniformity(t *testing.T) {
	// On a flat surface the solution must be constant across the patch
	// to solver precision (translation invariance).
	p := paramsAt(2 * units.GHz)
	s := surface.NewFlat(5*um, 10)
	sys := Assemble(s, p, Options{})
	sol, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sol.Psi); i++ {
		if cmplx.Abs(sol.Psi[i]-sol.Psi[0]) > 1e-8*cmplx.Abs(sol.Psi[0]) {
			t.Fatalf("ψ varies on a flat surface: %v vs %v", sol.Psi[i], sol.Psi[0])
		}
	}
}

func TestRoughSurfaceIncreasesAbsorption(t *testing.T) {
	// The physical headline: roughness increases loss, K = Pr/Ps > 1,
	// and K grows with frequency (σ/δ grows).
	c := surface.NewGaussianCorr(1*um, 1*um)
	L := 5 * um
	m := 12
	kl := surface.NewKL(c, L, m)
	src := rng.New(7)
	// Band-limited realization: at h = η/2.4 the grid resolves only the
	// dominant KL modes; sampling the full rank would alias grid-scale
	// slopes (see core's resolution guard). The 13 modes are whole
	// degenerate groups of the KL spectrum (wavenumbers up to (±2, 0),
	// (0, ±2)). A cut inside a group — 24 modes stop inside the (±2, ±2)
	// group — keeps an arbitrary part of one wavenumber shell, and that
	// directionally biased realization reads K ≈ 3.7 with K falling in f.
	surf := kl.SampleTruncated(src, 13)

	var prevK float64
	for _, fGHz := range []float64{2, 5, 9} {
		p := paramsAt(fGHz * units.GHz)
		rough, err := Assemble(surf, p, Options{}).Solve()
		if err != nil {
			t.Fatal(err)
		}
		flat, err := Assemble(surface.NewFlat(L, m), p, Options{}).Solve()
		if err != nil {
			t.Fatal(err)
		}
		k := rough.Pabs / flat.Pabs
		if k <= 1.0 {
			t.Fatalf("f=%g GHz: K = %g, want > 1", fGHz, k)
		}
		if k > 4 {
			t.Fatalf("f=%g GHz: K = %g suspiciously large", fGHz, k)
		}
		if k < prevK*0.97 {
			t.Fatalf("K decreased substantially with f: %g after %g", k, prevK)
		}
		prevK = k
	}
}

func TestGMRESMatchesDense(t *testing.T) {
	c := surface.NewGaussianCorr(1*um, 1*um)
	kl := surface.NewKL(c, 5*um, 10)
	surf := kl.Sample(rng.New(3))
	p := paramsAt(5 * units.GHz)
	sys := Assemble(surf, p, Options{})
	dense, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	iter, err := sys.SolveResilient(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iter.Report.Winner != StageGMRES {
		t.Fatalf("winner = %q, want %q", iter.Report.Winner, StageGMRES)
	}
	if d := math.Abs(dense.Pabs-iter.Pabs) / dense.Pabs; d > 1e-6 {
		t.Fatalf("GMRES Pabs %g vs dense %g (rel %g)", iter.Pabs, dense.Pabs, d)
	}
	diff := cmplxmat.Norm2(cmplxmat.Sub(dense.Psi, iter.Psi)) / cmplxmat.Norm2(dense.Psi)
	if diff > 1e-6 {
		t.Fatalf("GMRES ψ differs from dense by %g", diff)
	}
}

func TestGridRefinementConverges(t *testing.T) {
	// K(f) must be stable under grid refinement (the discretization
	// converges). Uses a deterministic mode surface so refinement
	// compares the same geometry.
	L := 5 * um
	p := paramsAt(5 * units.GHz)
	kAt := func(m int) float64 {
		s := surface.NewFlat(L, m)
		for iy := 0; iy < m; iy++ {
			for ix := 0; ix < m; ix++ {
				x := float64(ix) / float64(m)
				y := float64(iy) / float64(m)
				s.H[iy*m+ix] = 0.7 * um * math.Cos(2*math.Pi*x) * math.Cos(2*math.Pi*y)
			}
		}
		rough, err := Assemble(s, p, Options{}).Solve()
		if err != nil {
			t.Fatal(err)
		}
		flat, err := Assemble(surface.NewFlat(L, m), p, Options{}).Solve()
		if err != nil {
			t.Fatal(err)
		}
		return rough.Pabs / flat.Pabs
	}
	k8 := kAt(8)
	k16 := kAt(16)
	if math.Abs(k16-k8)/k8 > 0.08 {
		t.Fatalf("poor grid convergence: K(8)=%g K(16)=%g", k8, k16)
	}
}

func TestEnergyBounds(t *testing.T) {
	// Absorbed power must stay positive and bounded by a physical factor
	// of the flat value for moderate roughness.
	c := surface.NewGaussianCorr(0.5*um, 2*um)
	kl := surface.NewKL(c, 10*um, 12)
	src := rng.New(11)
	p := paramsAt(4 * units.GHz)
	flat, err := Assemble(surface.NewFlat(10*um, 12), p, Options{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		surf := kl.Sample(src)
		sol, err := Assemble(surf, p, Options{}).Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Pabs <= 0 {
			t.Fatalf("trial %d: non-positive absorbed power %g", trial, sol.Pabs)
		}
		k := sol.Pabs / flat.Pabs
		if k < 0.9 || k > 3 {
			t.Fatalf("trial %d: K = %g outside physical range for mild roughness", trial, k)
		}
	}
}

func TestFlat2DMatchesAnalytic(t *testing.T) {
	f := 5 * units.GHz
	p := paramsAt(f)
	L := 5 * um
	prof := surface.NewFlatProfile(L, 24)
	sys := Assemble2D(prof, p, Options{})
	sol, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	_, trans := FlatTransmission(p)
	for i, ps := range sol.Psi {
		if d := cmplx.Abs(ps-trans) / cmplx.Abs(trans); d > 2e-2 {
			t.Fatalf("2D ψ[%d] = %v, want %v (rel %g)", i, ps, trans, d)
		}
	}
	want := FlatPabsAnalytic2D(p, L)
	if d := math.Abs(sol.Pabs-want) / want; d > 2e-2 {
		t.Fatalf("2D Pabs = %g, want %g", sol.Pabs, want)
	}
}

func TestRough2DIncreasesAbsorption(t *testing.T) {
	c := surface.NewGaussianCorr(1*um, 1*um)
	L := 5 * um
	m := 48
	kl := surface.NewKL1D(c, L, m)
	prof := kl.Sample(rng.New(5))
	p := paramsAt(5 * units.GHz)
	rough, err := Assemble2D(prof, p, Options{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Assemble2D(surface.NewFlatProfile(L, m), p, Options{}).Solve()
	if err != nil {
		t.Fatal(err)
	}
	k := rough.Pabs / flat.Pabs
	if k <= 1.0 || k > 3 {
		t.Fatalf("2D K = %g, want in (1, 3]", k)
	}
}

func TestFlatTransmissionLimit(t *testing.T) {
	// For a good conductor ζ ≪ 1 so T ≈ 2 (tangential H doubles at a
	// conductor surface) and R ≈ 1.
	p := paramsAt(5 * units.GHz)
	r, tr := FlatTransmission(p)
	if cmplx.Abs(tr-2) > 0.01 {
		t.Fatalf("T = %v, want ≈ 2", tr)
	}
	if cmplx.Abs(r-1) > 0.01 {
		t.Fatalf("R = %v, want ≈ 1", r)
	}
}
