// Ablation benchmarks for the design choices DESIGN.md calls out (run
// with `go test -bench=. -benchmem`). The exhibit benchmarks live in
// exhibits_bench_test.go.
package roughsim

import (
	"context"
	"testing"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/greens"
	"roughsim/internal/mom"
	"roughsim/internal/rng"
	"roughsim/internal/sscm"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

func benchParams() mom.Params {
	f := 5 * units.GHz
	return mom.Params{
		K1:   complex(units.WavenumberDielectric(f, 3.7), 0),
		K2:   units.WavenumberConductor(f, units.CopperResistivity),
		Beta: units.Beta(f, 3.7, units.CopperResistivity),
	}
}

func benchSurface(m int) *surface.Surface { return benchSurfaceSigma(m, 1e-6) }

// benchSurfaceSigma is a KL realization of a Gaussian surface of RMS
// height sigma and correlation length 1 µm on a 5 µm patch.
func benchSurfaceSigma(m int, sigma float64) *surface.Surface {
	c := surface.NewGaussianCorr(sigma, 1e-6)
	kl := surface.NewKL(c, 5e-6, m)
	return kl.SampleTruncated(rng.New(3), 8)
}

// BenchmarkAssembleExact measures direct Ewald/image-sum MoM assembly.
func BenchmarkAssembleExact(b *testing.B) {
	s := benchSurface(12)
	p := benchParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mom.Assemble(s, p, mom.Options{})
	}
}

// BenchmarkAssembleTabulated measures one-worker table-accelerated
// assembly — the per-surface cost once a frequency's tables exist, the
// SSCM/MC inner loop — at 5 GHz with the 14σ table span the solver
// uses: at the campaign-g8 bench workload's cell (M=8, σ = 0.33 µm), on
// a rough surface and on the flat reference (whose translation-invariant
// system is built from one row), and at the paper's roughness (M=24,
// σ = η = 1 µm).
func BenchmarkAssembleTabulated(b *testing.B) {
	for _, bc := range []struct {
		name  string
		m     int
		sigma float64
		flat  bool
	}{{"campaign-M8", 8, 0.33e-6, false}, {"campaign-M8/flat", 8, 0.33e-6, true}, {"paper-M24", 24, 1e-6, false}} {
		b.Run(bc.name, func(b *testing.B) {
			s := benchSurfaceSigma(bc.m, bc.sigma)
			if bc.flat {
				s = surface.NewFlat(s.L, s.M)
			}
			p := benchParams()
			opt := mom.Options{Workers: 1}
			ts := mom.NewTableSet(p, 5e-6, bc.m, 14*bc.sigma, opt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mom.AssembleTabulated(s, p, ts, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableBuild measures the one-time per-frequency table cost at
// 5 GHz: one worker at the sweep-m20 bench workload's grid and span
// (M=20, ZSpan = 14σ = 210 nm, 10 Chebyshev nodes per fit), one worker
// at a campaign-g8 cell's (M=8, ZSpan = 14 × 0.33 µm, 32 nodes), and
// over all workers at M=12 with a 12 µm span (the 32-node cap).
func BenchmarkTableBuild(b *testing.B) {
	p := benchParams()
	for _, bc := range []struct {
		name    string
		m       int
		zspan   float64
		workers int
	}{{"sweep-m20", 20, 14 * sweepSigma, 1}, {"campaign-g8", 8, 14 * 0.33e-6, 1}, {"M12", 12, 12e-6, 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mom.NewTableSet(p, 5e-6, bc.m, bc.zspan, mom.Options{Workers: bc.workers})
			}
		})
	}
}

// sweepSigma is the sweep-m20 bench workload's RMS height (η = 1 µm).
const sweepSigma = 15e-9

// sweepNodeSurface is the sweep-m20 bench workload's first rough
// collocation surface: a first-order d=2 SSCM node of the M=20 KL
// expansion on a 5 µm patch whose heights are not all equal. (The
// nodes on the ξ₁ axis synthesize rigid shifts — the first KL mode is
// the DC mode — which build from one row like the flat reference.)
func sweepNodeSurface(b *testing.B) *surface.Surface {
	nodes, err := sscm.Nodes(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	kl := surface.NewKL(surface.NewGaussianCorr(sweepSigma, 1e-6), 5e-6, 20)
	for _, xi := range nodes {
		s := kl.Synthesize(xi)
		for _, v := range s.H {
			if v != s.H[0] {
				return s
			}
		}
	}
	b.Fatal("no rough collocation node")
	return nil
}

// BenchmarkFFTBuildTabulated measures one-worker construction of the
// tabulated FFT operator at sweep-m20's physics and 5 GHz — kernel fits
// and the near-correction loop, the tables already built — the cost the
// sweep pays per surface and frequency, at the default order 6: on the
// first rough node surface and on the flat reference.
func BenchmarkFFTBuildTabulated(b *testing.B) {
	node := sweepNodeSurface(b)
	p := benchParams()
	opt := mom.Options{Workers: 1}
	ts := mom.NewTableSet(p, node.L, node.M, 14*sweepSigma, opt)
	for _, bc := range []struct {
		name string
		s    *surface.Surface
	}{{"node", node}, {"flat", surface.NewFlat(node.L, node.M)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mom.NewFFTOperatorTabulated(bc.s, p, ts, 6, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveDense measures the O(N³) dense LU path.
func BenchmarkSolveDense(b *testing.B) {
	s := benchSurface(12)
	sys := mom.Assemble(s, benchParams(), mom.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveGMRES measures the iterative path at the same size: the
// solve chain's GMRES stage, right-preconditioned by the flat inverse as
// in production.
func BenchmarkSolveGMRES(b *testing.B) {
	s := benchSurface(12)
	sys := mom.Assemble(s, benchParams(), mom.Options{})
	flat := mom.Assemble(surface.NewFlat(s.L, s.M), benchParams(), mom.Options{})
	inv, err := mom.NewFlatInverse(s.M, flat.Matrix.MulVecTo)
	if err != nil {
		b.Fatal(err)
	}
	sys.Precondition(inv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SolveResilient(context.Background(), mom.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnknownScaling demonstrates the Sec. III-C argument: the SWM
// system has 2N unknowns (vs ~6N for the vector-EM RWG formulation), and
// dense solve cost scales with the cube of that count. The benchmark
// reports the solve time at 2N and at 6N unknowns for the same N.
func BenchmarkUnknownScaling(b *testing.B) {
	n := 144 // N = 12² surface cells
	src := rng.New(5)
	build := func(dim int) *cmplxmat.Matrix {
		m := cmplxmat.New(dim, dim)
		for i := range m.Data {
			m.Data[i] = complex(src.NormFloat64(), src.NormFloat64())
		}
		for i := 0; i < dim; i++ {
			m.Add(i, i, complex(float64(dim), 0))
		}
		return m
	}
	rhs := func(dim int) []complex128 {
		v := make([]complex128, dim)
		for i := range v {
			v[i] = complex(src.NormFloat64(), 0)
		}
		return v
	}
	b.Run("SWM-2N", func(b *testing.B) {
		m := build(2 * n)
		r := rhs(2 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cmplxmat.SolveDense(m, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EM-6N", func(b *testing.B) {
		m := build(6 * n)
		r := rhs(6 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cmplxmat.SolveDense(m, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEwaldVsDirect times one periodic Green's function evaluation
// per strategy (medium-1 Ewald vs medium-2 image sum).
func BenchmarkEwaldVsDirect(b *testing.B) {
	p := benchParams()
	ge := greens.NewPeriodic3D(p.K1, 5e-6)
	gd := greens.NewPeriodic3D(p.K2, 5e-6)
	b.Run("Ewald", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ge.EvalGrad(1e-6, 0.7e-6, 0.4e-6)
		}
	})
	b.Run("Direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gd.EvalGrad(1e-6, 0.7e-6, 0.4e-6)
		}
	})
}

// BenchmarkSSCMCollocation measures the stochastic layer alone (cheap
// surrogate construction on an analytic model, no MoM), isolating the
// sparse-grid machinery of Table I.
func BenchmarkSSCMCollocation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nodes, err := sscm.Nodes(16, 2)
		if err != nil {
			b.Fatal(err)
		}
		vals := make([]float64, len(nodes))
		for j, xi := range nodes {
			s := 1.4
			for q, v := range xi {
				s += 0.05*v + 0.01*float64(q%3)*v*v
			}
			vals[j] = s
		}
		if _, err := sscm.FromValues(16, 2, vals); err != nil {
			b.Fatal(err)
		}
	}
}
