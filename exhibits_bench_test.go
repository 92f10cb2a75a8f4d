// Benchmarks regenerating every exhibit of the paper's evaluation
// section (run with `go test -bench=. -benchmem`). Each figure benchmark
// runs the same generator as cmd/figures at the reduced Bench
// configuration, so the timings measure the full pipeline: surface
// synthesis → Green's-function tabulation → MoM assembly → solve →
// statistics. They are an external test package because the exhibits
// run through this package's Simulation.
package roughsim_test

import (
	"testing"

	"roughsim/internal/experiments"
)

func benchExhibit(b *testing.B, gen func(experiments.Config) (*experiments.Result, error)) {
	cfg := experiments.Bench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gen(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2SurfaceSynthesis times the random-surface machinery
// behind Fig. 2 (KL construction + sampling + statistics).
func BenchmarkFig2SurfaceSynthesis(b *testing.B) { benchExhibit(b, experiments.Fig2) }

// BenchmarkFig3 regenerates the SWM vs SPM2 vs empirical comparison
// (Gaussian CF, three roughness levels).
func BenchmarkFig3(b *testing.B) { benchExhibit(b, experiments.Fig3) }

// BenchmarkFig4 regenerates the measured-CF comparison.
func BenchmarkFig4(b *testing.B) { benchExhibit(b, experiments.Fig4) }

// BenchmarkFig5 regenerates the half-spheroid SWM vs HBM comparison.
func BenchmarkFig5(b *testing.B) { benchExhibit(b, experiments.Fig5) }

// BenchmarkFig6 regenerates the 3D-vs-2D SWM comparison.
func BenchmarkFig6(b *testing.B) { benchExhibit(b, experiments.Fig6) }

// BenchmarkFig7 regenerates the K-distribution comparison (MC vs SSCM).
func BenchmarkFig7(b *testing.B) { benchExhibit(b, experiments.Fig7) }

// BenchmarkTable1 regenerates the sampling-point accounting.
func BenchmarkTable1(b *testing.B) { benchExhibit(b, experiments.Table1) }
