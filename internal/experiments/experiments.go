// Package experiments reproduces every figure and table of the paper's
// evaluation section (Sec. IV). Each function regenerates one exhibit as
// a structured Result that cmd/figures renders to CSV/ASCII and the
// repository benchmarks time. Paper-vs-measured notes live in
// EXPERIMENTS.md.
//
// All experiments use the paper's material stack: ρ = 1.67 μΩ·cm,
// εr = 3.7, patch L = 5η. The Config resolution trades fidelity for
// runtime; Config.Paper() selects the paper's Δ = η/8 discretization.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"roughsim/internal/core"
	"roughsim/internal/hbm"
	"roughsim/internal/mom"
	"roughsim/internal/rng"
	"roughsim/internal/spm2"
	"roughsim/internal/sscm"
	"roughsim/internal/stats"
	"roughsim/internal/surface"
	"roughsim/internal/sweepengine"
	"roughsim/internal/units"
)

const um = 1e-6

// Config scales the experiments.
type Config struct {
	// M is the 3D grid per side (the paper's Δ = η/8 with L = 5η gives
	// M = 40).
	M int
	// LOverEta is the patch period in correlation lengths (paper: 5).
	LOverEta float64
	// KLDim is the stochastic dimension d of the truncated KL expansion
	// (paper: 16 for the Gaussian CF — Table I's 2d+1 = 33).
	KLDim int
	// MCSamples is the Monte-Carlo sample count of Fig. 7 (paper: 5000).
	MCSamples int
	// M2D is the 1-D grid for the 2D SWM variant.
	M2D int
	// MFig5 is the grid for the (taller, wider) Fig. 5 spheroid patch.
	MFig5 int
	// FreqStride subsamples each figure's frequency list (1 = full).
	FreqStride int
	// Workers bounds parallel solver evaluations.
	Workers int
	// Seed drives every random draw.
	Seed uint64
}

// Default returns a laptop-scale configuration that preserves every
// qualitative feature of the paper's exhibits (minutes, not hours).
func Default() Config {
	return Config{
		M: 16, LOverEta: 5, KLDim: 16, MCSamples: 2000,
		M2D: 64, MFig5: 28, FreqStride: 1, Workers: 0, Seed: 20090424,
	}
}

// Paper returns the paper-resolution configuration (Δ = η/8, MC 5000).
// Expect hours of runtime on a desktop.
func Paper() Config {
	c := Default()
	c.M = 40
	c.MCSamples = 5000
	c.MFig5 = 48
	return c
}

// Bench returns a deliberately small configuration for Go benchmarks.
func Bench() Config {
	return Config{
		M: 10, LOverEta: 4, KLDim: 8, MCSamples: 24,
		M2D: 32, MFig5: 16, FreqStride: 2, Workers: 0, Seed: 7,
	}
}

// Series is one plotted curve.
type Series struct {
	Label string
	X, Y  []float64
}

// Result is one regenerated exhibit.
type Result struct {
	Name   string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// WriteCSV emits the result as wide-format CSV (x, one column per series).
func (r *Result) WriteCSV(w io.Writer) error {
	fmt.Fprintf(w, "# %s — %s\n", r.Name, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "%s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(w, ",%s", s.Label)
	}
	fmt.Fprintln(w)
	// Series may share one x grid (wide format) or not (long format).
	common := true
	for _, s := range r.Series[1:] {
		if len(s.X) != len(r.Series[0].X) {
			common = false
			break
		}
		for i := range s.X {
			if s.X[i] != r.Series[0].X[i] {
				common = false
				break
			}
		}
	}
	if common {
		for i, x := range r.Series[0].X {
			fmt.Fprintf(w, "%g", x)
			for _, s := range r.Series {
				fmt.Fprintf(w, ",%g", s.Y[i])
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	// Long format fallback.
	for _, s := range r.Series {
		for i := range s.X {
			fmt.Fprintf(w, "%g,%s,%g\n", s.X[i], s.Label, s.Y[i])
		}
	}
	return nil
}

// WriteTable renders an aligned ASCII table.
func (r *Result) WriteTable(w io.Writer) error {
	fmt.Fprintf(w, "%s — %s\n", r.Name, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(tw, "\t%s", s.Label)
	}
	fmt.Fprintln(tw)
	n := 0
	for _, s := range r.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		wrote := false
		for si, s := range r.Series {
			if i < len(s.X) {
				if !wrote {
					fmt.Fprintf(tw, "%.4g", s.X[i])
					wrote = true
				}
				_ = si
				fmt.Fprintf(tw, "\t%.4f", s.Y[i])
			} else {
				fmt.Fprintf(tw, "\t")
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// zspanFor bounds the table span for random surfaces of deviation sigma.
func zspanFor(sigma float64) float64 { return 14 * sigma }

// stride subsamples a frequency list per the configuration.
func (cfg Config) stride(freqs []float64) []float64 {
	st := cfg.FreqStride
	if st <= 1 {
		return freqs
	}
	var out []float64
	for i := 0; i < len(freqs); i += st {
		out = append(out, freqs[i])
	}
	if out[len(out)-1] != freqs[len(freqs)-1] {
		out = append(out, freqs[len(freqs)-1])
	}
	return out
}

// meanLossSWM computes the SSCM (order-1) mean K(f) for a correlation
// function, reusing one tabulated solver across frequencies.
func meanLossSWM(cfg Config, c surface.Corr, eta float64, freqs []float64) ([]float64, error) {
	mat := core.PaperMaterial()
	L := cfg.LOverEta * eta
	solver, err := core.NewSolverTabulated(mat, L, cfg.M, zspanFor(c.Sigma()), mom.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	kl := surface.NewKL(c, L, cfg.M)
	d := cfg.KLDim
	if d > len(kl.Modes) {
		d = len(kl.Modes)
	}
	out := make([]float64, len(freqs))
	for i, f := range freqs {
		res, err := sscmAt(solver, kl, d, 1, f, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: SSCM at f=%g: %w", f, err)
		}
		out[i] = res.Mean
	}
	return out, nil
}

// sscmAt builds the order-p SSCM surrogate of K at f over the first d
// KL modes: a one-frequency sweep, which always takes the engine's
// exact path, projected with sscm.FromValues.
func sscmAt(solver *core.Solver, kl *surface.KL, d, order int, f float64, workers int) (*sscm.Result, error) {
	eng := sweepengine.Engine{Solver: solver, Synth: kl.Synthesize, Dim: d, Order: order, Workers: workers}
	res, err := eng.Run(context.Background(), []float64{f})
	if err != nil {
		return nil, err
	}
	return sscm.FromValues(d, order, res.Values[0])
}

// spm2Curve evaluates the SPM2 baseline over the frequency list.
func spm2Curve(c surface.Corr, eta float64, freqs []float64) []float64 {
	mat := core.PaperMaterial()
	out := make([]float64, len(freqs))
	for i, f := range freqs {
		p := mat.Params(f)
		out[i] = spm2.LossFactorCorr(spm2.Params{K1: p.K1, K2: p.K2, Beta: p.Beta}, c, eta)
	}
	return out
}

// Fig2 regenerates the surface-synthesis exhibit: a sampled realization
// of the Gaussian-CF surface (σ = η = 1 μm) with its measured statistics
// against the targets.
func Fig2(cfg Config) (*Result, error) {
	c := surface.NewGaussianCorr(1*um, 1*um)
	L := cfg.LOverEta * 1 * um
	m := cfg.M
	kl := surface.NewKL(c, L, m)
	// Average the empirical CF over several realizations.
	src := rng.New(cfg.Seed)
	const nAvg = 64
	lags := m/2 + 1
	acc := make([]float64, lags)
	var varAcc float64
	for s := 0; s < nAvg; s++ {
		surf := kl.Sample(src)
		for i, v := range surf.CorrEstimate() {
			acc[i] += v
		}
		r := surf.RMS()
		varAcc += r * r
	}
	h := L / float64(m)
	emp := Series{Label: "empirical CF"}
	tgt := Series{Label: "target CF"}
	for lag := 0; lag < lags; lag++ {
		d := float64(lag) * h
		emp.X = append(emp.X, d/um)
		emp.Y = append(emp.Y, acc[lag]/nAvg/(um*um))
		tgt.X = append(tgt.X, d/um)
		tgt.Y = append(tgt.Y, c.At(d)/(um*um))
	}
	return &Result{
		Name:   "fig2",
		Title:  "3D random rough surface synthesis (Gaussian CF, σ=η=1 μm)",
		XLabel: "lag (μm)",
		YLabel: "C(d) (μm²)",
		Series: []Series{emp, tgt},
		Notes: []string{
			fmt.Sprintf("sampled variance %.4g μm² (target 1.0)", varAcc/nAvg/(um*um)),
		},
	}, nil
}

// Fig3 regenerates Fig. 3: SWM vs SPM2 vs the empirical formula for the
// Gaussian CF with σ = 1 μm and η ∈ {1, 2, 3} μm over 0.5–9 GHz.
func Fig3(cfg Config) (*Result, error) {
	freqs := cfg.stride([]float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	res := &Result{
		Name:   "fig3",
		Title:  "SWM vs SPM2 and empirical formula (Gaussian CF, σ=1 μm)",
		XLabel: "f (GHz)",
		YLabel: "Pr/Ps",
	}
	mat := core.PaperMaterial()
	empir := Series{Label: "Empirical"}
	for _, fG := range freqs {
		ke, err := mat.EmpiricalAt(1*um, fG*units.GHz)
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig3 empirical at %g GHz: %w", fG, err)
		}
		empir.X = append(empir.X, fG)
		empir.Y = append(empir.Y, ke)
	}
	res.Series = append(res.Series, empir)
	for _, etaUM := range []float64{1, 2, 3} {
		eta := etaUM * um
		c := surface.NewGaussianCorr(1*um, eta)
		fs := make([]float64, len(freqs))
		for i, fG := range freqs {
			fs[i] = fG * units.GHz
		}
		swmY, err := meanLossSWM(cfg, c, eta, fs)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series,
			Series{Label: fmt.Sprintf("SWM (η=%gμm)", etaUM), X: freqs, Y: swmY},
			Series{Label: fmt.Sprintf("SPM2 (η=%gμm)", etaUM), X: freqs, Y: spm2Curve(c, eta, fs)},
		)
	}
	return res, nil
}

// Fig4 regenerates Fig. 4: SWM vs SPM2 under the measurement-extracted
// CF (12) (σ=1 μm, η₁=1.4 μm, η₂=0.53 μm) over 0.1–10 GHz.
func Fig4(cfg Config) (*Result, error) {
	freqs := cfg.stride([]float64{0.1, 0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	c := surface.NewMeasuredCorr(1*um, 1.4*um, 0.53*um)
	eta := 1.4 * um
	fs := make([]float64, len(freqs))
	for i, fG := range freqs {
		fs[i] = fG * units.GHz
	}
	swmY, err := meanLossSWM(cfg, c, eta, fs)
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:   "fig4",
		Title:  "SWM vs SPM2 with extracted CF (12) (σ=1, η1=1.4, η2=0.53 μm)",
		XLabel: "f (GHz)",
		YLabel: "Pr/Ps",
		Series: []Series{
			{Label: "SWM", X: freqs, Y: swmY},
			{Label: "SPM2", X: freqs, Y: spm2Curve(c, eta, fs)},
		},
	}, nil
}

// Fig5 regenerates Fig. 5: SWM on the deterministic half-spheroid
// (h=5.8 μm, base diameter 9.4 μm) vs the hemispherical boss model over
// 1–20 GHz.
func Fig5(cfg Config) (*Result, error) {
	freqs := cfg.stride([]float64{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20})
	hgt := 5.8 * um
	baseR := 4.7 * um
	L := 10 * um // tile sized so neighbouring bosses nearly touch ([5])
	m := cfg.MFig5
	mat := core.PaperMaterial()
	solver, err := core.NewSolverTabulated(mat, L, m, 2.4*hgt, mom.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	surf := surface.SmoothSpheroid(L, m, hgt, baseR)

	swm := Series{Label: "SWM"}
	hb := Series{Label: "HBM"}
	model := hbm.Model{
		Radius: hbm.EquivalentSphereRadius(hgt, baseR),
		Tile:   L * L,
		Rho:    mat.Rho,
	}
	for _, fG := range freqs {
		f := fG * units.GHz
		k, err := solver.LossFactor(surf, f)
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig5 at %g GHz: %w", fG, err)
		}
		swm.X = append(swm.X, fG)
		swm.Y = append(swm.Y, k)
		hb.X = append(hb.X, fG)
		hb.Y = append(hb.Y, model.LossFactor(f))
	}
	// The SWM curve is trustworthy only while the grid resolves the skin
	// depth (the paper refines to Δ = δ/5 here); report the validity
	// edge so coarse-configuration outputs are read correctly.
	hStep := L / float64(m)
	fValid := 0.0
	for _, fG := range freqs {
		if mat.SkinDepth(fG*units.GHz)/2 >= hStep {
			fValid = fG
		}
	}
	return &Result{
		Name:   "fig5",
		Title:  "SWM vs HBM, conducting half-spheroid (h=5.8 μm, d=9.4 μm)",
		XLabel: "f (GHz)",
		YLabel: "Pr/Ps",
		Series: []Series{swm, hb},
		Notes: []string{
			"spheroid rim regularized (C¹ profile); HBM uses the volume-equivalent sphere radius",
			fmt.Sprintf("grid Δ=%.2f μm resolves δ/2 only up to ≈%g GHz; refine (e.g. -paper) beyond", hStep*1e6, fValid),
		},
	}, nil
}

// Fig6 regenerates Fig. 6: 3D SWM vs the 2D SWM variant for the Gaussian
// CF with σ = 1 μm, η ∈ {1, 2} μm.
func Fig6(cfg Config) (*Result, error) {
	freqs := cfg.stride([]float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	res := &Result{
		Name:   "fig6",
		Title:  "3D SWM vs 2D SWM (Gaussian CF, σ=1 μm)",
		XLabel: "f (GHz)",
		YLabel: "Pr/Ps",
	}
	mat := core.PaperMaterial()
	for _, etaUM := range []float64{1, 2} {
		eta := etaUM * um
		c := surface.NewGaussianCorr(1*um, eta)
		fs := make([]float64, len(freqs))
		for i, fG := range freqs {
			fs[i] = fG * units.GHz
		}
		y3, err := meanLossSWM(cfg, c, eta, fs)
		if err != nil {
			return nil, err
		}
		// 2D variant: KL over profiles, same SSCM machinery. The 2D
		// truncation is variance-matched to the 3D one so the comparison
		// feeds both solvers the same fraction of surface roughness.
		L := cfg.LOverEta * eta
		kl3 := surface.NewKL(c, L, cfg.M)
		d3 := cfg.KLDim
		if d3 > len(kl3.Modes) {
			d3 = len(kl3.Modes)
		}
		frac := kl3.CapturedVariance(d3)
		solver, err := core.NewSolver(mat, L, cfg.M2D, mom.Options{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		kl1 := surface.NewKL1D(c, L, cfg.M2D)
		d := kl1.TruncationForVariance(frac)
		if d > len(kl1.Modes) {
			d = len(kl1.Modes)
		}
		nodes, err := sscm.Nodes(d, 1)
		if err != nil {
			return nil, err
		}
		y2 := make([]float64, len(fs))
		for i, f := range fs {
			vals := make([]float64, len(nodes))
			for j, xi := range nodes {
				if vals[j], err = solver.LossFactor2D(kl1.Synthesize(xi), f); err != nil {
					return nil, fmt.Errorf("experiments: Fig6 2D SSCM: %w", err)
				}
			}
			r, err := sscm.FromValues(d, 1, vals)
			if err != nil {
				return nil, err
			}
			y2[i] = r.Mean
		}
		res.Series = append(res.Series,
			Series{Label: fmt.Sprintf("3D SWM (η=%gμm)", etaUM), X: freqs, Y: y3},
			Series{Label: fmt.Sprintf("2D SWM (η=%gμm)", etaUM), X: freqs, Y: y2},
		)
	}
	return res, nil
}

// Fig7 regenerates Fig. 7: the CDF of K at 5 GHz (σ = η = 1 μm) from
// Monte-Carlo against the 1st- and 2nd-order SSCM surrogates.
func Fig7(cfg Config) (*Result, error) {
	f := 5 * units.GHz
	c := surface.NewGaussianCorr(1*um, 1*um)
	L := cfg.LOverEta * 1 * um
	mat := core.PaperMaterial()
	solver, err := core.NewSolverTabulated(mat, L, cfg.M, zspanFor(c.Sigma()), mom.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	kl := surface.NewKL(c, L, cfg.M)
	// Monte-Carlo draws excite every retained mode at up to ±3–4σ
	// simultaneously, so the stochastic dimension must be resolution
	// matched: retain only modes whose wavelength spans ≥ 8 grid cells
	// (the SPM2 cross-validation's accuracy threshold). SSCM nodes are
	// tamer, but the comparison must use one common process.
	d := resolutionMatchedDim(kl, cfg.KLDim)

	// Monte-Carlo reference over the same band-limited process.
	eng := &sweepengine.Engine{Solver: solver, Synth: kl.Synthesize, Dim: d, Workers: cfg.Workers}
	mc, err := eng.MonteCarlo(context.Background(), f, cfg.MCSamples, cfg.Seed, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: Fig7 MC: %w", err)
	}

	res := &Result{
		Name:   "fig7",
		Title:  "CDF of Pr/Ps (σ=η=1 μm, f=5 GHz)",
		XLabel: "Pr/Ps",
		YLabel: "F(x)",
	}
	addCDF := func(label string, sample []float64) {
		e := stats.NewECDF(sample)
		lo, hi := e.Support()
		s := Series{Label: label}
		const pts = 41
		for i := 0; i < pts; i++ {
			x := lo + (hi-lo)*float64(i)/float64(pts-1)
			s.X = append(s.X, x)
			s.Y = append(s.Y, e.At(x))
		}
		res.Series = append(res.Series, s)
	}
	addCDF(fmt.Sprintf("MC (%d runs)", cfg.MCSamples), mc.Samples)

	var ks []float64
	for _, order := range []int{1, 2} {
		r, err := sscmAt(solver, kl, d, order, f, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig7 SSCM order %d: %w", order, err)
		}
		sur := r.PCE.Sample(20000, cfg.Seed+uint64(order))
		addCDF(fmt.Sprintf("%d-SSCM (%d pts)", order, r.Points), sur)
		ks = append(ks, stats.KSDistance(stats.NewECDF(mc.Samples), stats.NewECDF(sur)))
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("stochastic dimension d=%d (resolution-matched from %d)", d, cfg.KLDim),
		fmt.Sprintf("MC mean %.4f ± %.4f", mc.Mean, mc.StdErr),
		fmt.Sprintf("KS distance to MC: 1st-SSCM %.4f, 2nd-SSCM %.4f", ks[0], ks[1]),
	)
	return res, nil
}

// resolutionMatchedDim clamps a KL truncation so every retained mode's
// wavelength spans at least 8 grid cells of the solver's mesh.
func resolutionMatchedDim(kl *surface.KL, d int) int {
	if d > len(kl.Modes) {
		d = len(kl.Modes)
	}
	h := kl.L / float64(kl.M)
	kMax := 2 * math.Pi / (8 * h)
	for j := 0; j < d; j++ {
		m := kl.Modes[j]
		k := 2 * math.Pi * math.Hypot(float64(m.Mx), float64(m.My)) / kl.L
		if k > kMax {
			return j
		}
	}
	return d
}

// Table1 regenerates Table I: the number of sampling points each method
// needs (MC vs sparse-grid SSCM) for the two correlation functions.
func Table1(cfg Config) (*Result, error) {
	type row struct {
		cf string
		d  int
	}
	rows := []row{
		{"Gaussian", 16},
		{"CF (12)", 19},
	}
	res := &Result{
		Name:   "table1",
		Title:  "Number of sampling points (MC vs SSCM)",
		XLabel: "row",
		YLabel: "points",
	}
	mcS := Series{Label: "MC"}
	s1 := Series{Label: "1st-SSCM"}
	s2 := Series{Label: "2nd-SSCM"}
	for i, r := range rows {
		mcS.X = append(mcS.X, float64(i+1))
		mcS.Y = append(mcS.Y, 5000)
		s1.X = append(s1.X, float64(i+1))
		s1.Y = append(s1.Y, float64(sscm.GridSize(r.d, 1)))
		s2.X = append(s2.X, float64(i+1))
		s2.Y = append(s2.Y, float64(sscm.GridSize(r.d, 2)))
		res.Notes = append(res.Notes, fmt.Sprintf("row %d: %s CF, KL dimension d=%d", i+1, r.cf, r.d))
	}
	res.Series = []Series{mcS, s1, s2}
	res.Notes = append(res.Notes,
		"paper reports 33/345 (Gaussian) and 39/462 (CF 12); level-1 counts match exactly,",
		"level-2 counts depend on the 1-D rule growth (ours: linear-growth Gauss–Hermite)")
	return res, nil
}

// All runs every exhibit with the given configuration.
func All(cfg Config) ([]*Result, error) {
	type gen struct {
		name string
		fn   func(Config) (*Result, error)
	}
	gens := []gen{
		{"fig2", Fig2}, {"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5},
		{"fig6", Fig6}, {"fig7", Fig7}, {"table1", Table1},
	}
	var out []*Result
	for _, g := range gens {
		r, err := g.fn(cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", g.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Monotone reports whether a series is non-decreasing within tol — used
// by acceptance tests on the regenerated exhibits.
func (s Series) Monotone(tol float64) bool {
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1]-tol {
			return false
		}
	}
	return true
}

// Find returns the series with the given label prefix, or nil.
func (r *Result) Find(prefix string) *Series {
	for i := range r.Series {
		if len(r.Series[i].Label) >= len(prefix) && r.Series[i].Label[:len(prefix)] == prefix {
			return &r.Series[i]
		}
	}
	return nil
}
