package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"roughsim/internal/core"
	"roughsim/internal/surface"
)

// The experiment tests run the Bench configuration: deliberately coarse,
// but every qualitative feature of the paper's exhibits must survive.

func TestFig2SurfaceStatistics(t *testing.T) {
	r, err := Fig2(Bench())
	if err != nil {
		t.Fatal(err)
	}
	emp := r.Find("empirical")
	tgt := r.Find("target")
	if emp == nil || tgt == nil {
		t.Fatal("missing series")
	}
	// Lag-0 value (the variance) within 15% of σ² = 1 μm².
	if d := emp.Y[0] - tgt.Y[0]; d > 0.15 || d < -0.15 {
		t.Fatalf("variance mismatch: emp %g vs target %g", emp.Y[0], tgt.Y[0])
	}
	// Empirical CF decays.
	if emp.Y[len(emp.Y)-1] > 0.5*emp.Y[0] {
		t.Fatalf("empirical CF does not decay: %v", emp.Y)
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-backed experiment")
	}
	r, err := Fig3(Bench())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 7 {
		t.Fatalf("want 7 series (empirical + 3×SWM + 3×SPM2), got %d", len(r.Series))
	}
	for _, s := range r.Series {
		// Every K curve exceeds 1 and grows with frequency.
		for i, y := range s.Y {
			if y < 0.98 {
				t.Errorf("%s: K[%d] = %g < 1", s.Label, i, y)
			}
		}
		if !s.Monotone(0.02) {
			t.Errorf("%s not (approximately) increasing: %v", s.Label, s.Y)
		}
	}
	// Rougher surface (smaller η) loses more at the top frequency: the
	// ordering SWM(η=1) > SWM(η=2) > SWM(η=3) — the paper's headline.
	last := func(lbl string) float64 {
		s := r.Find(lbl)
		if s == nil {
			t.Fatalf("missing %s", lbl)
		}
		return s.Y[len(s.Y)-1]
	}
	k1, k2, k3 := last("SWM (η=1μm)"), last("SWM (η=2μm)"), last("SWM (η=3μm)")
	if !(k1 > k2 && k2 > k3) {
		t.Fatalf("η ordering violated: %g, %g, %g", k1, k2, k3)
	}
	// Smooth case agrees with SPM2 better than the rough case does.
	s1 := last("SPM2 (η=1μm)")
	s3 := last("SPM2 (η=3μm)")
	rough := absf(k1-s1) / (s1 - 1)
	smooth := absf(k3-s3) / (s3 - 1)
	if smooth > rough+0.3 {
		t.Fatalf("SWM/SPM2 agreement should be best for the smoothest case: smooth %g rough %g", smooth, rough)
	}
}

func TestFig4Agreement(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-backed experiment")
	}
	r, err := Fig4(Bench())
	if err != nil {
		t.Fatal(err)
	}
	swm := r.Find("SWM")
	sp := r.Find("SPM2")
	// Under the measurement-extracted CF the two methods agree (the
	// paper's "good agreement" claim). At the bench scale the KL
	// truncation carries only part of CF (12)'s heavy-tailed variance,
	// so compare the truncation-corrected excess: (K−1)/capture must
	// bracket the SPM2 excess within a factor band. Low frequencies are
	// skipped: the excess there is within discretization noise.
	cfg := Bench()
	c := surface.NewMeasuredCorr(1e-6, 1.4e-6, 0.53e-6)
	kl := surface.NewKL(c, cfg.LOverEta*1.4e-6, cfg.M)
	capture := kl.CapturedVariance(cfg.KLDim)
	for i := range swm.Y {
		spEx := sp.Y[i] - 1
		if spEx < 0.15 {
			continue
		}
		corr := (swm.Y[i] - 1) / capture
		if corr < 0.4*spEx || corr > 1.7*spEx {
			t.Errorf("f=%g: corrected SWM excess %g vs SPM2 excess %g (capture %.2f)",
				swm.X[i], corr, spEx, capture)
		}
	}
	// And both curves rise monotonically.
	if !swm.Monotone(0.01) || !sp.Monotone(0.001) {
		t.Errorf("curves not monotone: SWM %v, SPM2 %v", swm.Y, sp.Y)
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-backed experiment")
	}
	r, err := Fig5(Bench())
	if err != nil {
		t.Fatal(err)
	}
	swm := r.Find("SWM")
	hb := r.Find("HBM")
	// Both curves increase with frequency.
	for _, s := range []*Series{swm, hb} {
		if !s.Monotone(0.05) {
			t.Errorf("%s not increasing: %v", s.Label, s.Y)
		}
	}
	// Quantitative agreement with HBM is only meaningful where the grid
	// resolves the skin depth (the paper uses Δ = δ/5 here); at the
	// Bench grid that limits the check to the lower frequencies.
	cfg := Bench()
	h := 10 * um / float64(cfg.MFig5)
	mat := core.PaperMaterial()
	checked := 0
	for i := range swm.Y {
		delta := mat.SkinDepth(swm.X[i] * 1e9)
		if h > delta {
			continue
		}
		ratio := swm.Y[i] / hb.Y[i]
		if ratio < 0.55 || ratio > 1.7 {
			t.Errorf("f=%g: SWM/HBM = %g", swm.X[i], ratio)
		}
		checked++
	}
	if checked == 0 {
		// All points under-resolved: at least demand a rising SWM curve
		// clearly above 1.
		if swm.Y[len(swm.Y)-1] < 1.2 {
			t.Errorf("SWM shows no boss enhancement: %v", swm.Y)
		}
	}
}

func TestFig6ThreeDExceedsTwoD(t *testing.T) {
	if testing.Short() {
		t.Skip("solver-backed experiment")
	}
	r, err := Fig6(Bench())
	if err != nil {
		t.Fatal(err)
	}
	for _, eta := range []string{"η=1μm", "η=2μm"} {
		s3 := r.Find("3D SWM (" + eta)
		s2 := r.Find("2D SWM (" + eta)
		if s3 == nil || s2 == nil {
			t.Fatalf("missing series for %s", eta)
		}
		// The 3D loss enhancement exceeds the 2D one (the paper's Fig. 6
		// message), at least at the higher frequencies.
		n := len(s3.Y)
		for i := n / 2; i < n; i++ {
			if s3.Y[i] <= s2.Y[i] {
				t.Errorf("%s f=%g: 3D K %g ≤ 2D K %g", eta, s3.X[i], s3.Y[i], s2.Y[i])
			}
		}
	}
}

// TestFig7SSCMMatchesMC checks that the 2nd-order SSCM surrogate's
// distribution of K agrees with Monte Carlo: their Kolmogorov–Smirnov
// distance stays under the 1 % critical value for the MC sample size
// (the surrogate is sampled 20,000 times, so the two-sample value is
// the one-sample 1.63/√n). The 1st-order surrogate is nearly
// deterministic and is not held to it. The short form runs a coarser
// grid with more MC samples.
func TestFig7SSCMMatchesMC(t *testing.T) {
	cfg := Bench()
	if testing.Short() {
		cfg = Config{M: 8, LOverEta: 4, KLDim: 8, MCSamples: 100, Seed: 7}
	}
	r, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("want 3 CDFs, got %d", len(r.Series))
	}
	// All CDFs are monotone from ~0 to ~1.
	for _, s := range r.Series {
		if !s.Monotone(1e-9) {
			t.Errorf("%s CDF not monotone", s.Label)
		}
		if s.Y[0] > 0.2 || s.Y[len(s.Y)-1] < 0.95 {
			t.Errorf("%s CDF range [%g, %g]", s.Label, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
	var ks1, ks2 float64
	found := false
	for _, n := range r.Notes {
		if _, err := fmt.Sscanf(n, "KS distance to MC: 1st-SSCM %g, 2nd-SSCM %g", &ks1, &ks2); err == nil {
			found = true
		}
	}
	if !found {
		t.Fatal("missing KS note")
	}
	crit := 1.63 / math.Sqrt(float64(cfg.MCSamples))
	t.Logf("KS distance to MC (%d runs): 1st-SSCM %.4f, 2nd-SSCM %.4f; 1%% critical value %.4f", cfg.MCSamples, ks1, ks2, crit)
	if ks2 > crit {
		t.Errorf("2nd-SSCM KS distance to MC %.4f exceeds the 1%% critical value %.4f", ks2, crit)
	}
}

func TestTable1Counts(t *testing.T) {
	r, err := Table1(Default())
	if err != nil {
		t.Fatal(err)
	}
	s1 := r.Find("1st-SSCM")
	if s1.Y[0] != 33 || s1.Y[1] != 39 {
		t.Fatalf("1st-SSCM counts %v, want [33 39] (paper Table I)", s1.Y)
	}
	s2 := r.Find("2nd-SSCM")
	mc := r.Find("MC")
	for i := range s2.Y {
		if s2.Y[i] >= mc.Y[i]/5 {
			t.Errorf("2nd-SSCM %g not ≪ MC %g", s2.Y[i], mc.Y[i])
		}
	}
}

func TestResultWriters(t *testing.T) {
	r := &Result{
		Name: "t", Title: "T", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{5, 6}},
		},
		Notes: []string{"n1"},
	}
	var csv, tbl bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "x,a,b") || !strings.Contains(csv.String(), "1,3,5") {
		t.Fatalf("CSV malformed:\n%s", csv.String())
	}
	if !strings.Contains(tbl.String(), "n1") {
		t.Fatalf("table missing note:\n%s", tbl.String())
	}
	// Mismatched grids fall back to long format.
	r.Series[1].X = []float64{9}
	r.Series[1].Y = []float64{9}
	csv.Reset()
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "9,b,9") {
		t.Fatalf("long CSV malformed:\n%s", csv.String())
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
