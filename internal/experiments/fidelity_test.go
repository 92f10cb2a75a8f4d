package experiments

import (
	"math"
	"testing"
)

// fidelityConfig is the reduced resolution the fidelity gate pins: every
// exhibit's solver path at the smallest grids and stochastic dimension
// that still exercise it, with each frequency list cut to its two ends.
func fidelityConfig() Config {
	return Config{
		M: 8, LOverEta: 4, KLDim: 4, MCSamples: 12,
		M2D: 24, MFig5: 16, FreqStride: 100, Seed: 7,
	}
}

// fidelityTol bounds the relative drift of a pinned K. Every solve is
// verified to a 1e-8 relative residual; K is a ratio of two absorbed
// powers, each of which a residual r perturbs by at most about κ·r. The
// systems here have κ well below 10², so 1e-6 admits any change that
// keeps the solves converged and rejects any change to the
// discretization itself.
const fidelityTol = 1e-6

// fidelityK holds the pinned values at fidelityConfig, keyed by exhibit
// and series label. Figs. 3–6 pin every plotted K; Fig. 7 pins the
// support (smallest and largest K) of each CDF.
var fidelityK = map[string][]float64{
	"fig3/Empirical":       {1.1044007413166876, 1.7937967871391467},
	"fig3/SWM (η=1μm)":     {1.1509516747792912, 1.335127427872044},
	"fig3/SPM2 (η=1μm)":    {1.1734926745684746, 2.1848256450345054},
	"fig3/SWM (η=2μm)":     {1.0547390188186234, 1.07803093980608},
	"fig3/SPM2 (η=2μm)":    {1.127182493025, 1.4332754866741924},
	"fig3/SWM (η=3μm)":     {1.032781575318984, 1.03171820114455},
	"fig3/SPM2 (η=3μm)":    {1.0939864483743205, 1.209301209967124},
	"fig4/SWM":             {1.039724776337059, 1.1329802459850629},
	"fig4/SPM2":            {1.0377496741260066, 1.964681952975758},
	"fig5/SWM":             {1.460987746154743, 1.3775288905475713},
	"fig5/HBM":             {1.5910458713987177, 2.3783312269877026},
	"fig6/3D SWM (η=1μm)":  {1.1509516747792912, 1.335127427872044},
	"fig6/2D SWM (η=1μm)":  {1.0561581928854076, 1.2078504217609847},
	"fig6/3D SWM (η=2μm)":  {1.0547390188186234, 1.07803093980608},
	"fig6/2D SWM (η=2μm)":  {1.0321816902568546, 1.0632812477445244},
	"fig7/MC (12 runs)":    {1.027870888977476, 3.01267217525413},
	"fig7/1-SSCM (9 pts)":  {1.322558455693701, 1.322558455885976},
	"fig7/2-SSCM (49 pts)": {0.9124144491813733, 3.9126075465326515},
}

// TestPaperFidelity is the fast paper-fidelity gate: reduced-resolution
// K values of Figs. 3–7 and the Table I sampling counts, so a change to
// how K is computed is caught in seconds rather than by the full
// exhibit suite.
func TestPaperFidelity(t *testing.T) {
	cfg := fidelityConfig()
	seen := 0
	for _, ex := range []struct {
		name string
		fn   func(Config) (*Result, error)
	}{{"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5}, {"fig6", Fig6}, {"fig7", Fig7}} {
		r, err := ex.fn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range r.Series {
			key := ex.name + "/" + s.Label
			got := s.Y
			if ex.name == "fig7" {
				got = []float64{s.X[0], s.X[len(s.X)-1]}
			}
			want, ok := fidelityK[key]
			if !ok || len(want) != len(got) {
				t.Errorf("%s: %v has no pinned counterpart %v", key, got, want)
				continue
			}
			seen++
			for i := range got {
				if d := math.Abs(got[i]-want[i]) / want[i]; d > fidelityTol {
					t.Errorf("%s[%d] = %.17g, pinned %.17g (rel %.2g)", key, i, got[i], want[i], d)
				}
			}
		}
	}
	if seen != len(fidelityK) {
		t.Errorf("matched %d of %d pinned series", seen, len(fidelityK))
	}

	r, err := Table1(Default())
	if err != nil {
		t.Fatal(err)
	}
	for label, want := range map[string][2]float64{
		"MC": {5000, 5000}, "1st-SSCM": {33, 39}, "2nd-SSCM": {577, 799},
	} {
		if s := r.Find(label); s == nil || s.Y[0] != want[0] || s.Y[1] != want[1] {
			t.Errorf("Table I %s counts %v, want %v", label, s, want)
		}
	}
}
