package roughsim

import (
	"strings"
	"testing"
)

func gridCampaign() CampaignConfig {
	return CampaignConfig{
		Grid: CampaignGrid{
			Sigmas: Axis{Values: []float64{0.2e-6, 0.4e-6}},
			Etas:   Axis{Min: 1e-6, Max: 2e-6, Step: 1e-6},
		},
		Band: &BandSpec{FMinHz: 1e9, FMaxHz: 9e9, Points: 4},
	}
}

func TestCampaignExpansionDeterministic(t *testing.T) {
	cfg := gridCampaign()
	a, err := cfg.ExpandCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 {
		t.Fatalf("2x2 grid expanded to %d cells", len(a))
	}
	b, _ := cfg.ExpandCells()
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("expansion is not deterministic at cell %d", i)
		}
	}
	// Fixed row-major order: σ varies slowest of the two set axes.
	if a[0].Spec.Sigma != 0.2e-6 || a[0].Spec.Eta != 1e-6 {
		t.Fatalf("cell 0 = %+v, want σ=0.2μm η=1μm", a[0].Spec)
	}
	if a[1].Spec.Eta != 2e-6 {
		t.Fatalf("cell 1 = %+v, want η=2μm", a[1].Spec)
	}
	if len(a[0].Freqs) != 4 || a[0].Freqs[0] != 1e9 || a[0].Freqs[3] != 9e9 {
		t.Fatalf("band materialized as %v", a[0].Freqs)
	}
}

func TestCampaignIDSensitivity(t *testing.T) {
	base, err := gridCampaign().ID()
	if err != nil {
		t.Fatal(err)
	}
	same, _ := gridCampaign().ID()
	if base != same {
		t.Fatal("identical campaigns must share an ID")
	}
	mutations := map[string]func(*CampaignConfig){
		"sigma value": func(c *CampaignConfig) { c.Grid.Sigmas.Values[0] = 0.3e-6 },
		"band points": func(c *CampaignConfig) { c.Band.Points = 5 },
		"accuracy":    func(c *CampaignConfig) { c.Acc.GridPerSide = 8 },
		"fail policy": func(c *CampaignConfig) { c.MaxFailFrac = 0.5 },
		"extra cell": func(c *CampaignConfig) {
			c.Cells = append(c.Cells, SurfaceSpec{Corr: GaussianCF, Sigma: 0.4e-6, Eta: 1e-6})
		},
	}
	for name, mutate := range mutations {
		cfg := gridCampaign()
		mutate(&cfg)
		id, err := cfg.ID()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if id == base {
			t.Errorf("%s: mutation did not change the campaign ID", name)
		}
	}
}

func TestCampaignExplicitCellsAndFlat(t *testing.T) {
	cfg := CampaignConfig{
		Cells: []SurfaceSpec{
			{Corr: GaussianCF, Sigma: 0, Eta: 1e-6}, // flat reference
			{Corr: GaussianCF, Sigma: 0.4e-6, Eta: 1e-6},
		},
		Freqs: []float64{1e9, 5e9},
	}
	cells, err := cfg.ExpandCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded to %d cells, want 2", len(cells))
	}
	if cells[0].Spec.Sigma != 0 {
		t.Fatal("flat cell lost")
	}
	if cells[0].Stack != CopperSiO2() {
		t.Fatalf("default stack not applied: %+v", cells[0].Stack)
	}
}

// Validation errors must name the offending request field — the API
// surfaces them verbatim as 400 bodies.
func TestCampaignValidationNamesField(t *testing.T) {
	cases := []struct {
		name  string
		cfg   CampaignConfig
		field string
	}{
		{"reversed band", CampaignConfig{
			Cells: []SurfaceSpec{{Corr: GaussianCF, Sigma: 0.4e-6, Eta: 1e-6}},
			Band:  &BandSpec{FMinHz: 9e9, FMaxHz: 1e9},
		}, "fmax_hz (1e+09) < fmin_hz (9e+09)"},
		{"non-positive step", CampaignConfig{
			Grid: CampaignGrid{
				Sigmas: Axis{Min: 1e-7, Max: 5e-7},
				Etas:   Axis{Values: []float64{1e-6}},
			},
			Freqs: []float64{1e9},
		}, "grid.sigmas: grid step must be > 0"},
		{"values and range", CampaignConfig{
			Grid: CampaignGrid{
				Sigmas: Axis{Values: []float64{1e-7}, Step: 1e-7},
				Etas:   Axis{Values: []float64{1e-6}},
			},
			Freqs: []float64{1e9},
		}, "grid.sigmas: give either values or min/max/step"},
		{"negative sigma cell", CampaignConfig{
			Cells: []SurfaceSpec{{Corr: GaussianCF, Sigma: -1e-7, Eta: 1e-6}},
			Freqs: []float64{1e9},
		}, "cells[0].sigma"},
		{"measured without eta2", CampaignConfig{
			Cells: []SurfaceSpec{{Corr: MeasuredCF, Sigma: 1e-7, Eta: 1e-6}},
			Freqs: []float64{1e9},
		}, "cells[0].eta2"},
		{"aniso non-gaussian", CampaignConfig{
			Cells: []SurfaceSpec{{Corr: ExponentialCF, Sigma: 1e-7, Eta: 1e-6, EtaY: 2e-6}},
			Freqs: []float64{1e9},
		}, "cells[0].eta_y"},
		{"no cells", CampaignConfig{Freqs: []float64{1e9}}, "grid: campaign has no cells"},
		{"both freq sources", CampaignConfig{
			Cells: []SurfaceSpec{{Corr: GaussianCF, Sigma: 1e-7, Eta: 1e-6}},
			Freqs: []float64{1e9},
			Band:  &BandSpec{FMinHz: 1e9, FMaxHz: 2e9},
		}, "freqs_hz: give either freqs_hz or band"},
		{"band larger than any body", CampaignConfig{
			Cells: []SurfaceSpec{{Corr: GaussianCF, Sigma: 1e-7, Eta: 1e-6}},
			Band:  &BandSpec{FMinHz: 1e9, FMaxHz: 2e9, Points: 1e11},
		}, "band: points must be in [1, 10000]"},
		{"grid larger than any body", CampaignConfig{
			Grid: CampaignGrid{
				Sigmas: Axis{Min: 1e-7, Max: 1, Step: 1e-4},
				Etas:   Axis{Min: 1e-6, Max: 1, Step: 1e-4},
			},
			Freqs: []float64{1e9},
		}, "grid: expands to more than 100000 cells"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("want a validation error")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %q", err, tc.field)
			}
		})
	}
}

func TestCampaignGridCFKinds(t *testing.T) {
	cfg := CampaignConfig{
		Grid: CampaignGrid{
			Sigmas: Axis{Values: []float64{0.4e-6}},
			Etas:   Axis{Values: []float64{1e-6}},
			Eta2s:  Axis{Values: []float64{0.5e-6}},
			EtaYs:  Axis{Values: []float64{2e-6}},
			CFs:    []CFKind{GaussianCF, ExponentialCF, MeasuredCF},
		},
		Freqs: []float64{1e9},
	}
	cells, err := cfg.ExpandCells()
	if err != nil {
		t.Fatal(err)
	}
	// gaussian crosses ηy (1 value), exp ignores η₂ and ηy, measured
	// crosses η₂ (1 value): 3 cells total.
	if len(cells) != 3 {
		t.Fatalf("expanded to %d cells, want 3", len(cells))
	}
	if cells[0].Spec.EtaY != 2e-6 || cells[0].Spec.Eta2 != 0 {
		t.Fatalf("gaussian cell = %+v", cells[0].Spec)
	}
	if cells[1].Spec.EtaY != 0 || cells[1].Spec.Eta2 != 0 {
		t.Fatalf("exp cell = %+v", cells[1].Spec)
	}
	if cells[2].Spec.Eta2 != 0.5e-6 || cells[2].Spec.EtaY != 0 {
		t.Fatalf("measured cell = %+v", cells[2].Spec)
	}
}
