package experiments

import (
	"math"
	"testing"

	"roughsim/internal/core"
	"roughsim/internal/hbm"
)

// The campaign HBM column must be the number the baseline package
// produces when called directly — no drift between a campaign CSV and
// the corresponding paper exhibit.
func TestBaselinesAgreeWithDirectCalls(t *testing.T) {
	const (
		sigma = 0.4 * um
		eta   = 1.0 * um
		f     = 5e9
	)
	mat := core.PaperMaterial()
	cell := CompareCell{Rho: mat.Rho, Sigma: sigma, Eta: eta}
	got := cell.HBM(f)

	tile := 4 * eta * eta
	a := math.Pow(2*sigma*sigma*tile/math.Pi, 0.25)
	wantHBM := hbm.Model{Radius: a, Tile: tile, Rho: mat.Rho}.LossFactor(f)
	if got != wantHBM {
		t.Errorf("HBM = %v, direct call = %v", got, wantHBM)
	}
	if !(got > 0) || math.IsInf(got, 0) {
		t.Errorf("HBM = %v, want finite and positive", got)
	}
	// In the strong-skin-effect regime (δ ≪ a) the boss dissipates more
	// than the flat disc it replaces, so K must exceed 1 there. (At 5 GHz
	// δ ≈ a and the Hall model legitimately dips below 1.)
	if k := cell.HBM(100e9); k <= 1 {
		t.Errorf("HBM(100 GHz) = %v, want > 1 in the PEC limit", k)
	}
}

// An anisotropic cell's boss sits on a (2ηx)×(2ηy) tile.
func TestBaselinesAnisoMatchesSPM2Aniso(t *testing.T) {
	const (
		sigma = 0.3 * um
		etaX  = 1.0 * um
		etaY  = 2.0 * um
		f     = 4e9
	)
	mat := core.PaperMaterial()
	cell := CompareCell{Rho: mat.Rho, Sigma: sigma, Eta: etaX, EtaY: etaY}
	tile := 4 * etaX * etaY
	if cell.TileArea() != tile {
		t.Errorf("tile = %v, want %v", cell.TileArea(), tile)
	}
	a := math.Pow(2*sigma*sigma*tile/math.Pi, 0.25)
	if got, want := cell.HBM(f), (hbm.Model{Radius: a, Tile: tile, Rho: mat.Rho}).LossFactor(f); got != want {
		t.Errorf("aniso HBM = %v, direct call = %v", got, want)
	}
}

// A flat-surface campaign row reports K ≡ 1 for the HBM.
func TestBaselinesFlatSurfaceIsUnity(t *testing.T) {
	mat := core.PaperMaterial()
	cell := CompareCell{Rho: mat.Rho, Sigma: 0, Eta: 1 * um}
	for _, f := range []float64{1e9, 5e9, 9e9} {
		if got := cell.HBM(f); got != 1 {
			t.Errorf("flat cell at %g Hz: HBM = %v, want K ≡ 1", f, got)
		}
	}
	if cell.BossRadius() != 0 {
		t.Errorf("flat boss radius = %v, want 0", cell.BossRadius())
	}
}
