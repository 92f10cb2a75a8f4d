package experiments

import (
	"math"

	"roughsim/internal/hbm"
)

// This file is the hemispherical boss model (HBM) column of campaign
// artifacts: every campaign CSV row carries, next to the SWM K(f) and
// the SPM2 and empirical K its sweep point stores, the HBM baseline of
// the paper's validity study, evaluated for the row's surface process.

// CompareCell describes one campaign cell (a conductor and a surface
// process) for the HBM baseline.
type CompareCell struct {
	Rho float64 // conductor resistivity (Ω·m)

	Sigma float64 // RMS height (m); 0 selects the flat limit (K ≡ 1)
	Eta   float64 // correlation length (m); ηx when EtaY > 0
	EtaY  float64 // transverse correlation length; > 0 = anisotropic
}

// BossRadius maps the random process onto the hemispherical boss
// baseline: one boss per (2η)×(2ηy) correlation tile, its radius chosen
// so the boss's mean-square height over the tile equals the process
// variance σ² (a hemisphere of radius a contributes ⟨h²⟩ = πa⁴/(2A)
// over tile area A, so a = (2σ²A/π)^¼).
func (c CompareCell) BossRadius() float64 {
	if !(c.Sigma > 0) {
		return 0
	}
	return math.Pow(2*c.Sigma*c.Sigma*c.TileArea()/math.Pi, 0.25)
}

// TileArea is the correlation tile (2η)×(2ηy) the boss sits on (ηy = η
// for isotropic processes).
func (c CompareCell) TileArea() float64 {
	etaY := c.EtaY
	if etaY <= 0 {
		etaY = c.Eta
	}
	return 4 * c.Eta * etaY
}

// HBM evaluates the hemispherical boss model at frequency f. A flat
// cell (σ = 0) is exactly lossless-excess: K = 1.
func (c CompareCell) HBM(f float64) float64 {
	if !(c.Sigma > 0) {
		return 1
	}
	return hbm.Model{Radius: c.BossRadius(), Tile: c.TileArea(), Rho: c.Rho}.LossFactor(f)
}
