package campaign

import (
	"bufio"
	"io"
	"math"
	"strconv"

	"roughsim"
	"roughsim/internal/experiments"
)

// This file is the one CSV encoder behind both export paths: campaign
// artifacts (GET /v1/campaigns/{id}/result?format=csv) and single-sweep
// results (roughsim -csv). One row per (cell, frequency), carrying the
// SWM K next to the SPM2/HBM/empirical comparison columns: SPM2 and the
// empirical K as every SweepPoint stores them, the HBM K evaluated
// through internal/experiments.
//
// The encoding is deterministic: fixed column order, shortest-roundtrip
// float formatting, no status or timing columns — so the artifact of a
// crash-resumed campaign is byte-identical to the uninterrupted run's.

// Artifact is the combined campaign result: every cell's spec and
// points under the campaign's terminal status.
type Artifact struct {
	ID      string       `json:"id"`
	Status  Status       `json:"status"`
	Error   string       `json:"error,omitempty"`
	FreqsHz []float64    `json:"freqs_hz"`
	Cells   []CellResult `json:"cells"`
}

// CellResult is one cell's contribution to the artifact.
type CellResult struct {
	Index      int                   `json:"index"`
	Stack      roughsim.Stack        `json:"stack"`
	Spec       roughsim.SurfaceSpec  `json:"surface"`
	Status     CellStatus            `json:"status"`
	Duplicates int                   `json:"duplicates,omitempty"`
	Error      string                `json:"error,omitempty"`
	Kind       string                `json:"kind,omitempty"`
	Points     []roughsim.SweepPoint `json:"points,omitempty"`
}

// Artifact snapshots the campaign's combined result. Valid at any time;
// cells not yet finished simply carry no points.
func (c *Campaign) Artifact() *Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	art := &Artifact{
		ID: c.ID, Status: c.status, Error: c.errMsg,
		FreqsHz: append([]float64(nil), c.freqs...),
	}
	for i, pc := range c.cells {
		cs := c.states[i]
		cr := CellResult{
			Index: i, Stack: pc.cfg.Stack, Spec: pc.cfg.Spec,
			Status: cs.Status, Duplicates: cs.Duplicates,
			Error: cs.Error, Kind: cs.Kind,
		}
		if res := c.results[i]; res != nil {
			cr.Points = res.Points
		}
		art.Cells = append(art.Cells, cr)
	}
	return art
}

// FromSweep wraps a single sweep result as a one-cell artifact so the
// CLI's -csv flag shares this encoder.
func FromSweep(res *roughsim.SweepResult) *Artifact {
	if res == nil {
		return &Artifact{Status: StatusSucceeded}
	}
	freqs := make([]float64, len(res.Points))
	for i, p := range res.Points {
		freqs[i] = p.FreqHz
	}
	return &Artifact{
		Status:  StatusSucceeded,
		FreqsHz: freqs,
		Cells: []CellResult{{
			Stack: res.Config.Stack, Spec: res.Config.Spec,
			Status: CellDone, Points: res.Points,
		}},
	}
}

// csvHeader is the fixed column order of every export.
const csvHeader = "cell,cf,sigma_m,eta_m,eta2_m,eta_y_m,rho_ohm_m,eps_r," +
	"freq_hz,skin_depth_m,k_swm,k_spm2,k_hbm,k_empirical"

// WriteCSV streams the artifact as CSV: one row per (cell, frequency).
// Cells without points (failed, canceled, still pending) are skipped —
// the artifact's JSON form carries their error records.
func (a *Artifact) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(csvHeader)
	bw.WriteByte('\n')
	for _, cr := range a.Cells {
		if len(cr.Points) == 0 {
			continue
		}
		cmp := experiments.CompareCell{
			Rho: cr.Stack.Rho, Sigma: cr.Spec.Sigma, Eta: cr.Spec.Eta, EtaY: cr.Spec.EtaY,
		}
		for _, p := range cr.Points {
			row := []string{
				strconv.Itoa(cr.Index),
				cr.Spec.Corr.String(),
				num(cr.Spec.Sigma), num(cr.Spec.Eta), num(cr.Spec.Eta2), num(cr.Spec.EtaY),
				num(cr.Stack.Rho), num(cr.Stack.EpsR),
				num(p.FreqHz), num(p.SkinDepthM),
				num(p.KSWM), num(p.KSPM2), num(cmp.HBM(p.FreqHz)), num(p.KEmpirical),
			}
			for i, f := range row {
				if i > 0 {
					bw.WriteByte(',')
				}
				bw.WriteString(f)
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// num formats a float with shortest-roundtrip precision; non-finite
// values (e.g. an out-of-domain empirical baseline) yield an empty
// field.
func num(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
