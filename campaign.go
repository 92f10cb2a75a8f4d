package roughsim

import (
	"fmt"
	"math"

	"roughsim/internal/rescache"
	"roughsim/internal/resilience"
)

// This file defines the campaign schema: a parameter study over the
// surface process — a grid (or explicit list) of cells, each one full
// K(f) sweep — expanded deterministically into SweepConfigs and
// content-addressed as a whole, so a campaign's identity is a pure
// function of the work it describes. The roughsimd campaign engine
// (internal/campaign) consumes the expansion; this file owns the wire
// schema, the validation vocabulary (errors name the offending request
// field) and the key.

// Axis is one grid dimension of a campaign: either an explicit value
// list or an inclusive [Min, Max] range walked in Step increments.
// A zero Axis is unset.
type Axis struct {
	Values []float64 `json:"values,omitempty"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
	Step   float64   `json:"step,omitempty"`
}

// maxAxisValues bounds one axis expansion and the points of a band;
// maxCells bounds the expanded cell list. Both keep a request from
// materializing more than the 1 MiB body could spell out; the service
// enforces lower limits once the expansion exists.
const (
	maxAxisValues = 10000
	maxCells      = 100000
)

func (a Axis) isSet() bool {
	return len(a.Values) > 0 || a.Min != 0 || a.Max != 0 || a.Step != 0
}

// expand materializes the axis values; field names the axis in errors.
func (a Axis) expand(field string) ([]float64, error) {
	hasRange := a.Min != 0 || a.Max != 0 || a.Step != 0
	if len(a.Values) > 0 {
		if hasRange {
			return nil, campErrf(field, "give either values or min/max/step, not both")
		}
		for i, v := range a.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, campErrf(field, "values[%d] is not finite", i)
			}
		}
		return a.Values, nil
	}
	if !hasRange {
		return nil, nil
	}
	if !(a.Step > 0) {
		return nil, campErrf(field, "grid step must be > 0 (got %g)", a.Step)
	}
	if a.Max < a.Min {
		return nil, campErrf(field, "max %g < min %g", a.Max, a.Min)
	}
	n := int((a.Max-a.Min)/a.Step+1e-9) + 1
	if n > maxAxisValues {
		return nil, campErrf(field, "%d values exceed the %d-per-axis limit", n, maxAxisValues)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = a.Min + float64(i)*a.Step
	}
	return out, nil
}

// BandSpec is a frequency band materialized as Points equally spaced
// frequencies over [FMinHz, FMaxHz] (default 8 points).
type BandSpec struct {
	FMinHz float64 `json:"fmin_hz"`
	FMaxHz float64 `json:"fmax_hz"`
	Points int     `json:"points,omitempty"`
}

// CampaignGrid is the cartesian part of a campaign: the surface-process
// axes crossed with the correlation-function kinds. Eta2s applies only
// to MeasuredCF cells and EtaYs only to GaussianCF cells; other kinds
// walk those axes once at their zero value.
type CampaignGrid struct {
	Sigmas Axis     `json:"sigmas"`        // RMS height σ (m); 0 is a flat reference cell
	Etas   Axis     `json:"etas"`          // correlation length η (m)
	Eta2s  Axis     `json:"eta2s"`         // second correlation length (MeasuredCF)
	EtaYs  Axis     `json:"eta_ys"`        // transverse η for anisotropic Gaussian cells
	Rhos   Axis     `json:"rhos"`          // conductor resistivity (Ω·m); default the stack's
	CFs    []CFKind `json:"cfs,omitempty"` // correlation families (default [gaussian])
}

func (g CampaignGrid) isSet() bool {
	return g.Sigmas.isSet() || g.Etas.isSet() || g.Eta2s.isSet() ||
		g.EtaYs.isSet() || g.Rhos.isSet() || len(g.CFs) > 0
}

// CampaignConfig is the request body of POST /v1/campaigns: a batch
// parameter study over (σ, η₁, η₂, ρ, CF kind, anisotropy) at a shared
// frequency band. Cells come from the grid product, an explicit list,
// or both; every cell runs the same Stack (modulo the Rhos axis),
// Accuracy and frequencies.
type CampaignConfig struct {
	Stack Stack        `json:"stack"`
	Acc   Accuracy     `json:"accuracy"`
	Grid  CampaignGrid `json:"grid"`
	// Cells are explicit surface processes appended after the grid
	// expansion (duplicates are folded by the planner, not rejected).
	Cells []SurfaceSpec `json:"cells,omitempty"`
	// Freqs or Band selects the shared frequency list (exactly one).
	Freqs []float64 `json:"freqs_hz,omitempty"`
	Band  *BandSpec `json:"band,omitempty"`
	// MaxFailFrac tolerates up to this fraction of failed cells before
	// the whole campaign is marked failed (0 = any failure fails it).
	MaxFailFrac float64 `json:"max_fail_frac,omitempty"`
}

// campErrf builds a validation error that names the offending request
// field — the campaign/sweep decode paths surface it verbatim as a 400.
func campErrf(field, format string, args ...any) error {
	return resilience.Errorf(resilience.KindInvalidInput, "roughsim.CampaignConfig",
		"%s: %s", field, fmt.Sprintf(format, args...))
}

// WithDefaults fills the zero-valued parts: the paper's stack, the
// simulation accuracy defaults, gaussian as the only CF family, and an
// 8-point band.
func (c CampaignConfig) WithDefaults() CampaignConfig {
	if c.Stack == (Stack{}) {
		c.Stack = CopperSiO2()
	}
	c.Acc = c.Acc.withDefaults()
	if c.Grid.isSet() && len(c.Grid.CFs) == 0 {
		c.Grid.CFs = []CFKind{GaussianCF}
	}
	if c.Band != nil && c.Band.Points == 0 {
		b := *c.Band
		b.Points = 8
		c.Band = &b
	}
	return c
}

// Frequencies materializes the campaign's shared frequency list from
// Freqs or Band.
func (c CampaignConfig) Frequencies() ([]float64, error) {
	if len(c.Freqs) > 0 && c.Band != nil {
		return nil, campErrf("freqs_hz", "give either freqs_hz or band, not both")
	}
	if len(c.Freqs) > 0 {
		for i, f := range c.Freqs {
			if !(f > 0) || f != f || f > 1e15 {
				return nil, campErrf("freqs_hz", "frequency %d out of domain: %g Hz", i, f)
			}
		}
		return c.Freqs, nil
	}
	if c.Band == nil {
		return nil, campErrf("freqs_hz", "campaign needs freqs_hz or band")
	}
	b := *c.Band
	if b.Points == 0 {
		b.Points = 8
	}
	if b.Points < 1 || b.Points > maxAxisValues {
		return nil, campErrf("band", "points must be in [1, %d] (got %d)", maxAxisValues, b.Points)
	}
	if !(b.FMinHz > 0) || b.FMinHz != b.FMinHz || b.FMinHz > 1e15 {
		return nil, campErrf("band", "fmin_hz out of domain: %g Hz", b.FMinHz)
	}
	if b.FMaxHz < b.FMinHz {
		return nil, campErrf("band", "fmax_hz (%g) < fmin_hz (%g)", b.FMaxHz, b.FMinHz)
	}
	if b.FMaxHz > 1e15 {
		return nil, campErrf("band", "fmax_hz out of domain: %g Hz", b.FMaxHz)
	}
	if b.Points == 1 {
		return []float64{b.FMinHz}, nil
	}
	out := make([]float64, b.Points)
	for i := range out {
		out[i] = b.FMinHz + (b.FMaxHz-b.FMinHz)*float64(i)/float64(b.Points-1)
	}
	return out, nil
}

// validateCellSpec checks one surface process; field prefixes errors.
func validateCellSpec(field string, sp SurfaceSpec) error {
	if math.IsNaN(sp.Sigma) || math.IsInf(sp.Sigma, 0) || sp.Sigma < 0 {
		return campErrf(field+".sigma", "RMS height must be >= 0 and finite (got %g)", sp.Sigma)
	}
	if sp.Sigma == 0 {
		// A flat reference cell: K ≡ 1 analytically, no solver run, so
		// the remaining process parameters are irrelevant.
		return nil
	}
	if !(sp.Eta > 0) || math.IsInf(sp.Eta, 0) {
		return campErrf(field+".eta", "correlation length must be > 0 (got %g)", sp.Eta)
	}
	if sp.EtaY != 0 {
		if sp.Corr != GaussianCF {
			return campErrf(field+".eta_y", "anisotropy needs cf \"gaussian\" (got %q)", sp.Corr.String())
		}
		if !(sp.EtaY > 0) || math.IsInf(sp.EtaY, 0) {
			return campErrf(field+".eta_y", "transverse correlation length must be > 0 (got %g)", sp.EtaY)
		}
	}
	switch sp.Corr {
	case MeasuredCF:
		if !(sp.Eta2 > 0) || math.IsInf(sp.Eta2, 0) {
			return campErrf(field+".eta2", "cf \"measured\" needs eta2 > 0 (got %g)", sp.Eta2)
		}
	case GaussianCF, ExponentialCF:
		if sp.Eta2 != 0 {
			return campErrf(field+".eta2", "eta2 applies only to cf \"measured\"")
		}
	default:
		return campErrf(field+".cf", "unknown correlation function %d", int(sp.Corr))
	}
	return nil
}

// ExpandCells validates the campaign and expands it into its ordered
// cell list: the grid product first (CF kinds × ρ × σ × η × η₂ × ηy,
// row-major in that fixed order), then the explicit Cells. The order is
// deterministic — it defines cell indices in every campaign artifact —
// and duplicates are preserved (the planner folds them).
func (c CampaignConfig) ExpandCells() ([]SweepConfig, error) {
	c = c.WithDefaults()
	freqs, err := c.Frequencies()
	if err != nil {
		return nil, err
	}
	var out []SweepConfig
	if c.Grid.isSet() {
		sigmas, err := c.Grid.Sigmas.expand("grid.sigmas")
		if err != nil {
			return nil, err
		}
		etas, err := c.Grid.Etas.expand("grid.etas")
		if err != nil {
			return nil, err
		}
		eta2s, err := c.Grid.Eta2s.expand("grid.eta2s")
		if err != nil {
			return nil, err
		}
		etaYs, err := c.Grid.EtaYs.expand("grid.eta_ys")
		if err != nil {
			return nil, err
		}
		rhos, err := c.Grid.Rhos.expand("grid.rhos")
		if err != nil {
			return nil, err
		}
		if len(sigmas) == 0 {
			return nil, campErrf("grid.sigmas", "required when grid axes are set")
		}
		if len(etas) == 0 {
			return nil, campErrf("grid.etas", "required when grid axes are set")
		}
		if len(rhos) == 0 {
			rhos = []float64{c.Stack.Rho}
		}
		for _, kind := range c.Grid.CFs {
			if _, ok := cfNames[kind]; !ok {
				return nil, campErrf("grid.cfs", "unknown correlation function %d", int(kind))
			}
			// Axes a CF family cannot use are walked once at zero, not
			// crossed — a gaussian cell has no η₂, an exp cell no ηy.
			e2s := []float64{0}
			if kind == MeasuredCF {
				if len(eta2s) == 0 {
					return nil, campErrf("grid.eta2s", "required for cf \"measured\"")
				}
				e2s = eta2s
			}
			eYs := []float64{0}
			if kind == GaussianCF && len(etaYs) > 0 {
				eYs = etaYs
			}
			for _, rho := range rhos {
				if !(rho > 0) || math.IsInf(rho, 0) {
					return nil, campErrf("grid.rhos", "resistivity must be > 0 (got %g)", rho)
				}
				stack := c.Stack
				stack.Rho = rho
				for _, sigma := range sigmas {
					for _, eta := range etas {
						for _, e2 := range e2s {
							for _, eY := range eYs {
								spec := SurfaceSpec{Corr: kind, Sigma: sigma, Eta: eta, Eta2: e2, EtaY: eY}
								if spec.Sigma == 0 {
									// Flat reference cells carry only the axis
									// values that distinguish them.
									spec = SurfaceSpec{Corr: kind, Sigma: 0, Eta: eta}
								}
								if err := validateCellSpec(fmt.Sprintf("grid cell %d", len(out)), spec); err != nil {
									return nil, err
								}
								if len(out) == maxCells {
									return nil, campErrf("grid", "expands to more than %d cells", maxCells)
								}
								out = append(out, SweepConfig{Stack: stack, Spec: spec, Acc: c.Acc, Freqs: freqs})
							}
						}
					}
				}
			}
		}
	}
	for i, sp := range c.Cells {
		if err := validateCellSpec(fmt.Sprintf("cells[%d]", i), sp); err != nil {
			return nil, err
		}
		if len(out) == maxCells {
			return nil, campErrf("cells", "campaign has more than %d cells", maxCells)
		}
		out = append(out, SweepConfig{Stack: c.Stack, Spec: sp, Acc: c.Acc, Freqs: freqs})
	}
	if len(out) == 0 {
		return nil, campErrf("grid", "campaign has no cells: set grid axes or cells")
	}
	return out, nil
}

// Validate checks the whole campaign request (it is exactly the
// expansion's validation).
func (c CampaignConfig) Validate() error {
	_, err := c.ExpandCells()
	return err
}

// campaignKeySchemaVersion tags the campaign encoding; campaignTag
// domain-separates campaign keys from sweep and checkpoint keys.
const (
	campaignKeySchemaVersion = 1
	campaignTag              = 0x63616d70 // "camp"
)

// Key returns the content address of the campaign: the SHA-256 over the
// ordered per-cell sweep keys (reusing SweepConfig.Key, so any change
// to any cell, the band or the accuracy changes the campaign identity)
// plus the failure policy. The hex form is the campaign ID — POSTing
// the same study twice addresses the same campaign, and a crash resumes
// it under the ID the client already holds.
func (c CampaignConfig) Key() (rescache.Key, error) {
	cells, err := c.ExpandCells()
	if err != nil {
		return rescache.Key{}, err
	}
	e := rescache.NewEnc()
	e.Uint64(campaignTag)
	e.Uint64(campaignKeySchemaVersion)
	e.Float64(c.MaxFailFrac)
	e.Int(len(cells))
	for _, cell := range cells {
		k := cell.Key()
		e.String(k.String())
	}
	return e.Sum(), nil
}

// ID returns the campaign's content address in hex — the wire ID of
// the /v1/campaigns API.
func (c CampaignConfig) ID() (string, error) {
	k, err := c.Key()
	if err != nil {
		return "", err
	}
	return k.String(), nil
}
