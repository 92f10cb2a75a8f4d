package roughsim

import (
	"context"
	"encoding/json"

	"roughsim/internal/rescache"
	"roughsim/internal/resilience"
	"roughsim/internal/surrogate"
)

// This file is the public face of internal/surrogate: a broadband
// closed-form model of K(f, ξ) fitted once through the exact solver
// and then evaluated in microseconds — the library-level counterpart
// of roughsimd's GET /k fast path.

// SurrogateConfig describes one surrogate build: the physical
// configuration (identical to a sweep's) plus the band and fit/admit
// parameters. It is the request body of POST /v1/surrogates.
type SurrogateConfig struct {
	Stack Stack       `json:"stack"`
	Spec  SurfaceSpec `json:"surface"`
	Acc   Accuracy    `json:"accuracy"`
	// FMinHz/FMaxHz bound the band the surrogate serves.
	FMinHz float64 `json:"fmin_hz"`
	FMaxHz float64 `json:"fmax_hz"`
	// Order is the PC order (default 1, the paper's 1st-SSCM).
	Order int `json:"order,omitempty"`
	// Anchors is the Chebyshev anchor count in x = √f (default 8).
	Anchors int `json:"anchors,omitempty"`
	// Holdout is the held-out validation frequency count (default 3,
	// bumped if it would collide with Anchors).
	Holdout int `json:"holdout,omitempty"`
	// Tol is the admission tolerance on the validation max relative
	// error (default 1e-3). Tol and Holdout shape the admission verdict,
	// not the fitted model, so they stay out of the content address.
	Tol float64 `json:"tol,omitempty"`
}

// WithDefaults fills the zero-valued parts (mirroring
// SweepConfig.WithDefaults plus the fit parameters).
func (c SurrogateConfig) WithDefaults() SurrogateConfig {
	if c.Stack == (Stack{}) {
		c.Stack = CopperSiO2()
	}
	c.Acc = c.Acc.withDefaults()
	s := c.fitParams().WithDefaults()
	c.Order, c.Anchors, c.Holdout, c.Tol = s.Order, s.Anchors, s.Holdout, s.Tol
	return c
}

// Validate checks the band and fit parameters.
func (c SurrogateConfig) Validate() error {
	if err := c.fitParams().WithDefaults().Validate(); err != nil {
		return err
	}
	if c.Order < 0 || c.Order > 4 {
		return resilience.Errorf(resilience.KindInvalidInput, "roughsim.SurrogateConfig",
			"PC order %d out of range (0 < order ≤ 4)", c.Order)
	}
	return nil
}

// surrogateKeyTag domain-separates surrogate content addresses from
// sweep point/result keys built over the same physical fields.
const surrogateKeyTag = "surrogate"

// Key returns the canonical content address of the surrogate this
// config produces: the physical configuration (same canonical encoding
// as sweep keys), the band and the model-determining fit parameters.
// Tol and Holdout are excluded — they decide admission, not model
// content — so tightening the tolerance re-judges, not re-fits.
func (c SurrogateConfig) Key() rescache.Key {
	c = c.WithDefaults()
	base := SweepConfig{Stack: c.Stack, Spec: c.Spec, Acc: c.Acc}
	e := base.encodeBase()
	e.String(surrogateKeyTag)
	e.Float64(c.FMinHz).Float64(c.FMaxHz)
	e.Int(c.Order).Int(c.Anchors)
	return e.Sum()
}

// fitParams maps the fit-facing fields onto a surrogate.FitSpec
// (without key or meta).
func (c SurrogateConfig) fitParams() surrogate.FitSpec {
	return surrogate.FitSpec{
		FMinHz:  c.FMinHz,
		FMaxHz:  c.FMaxHz,
		Order:   c.Order,
		Anchors: c.Anchors,
		Holdout: c.Holdout,
		Tol:     c.Tol,
	}
}

// FitSpec returns the internal build spec: fit parameters, the content
// address as the key, and the full config echoed as Meta so a
// persisted model records what it was fitted for.
func (c SurrogateConfig) FitSpec() (surrogate.FitSpec, error) {
	c = c.WithDefaults()
	if err := c.Validate(); err != nil {
		return surrogate.FitSpec{}, err
	}
	meta, err := json.Marshal(c)
	if err != nil {
		return surrogate.FitSpec{}, err
	}
	spec := c.fitParams()
	spec.Key = c.Key()
	spec.Meta = meta
	return spec, nil
}

// Surrogate is an admitted broadband K(f, ξ) model: closed-form mean,
// variance and per-ξ evaluation over its band, no solver in the loop.
type Surrogate struct {
	model *surrogate.Model
}

// FitSurrogate runs the full offline pipeline for cfg — exact
// collocation solves at the anchor frequencies, per-anchor PC
// projection, validation against exact solves at held-out frequencies
// — and returns the model only if it beats cfg.Tol. This is the
// library path; roughsimd keeps admitted models in a registry instead.
func FitSurrogate(ctx context.Context, cfg SurrogateConfig) (*Surrogate, error) {
	cfg = cfg.WithDefaults()
	spec, err := cfg.FitSpec()
	if err != nil {
		return nil, err
	}
	sim, err := NewSimulation(cfg.Stack, cfg.Spec, cfg.Acc)
	if err != nil {
		return nil, err
	}
	model, reason, err := surrogate.Admit(ctx, sim, spec)
	if err != nil {
		return nil, err
	}
	if reason != "" {
		return nil, resilience.Errorf(resilience.KindNumerical, "roughsim.FitSurrogate", "%s", reason)
	}
	return &Surrogate{model: model}, nil
}

// Key returns the hex content address of the configuration the model
// was fitted for.
func (s *Surrogate) Key() string { return s.model.Key }

// Band returns the fitted frequency band in Hz.
func (s *Surrogate) Band() (fmin, fmax float64) { return s.model.FMinHz, s.model.FMaxHz }

// MaxRelErr returns the validation-time max relative error (the
// admission criterion the model beat).
func (s *Surrogate) MaxRelErr() float64 { return s.model.MaxRelErr }

// SolvePoints returns how many exact solver evaluations the fit and
// validation spent — the offline cost each MeanAt call amortizes.
func (s *Surrogate) SolvePoints() int { return s.model.SolvePoints }

// MeanAt returns E[K](f) — the quantity sweeps report as KSWM.
func (s *Surrogate) MeanAt(f float64) (float64, error) { return s.model.Mean(f) }

// VarianceAt returns Var[K](f).
func (s *Surrogate) VarianceAt(f float64) (float64, error) { return s.model.Variance(f) }

// EvalAt evaluates K(f, ξ) for KL coordinates xi — the closed form the
// paper samples to build the CDF of K.
func (s *Surrogate) EvalAt(f float64, xi []float64) (float64, error) { return s.model.Eval(f, xi) }

// Encode serializes the model (the roughsim -surrogate-out format).
func (s *Surrogate) Encode() ([]byte, error) { return surrogate.Encode(s.model) }

// DecodeSurrogate parses a model persisted by Encode (or by
// roughsimd's registry), rejecting any schema or shape mismatch.
func DecodeSurrogate(b []byte) (*Surrogate, error) {
	m, err := surrogate.Decode(b)
	if err != nil {
		return nil, err
	}
	return &Surrogate{model: m}, nil
}
