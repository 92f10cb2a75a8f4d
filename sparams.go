package roughsim

import (
	"context"
	"encoding/json"
	"math"

	"roughsim/internal/rescache"
	"roughsim/internal/resilience"
	"roughsim/internal/sparams"
	"roughsim/internal/txline"
)

// This file is the public face of internal/sparams: a geometry + band
// request that becomes a validated two-port Touchstone artifact, with
// the roughness profile K(f) resolved through the same physics
// configuration (Stack/SurfaceSpec/Accuracy) as sweeps and surrogates.
// SParamConfig is the request body of POST /v1/sparams and the input of
// `roughsim -sparams`.

// LineGeometry is the microstrip cross-section of an S-parameter
// request. The conductor resistivity comes from the Stack (it is a
// material property, not a geometry one).
type LineGeometry struct {
	WidthM   float64 `json:"width_m"`
	HeightM  float64 `json:"height_m"`
	EpsR     float64 `json:"eps_r"`
	TanDelta float64 `json:"tan_delta"`
}

// SParamConfig fully describes one S-parameter artifact: the physical
// roughness configuration (identical to a sweep's), the line geometry,
// and the evaluation band.
type SParamConfig struct {
	Stack Stack       `json:"stack"`
	Spec  SurfaceSpec `json:"surface"`
	Acc   Accuracy    `json:"accuracy"`

	Line    LineGeometry `json:"line"`
	LengthM float64      `json:"length_m"`
	// Z0 is the reference impedance (default 50 Ω).
	Z0 float64 `json:"z0,omitempty"`
	// FMinHz/FMaxHz/Points define the linear evaluation grid (Points
	// defaults to 64, minimum 4).
	FMinHz float64 `json:"fmin_hz"`
	FMaxHz float64 `json:"fmax_hz"`
	Points int     `json:"points,omitempty"`
	// PassivityTol is the slack over the unit singular-value bound of
	// the passivity gate (default 1e-9). Like a surrogate's Tol it
	// shapes the verdict, not the artifact content, so it stays out of
	// the content address.
	PassivityTol float64 `json:"passivity_tol,omitempty"`
}

// WithDefaults fills the zero-valued parts (mirroring
// SweepConfig.WithDefaults plus the band defaults).
func (c SParamConfig) WithDefaults() SParamConfig {
	if c.Stack == (Stack{}) {
		c.Stack = CopperSiO2()
	}
	c.Acc = c.Acc.withDefaults()
	if c.Z0 == 0 {
		c.Z0 = 50
	}
	if c.Points == 0 {
		c.Points = 64
	}
	return c
}

// Validate checks every request field, naming the offending JSON field
// in a typed invalid-input error (the API tier maps it to a 400).
func (c SParamConfig) Validate() error {
	const op = "roughsim.SParamConfig"
	bad := func(field string, v float64) error {
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"field %q must be positive and finite (got %g)", field, v)
	}
	if !(c.FMinHz > 0) || math.IsInf(c.FMinHz, 0) {
		return bad("fmin_hz", c.FMinHz)
	}
	if !(c.FMaxHz > c.FMinHz) || c.FMaxHz > 1e15 {
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"field \"fmax_hz\" must satisfy fmin_hz < fmax_hz ≤ 1e15 (got %g)", c.FMaxHz)
	}
	if c.Points < 4 {
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"field \"points\" must be ≥ 4 (got %d)", c.Points)
	}
	if c.Points > 100000 {
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"field \"points\" must be ≤ 100000 (got %d)", c.Points)
	}
	// The full grid + geometry checks (including the phase-resolution
	// precheck that keeps the causality gate's unwrap unambiguous) live
	// on the subsystem Request; its errors already name request fields.
	return c.Request().Validate()
}

// Grid returns the linear evaluation grid.
func (c SParamConfig) Grid() []float64 {
	c = c.WithDefaults()
	fs := make([]float64, c.Points)
	step := (c.FMaxHz - c.FMinHz) / float64(c.Points-1)
	for i := range fs {
		fs[i] = c.FMinHz + float64(i)*step
	}
	fs[len(fs)-1] = c.FMaxHz // exact band edge despite float stepping
	return fs
}

// microstrip assembles the txline model: geometry from the request,
// conductor resistivity from the material stack.
func (c SParamConfig) microstrip() txline.Microstrip {
	c = c.WithDefaults()
	return txline.Microstrip{
		Width:    c.Line.WidthM,
		Height:   c.Line.HeightM,
		EpsR:     c.Line.EpsR,
		TanDelta: c.Line.TanDelta,
		Rho:      c.Stack.Rho,
	}
}

// Request maps the config onto the subsystem request (key included).
func (c SParamConfig) Request() sparams.Request {
	c = c.WithDefaults()
	return sparams.Request{
		Key:          c.Key().String(),
		Line:         c.microstrip(),
		LengthM:      c.LengthM,
		Z0:           c.Z0,
		Freqs:        c.Grid(),
		PassivityTol: c.PassivityTol,
	}
}

// KSweep returns the sweep configuration that resolves K(f) on this
// request's grid — the exact-path resolution and the service-limit
// vocabulary both speak SweepConfig.
func (c SParamConfig) KSweep() SweepConfig {
	c = c.WithDefaults()
	return SweepConfig{Stack: c.Stack, Spec: c.Spec, Acc: c.Acc, Freqs: c.Grid()}
}

// SParamArtifact is the validated Touchstone artifact (alias of the
// subsystem type, so CLI and API consumers need only this package).
type SParamArtifact = sparams.Artifact

// sparamsKeyTag domain-separates S-parameter artifact addresses from
// sweep and surrogate keys built over the same physical fields.
const sparamsKeyTag = "sparams"

// Key returns the canonical content address of the artifact this config
// produces: the physical configuration (same canonical encoding as
// sweep keys), the line geometry, and the band. PassivityTol is
// excluded — it decides admission, not artifact content (mirroring a
// surrogate's Tol).
func (c SParamConfig) Key() rescache.Key {
	c = c.WithDefaults()
	base := SweepConfig{Stack: c.Stack, Spec: c.Spec, Acc: c.Acc}
	e := base.encodeBase()
	e.String(sparamsKeyTag)
	e.Float64(c.Line.WidthM).Float64(c.Line.HeightM)
	e.Float64(c.Line.EpsR).Float64(c.Line.TanDelta)
	e.Float64(c.LengthM).Float64(c.Z0)
	e.Float64(c.FMinHz).Float64(c.FMaxHz)
	e.Int(c.Points)
	return e.Sum()
}

// Resolver returns the surrogate as a K(f) resolver for S-parameter
// generation: closed-form evaluation, no solver in the loop. It
// fails with a typed error if any requested frequency falls outside the
// fitted band.
func (s *Surrogate) Resolver() sparams.Resolver {
	return func(_ context.Context, freqs []float64) (sparams.Resolution, error) {
		ks := make([]float64, len(freqs))
		for i, f := range freqs {
			k, err := s.MeanAt(f)
			if err != nil {
				return sparams.Resolution{}, err
			}
			ks[i] = k
		}
		return sparams.Resolution{K: ks, Source: "surrogate", MaxRelErr: s.MaxRelErr()}, nil
	}
}

// exactResolver resolves K(f) through the full sweep chain (the
// library path; roughsimd substitutes its cached, checkpointed chain).
func exactResolver(cfg SParamConfig) sparams.Resolver {
	return func(ctx context.Context, freqs []float64) (sparams.Resolution, error) {
		res, err := RunSweep(ctx, SweepConfig{Stack: cfg.Stack, Spec: cfg.Spec, Acc: cfg.Acc, Freqs: freqs})
		if err != nil {
			return sparams.Resolution{}, err
		}
		ks := make([]float64, len(res.Points))
		for i, p := range res.Points {
			ks[i] = p.KSWM
		}
		return sparams.Resolution{K: ks, Source: "exact"}, nil
	}
}

// GenerateSParams produces the validated Touchstone artifact for cfg,
// resolving K(f) through the exact sweep chain (no cache, no queue —
// the CLI path). Pass a non-nil Surrogate resolver via
// GenerateSParamsWith to use the fast path instead.
func GenerateSParams(ctx context.Context, cfg SParamConfig) (*sparams.Artifact, error) {
	cfg = cfg.WithDefaults()
	return GenerateSParamsWith(ctx, cfg, exactResolver(cfg))
}

// GenerateSParamsWith produces the artifact with a caller-chosen K(f)
// resolver (e.g. an admitted Surrogate's Resolver()).
func GenerateSParamsWith(ctx context.Context, cfg SParamConfig, res sparams.Resolver) (*sparams.Artifact, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	art, err := sparams.Generate(ctx, cfg.Request(), res, nil)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	art.Config = raw
	return art, nil
}
