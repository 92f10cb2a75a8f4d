// Package surrogate is the fit-once / serve-millions layer of the
// roughness service: a broadband closed-form surrogate of the loss
// enhancement factor K(f, ξ), built once per configuration through the
// exact solver pipeline and then served from memory in microseconds.
//
// The model composes the paper's two cheap expansions. In the
// stochastic directions, K at a fixed frequency is the truncated
// Hermite polynomial chaos of the SSCM (internal/sscm): K(f, ξ) ≈
// Σ_α c_α(f)·He_α(ξ). Across frequency, each coefficient c_α is
// interpolated from its values at a few Chebyshev–Gauss anchors in
// x = √f — the same parameterization the batched sweep engine uses to
// interpolate each collocation node's K, and for the same reason: the
// kernel (hence K, hence every projection of K) is smooth, in fact
// entire, in x, so the Chebyshev coefficients decay spectrally. Evaluating the surrogate is
// one barycentric weight vector plus a short dot product per Hermite
// term: no solver, no quadrature, no allocation on the mean path.
//
// A Model only enters service through the admission pipeline (fit.go +
// registry.go): fitted against the exact engine, validated at held-out
// frequencies, and admitted only when the observed max relative error
// beats the configured tolerance.
package surrogate

import (
	"encoding/json"
	"fmt"
	"math"

	"roughsim/internal/resilience"
	"roughsim/internal/sscm"
	"roughsim/internal/sweepengine"
)

// SchemaVersion tags the persisted model encoding. Bump it whenever
// the meaning, order or units of any field change: the registry
// refuses (as a miss, not an error) to load a model persisted under a
// different schema, so stale disk entries can never serve wrong
// numbers after an upgrade.
const SchemaVersion = 1

// Model is one admitted broadband K(f, ξ) surrogate. All fields are
// exported for the JSON codec; treat a decoded model as read-only.
type Model struct {
	// Schema is the SchemaVersion the model was encoded under.
	Schema int `json:"schema"`
	// Key is the canonical content address (hex) of the configuration
	// the model was fitted for.
	Key string `json:"key"`
	// Dim and Order are the KL truncation d and the PC order p.
	Dim   int `json:"dim"`
	Order int `json:"order"`
	// FMinHz/FMaxHz bound the fitted band; queries outside it must go
	// to the exact path (the registry reports them as misses).
	FMinHz float64 `json:"fmin_hz"`
	FMaxHz float64 `json:"fmax_hz"`
	// XNodes are the Chebyshev–Gauss anchor abscissae in x = √f.
	XNodes []float64 `json:"x_nodes"`
	// Indices are the PC multi-indices α, aligned with each Coeffs row.
	Indices [][]int `json:"indices"`
	// Coeffs[a][t] is the fitted coefficient c_α(x_a) of term t at
	// anchor a.
	Coeffs [][]float64 `json:"coeffs"`
	// MaxRelErr is the validation-time maximum relative error against
	// exact solves at held-out frequencies (the admission criterion).
	MaxRelErr float64 `json:"max_rel_err"`
	// SolvePoints counts the exact solver evaluations spent fitting and
	// validating — the offline cost the serve path amortizes.
	SolvePoints int `json:"solve_points"`
	// Meta is an opaque echo of the originating configuration (the
	// service stores the request JSON) for listing and fallback.
	Meta json.RawMessage `json:"meta,omitempty"`
}

// CheckShape validates the structural invariants a decoded model must
// satisfy before any evaluation trusts its slices.
func (m *Model) CheckShape() error {
	switch {
	case m.Schema != SchemaVersion:
		return fmt.Errorf("surrogate: schema %d, want %d", m.Schema, SchemaVersion)
	case m.Dim <= 0 || m.Order < 0:
		return fmt.Errorf("surrogate: invalid dim=%d order=%d", m.Dim, m.Order)
	case len(m.XNodes) < 1 || len(m.Coeffs) != len(m.XNodes):
		return fmt.Errorf("surrogate: %d coefficient rows for %d anchors", len(m.Coeffs), len(m.XNodes))
	case len(m.Indices) == 0:
		return fmt.Errorf("surrogate: no PC terms")
	case !(m.FMinHz > 0) || !(m.FMaxHz >= m.FMinHz):
		return fmt.Errorf("surrogate: invalid band [%g, %g]", m.FMinHz, m.FMaxHz)
	case m.Order >= len(m.Indices):
		// The total-degree basis holds at least one term per degree.
		return fmt.Errorf("surrogate: %d PC terms for order %d", len(m.Indices), m.Order)
	}
	for _, alpha := range m.Indices {
		if len(alpha) != m.Dim {
			return fmt.Errorf("surrogate: index of length %d for dim %d", len(alpha), m.Dim)
		}
		deg := 0
		for _, ai := range alpha {
			if ai < 0 || ai > m.Order-deg {
				return fmt.Errorf("surrogate: index %v outside total degree %d", alpha, m.Order)
			}
			deg += ai
		}
	}
	for a, row := range m.Coeffs {
		if len(row) != len(m.Indices) {
			return fmt.Errorf("surrogate: anchor %d has %d coefficients for %d terms", a, len(row), len(m.Indices))
		}
	}
	return nil
}

// InBand reports whether f lies inside the fitted band.
func (m *Model) InBand(f float64) bool { return f >= m.FMinHz && f <= m.FMaxHz }

func (m *Model) bandErr(f float64) error {
	return resilience.Errorf(resilience.KindInvalidInput, "surrogate.Model",
		"f=%g Hz outside the fitted band [%g, %g]", f, m.FMinHz, m.FMaxHz)
}

// CoeffsAt interpolates the PC coefficient vector c_α to frequency f
// by barycentric interpolation in x = √f over the anchor abscissae.
func (m *Model) CoeffsAt(f float64) ([]float64, error) {
	if !m.InBand(f) {
		return nil, m.bandErr(f)
	}
	w := sweepengine.BaryWeights(m.XNodes, math.Sqrt(f))
	c := make([]float64, len(m.Indices))
	for a, wa := range w {
		if wa == 0 {
			continue
		}
		row := m.Coeffs[a]
		for t := range c {
			c[t] += wa * row[t]
		}
	}
	return c, nil
}

// pce returns the chaos expansion at f: the model's multi-indices with
// the coefficients interpolated to f.
func (m *Model) pce(f float64) (*sscm.PCE, error) {
	c, err := m.CoeffsAt(f)
	if err != nil {
		return nil, err
	}
	return &sscm.PCE{Dim: m.Dim, Order: m.Order, Indices: m.Indices, Coeffs: c}, nil
}

// Mean returns E[K](f) = c₀(f) — the quantity the sweep endpoints
// report as KSWM — without materializing the full coefficient vector.
func (m *Model) Mean(f float64) (float64, error) {
	if !m.InBand(f) {
		return 0, m.bandErr(f)
	}
	w := sweepengine.BaryWeights(m.XNodes, math.Sqrt(f))
	var c0 float64
	for a, wa := range w {
		c0 += wa * m.Coeffs[a][0]
	}
	return c0, nil
}

// Variance returns Var[K](f) = Σ_{α≠0} c_α(f)²·α!.
func (m *Model) Variance(f float64) (float64, error) {
	p, err := m.pce(f)
	if err != nil {
		return 0, err
	}
	return p.Variance(), nil
}

// Eval evaluates the surrogate at (f, ξ): the per-ξ PC evaluation the
// paper samples to build the CDF of K, here a closed form with no
// solver in the loop.
func (m *Model) Eval(f float64, xi []float64) (float64, error) {
	if len(xi) != m.Dim {
		return 0, resilience.Errorf(resilience.KindInvalidInput, "surrogate.Model",
			"model dim %d, got %d coordinates", m.Dim, len(xi))
	}
	p, err := m.pce(f)
	if err != nil {
		return 0, err
	}
	return p.Eval(xi), nil
}

// Encode serializes the model for the registry's disk tier.
func Encode(m *Model) ([]byte, error) {
	if err := m.CheckShape(); err != nil {
		return nil, err
	}
	return json.Marshal(m)
}

// Decode parses and shape-checks a persisted model. Any failure —
// malformed JSON, wrong schema, inconsistent slices — is returned as
// an error the registry treats as a miss, never served.
func Decode(b []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("surrogate: decode: %w", err)
	}
	if err := m.CheckShape(); err != nil {
		return nil, err
	}
	return &m, nil
}
