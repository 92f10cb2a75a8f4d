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
// x = √f — the same parameterization the batched sweep engine uses for
// matrix interpolation, and for the same reason: the kernel (hence K,
// hence every projection of K) is smooth, in fact entire, in x, so the
// Chebyshev coefficients decay spectrally. Evaluating the surrogate is
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
	"sync"

	"roughsim/internal/resilience"
	"roughsim/internal/specfun"
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

	// facts caches α! per term for the variance sum (not persisted).
	factsOnce sync.Once
	facts     []float64
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
// dst, when non-nil and correctly sized, receives the result without
// allocating.
func (m *Model) CoeffsAt(f float64, dst []float64) ([]float64, error) {
	if !m.InBand(f) {
		return nil, m.bandErr(f)
	}
	w := sweepengine.BaryWeights(m.XNodes, math.Sqrt(f))
	if len(dst) != len(m.Indices) {
		dst = make([]float64, len(m.Indices))
	} else {
		for t := range dst {
			dst[t] = 0
		}
	}
	for a, wa := range w {
		if wa == 0 {
			continue
		}
		row := m.Coeffs[a]
		for t := range dst {
			dst[t] += wa * row[t]
		}
	}
	return dst, nil
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
	c, err := m.CoeffsAt(f, nil)
	if err != nil {
		return 0, err
	}
	facts := m.factorials()
	var v float64
	for t := 1; t < len(c); t++ {
		v += c[t] * c[t] * facts[t]
	}
	return v, nil
}

// Eval evaluates the surrogate at (f, ξ): the per-ξ PC evaluation the
// paper samples to build the CDF of K, here a closed form with no
// solver in the loop.
func (m *Model) Eval(f float64, xi []float64) (float64, error) {
	if len(xi) != m.Dim {
		return 0, resilience.Errorf(resilience.KindInvalidInput, "surrogate.Model",
			"model dim %d, got %d coordinates", m.Dim, len(xi))
	}
	c, err := m.CoeffsAt(f, nil)
	if err != nil {
		return 0, err
	}
	var s float64
	for t, alpha := range m.Indices {
		if c[t] == 0 {
			continue
		}
		term := c[t]
		for i, ai := range alpha {
			if ai > 0 {
				term *= specfun.HermiteProb(ai, xi[i])
			}
		}
		s += term
	}
	return s, nil
}

// factorials returns (building once, concurrency-safe) α! per term.
func (m *Model) factorials() []float64 {
	m.factsOnce.Do(func() {
		facts := make([]float64, len(m.Indices))
		for t, alpha := range m.Indices {
			fact := 1.0
			for _, ai := range alpha {
				fact *= specfun.Factorial(ai)
			}
			facts[t] = fact
		}
		m.facts = facts
	})
	return m.facts
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
