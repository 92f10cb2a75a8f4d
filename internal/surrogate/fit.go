package surrogate

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"roughsim/internal/rescache"
	"roughsim/internal/resilience"
	"roughsim/internal/sscm"
	"roughsim/internal/sweepengine"
	"roughsim/internal/trace"
)

// Source supplies exact solver evaluations at the SSCM collocation
// nodes: CollocationValues must return vals[freq][node] from the exact
// (non-interpolated) pipeline, node-aligned with sscm.Nodes(dim,
// order). roughsim.Simulation implements it. Implementations must be
// safe for concurrent use.
type Source interface {
	// StochasticDim is the KL truncation d of the surface process.
	StochasticDim() int
	// CollocationValues evaluates K at every collocation node for every
	// frequency through the exact solve path.
	CollocationValues(ctx context.Context, freqs []float64, order int) ([][]float64, error)
}

// FitSpec parameterizes one surrogate build. Zero values select the
// defaults noted per field.
type FitSpec struct {
	// Key is the canonical content address of the configuration; it
	// becomes the registry key and the model's identity. (Excluded from
	// JSON: records carry the hex form at top level.)
	Key rescache.Key `json:"-"`
	// FMinHz/FMaxHz bound the band the model serves.
	FMinHz float64 `json:"fmin_hz"`
	FMaxHz float64 `json:"fmax_hz"`
	// Order is the PC order (default 1, the paper's 1st-SSCM).
	Order int `json:"order"`
	// Anchors is the Chebyshev anchor count in x = √f (default 8, at
	// most MaxAnchors).
	Anchors int `json:"anchors"`
	// Holdout is the number of held-out validation frequencies
	// (default 3, at most MaxAnchors+1). They are placed on a Chebyshev
	// grid of their own, so they interleave the fit anchors instead of
	// coinciding with them.
	Holdout int `json:"holdout"`
	// Tol is the admission tolerance on the validation max relative
	// error (default 1e-3).
	Tol float64 `json:"tol"`
	// Meta is an opaque configuration echo persisted with the model.
	Meta json.RawMessage `json:"meta,omitempty"`
}

// Defaults of FitSpec.
const (
	DefaultAnchors = 8
	DefaultHoldout = 3
	DefaultTol     = 1e-3
	// MaxAnchors caps Anchors. Each anchor and each holdout frequency
	// costs one exact collocation sweep point, so a request cannot ask
	// for unbounded work. Holdout may reach MaxAnchors+1: WithDefaults
	// bumps a holdout count that collides with Anchors.
	MaxAnchors = 64
)

// WithDefaults fills the zero-valued tuning fields.
func (s FitSpec) WithDefaults() FitSpec {
	if s.Order <= 0 {
		s.Order = 1
	}
	if s.Anchors <= 0 {
		s.Anchors = DefaultAnchors
	}
	if s.Holdout <= 0 {
		s.Holdout = DefaultHoldout
	}
	// Chebyshev grids of equal size coincide point-for-point, which
	// would make validation vacuous (the interpolant is exact at its own
	// anchors); distinct counts never share a point, so bump the holdout
	// grid when the two collide.
	if s.Holdout == s.Anchors {
		s.Holdout++
	}
	if s.Tol <= 0 {
		s.Tol = DefaultTol
	}
	return s
}

// Validate checks the spec after defaults.
func (s FitSpec) Validate() error {
	if !(s.FMinHz > 0) || !(s.FMaxHz > s.FMinHz) || s.FMaxHz > 1e15 {
		return resilience.Errorf(resilience.KindInvalidInput, "surrogate.FitSpec",
			"band [%g, %g] Hz out of domain (need 0 < fmin < fmax ≤ 1e15)", s.FMinHz, s.FMaxHz)
	}
	if s.Anchors < 2 || s.Anchors > MaxAnchors {
		return resilience.Errorf(resilience.KindInvalidInput, "surrogate.FitSpec",
			"need 2 to %d anchors (got %d)", MaxAnchors, s.Anchors)
	}
	if s.Holdout > MaxAnchors+1 {
		return resilience.Errorf(resilience.KindInvalidInput, "surrogate.FitSpec",
			"need at most %d holdout frequencies (got %d)", MaxAnchors+1, s.Holdout)
	}
	return nil
}

// Fit builds (but does not validate or admit) the broadband model:
// exact collocation solves at the Chebyshev anchor frequencies, one PC
// projection per anchor, coefficients stored per anchor for
// barycentric interpolation at query time, under a "surrogate.model_fit"
// span (the engine's nested per-frequency projections are "surrogate.fit").
func Fit(ctx context.Context, src Source, spec FitSpec) (*Model, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sctx, span := trace.StartSpan(ctx, "surrogate.model_fit")
	span.SetAttr("anchors", spec.Anchors)
	span.SetAttr("order", spec.Order)
	defer span.End()

	xs := sweepengine.ChebAnchors(spec.Anchors, math.Sqrt(spec.FMinHz), math.Sqrt(spec.FMaxHz))
	freqs := make([]float64, len(xs))
	for a, x := range xs {
		freqs[a] = x * x
	}
	dim := src.StochasticDim()
	vals, err := src.CollocationValues(sctx, freqs, spec.Order)
	if err != nil {
		return nil, err
	}
	nodes := sscm.GridSize(dim, spec.Order)
	model := &Model{
		Schema:      SchemaVersion,
		Key:         spec.Key.String(),
		Dim:         dim,
		Order:       spec.Order,
		FMinHz:      spec.FMinHz,
		FMaxHz:      spec.FMaxHz,
		XNodes:      xs,
		Coeffs:      make([][]float64, len(xs)),
		SolvePoints: len(freqs) * nodes,
		Meta:        spec.Meta,
	}
	for a := range xs {
		res, err := sscm.FromValues(dim, spec.Order, vals[a])
		if err != nil {
			return nil, err
		}
		if model.Indices == nil {
			model.Indices = res.PCE.Indices
		}
		model.Coeffs[a] = res.Coeffs
	}
	return model, nil
}

// Admit runs the admission pipeline for spec: Fit, then Validate, whose
// max relative error it records in the model's MaxRelErr. reason is
// empty when that error is within spec.Tol, and otherwise says why the
// model is rejected.
func Admit(ctx context.Context, src Source, spec FitSpec) (model *Model, reason string, err error) {
	if model, err = Fit(ctx, src, spec); err != nil {
		return nil, "", err
	}
	if model.MaxRelErr, err = Validate(ctx, src, model, spec); err != nil {
		return nil, "", err
	}
	if model.MaxRelErr > spec.Tol {
		reason = fmt.Sprintf("validation max relative error %.3g exceeds tolerance %.3g", model.MaxRelErr, spec.Tol)
	}
	return model, reason, nil
}

// Validate measures the model against exact solves the fit never saw:
// at Holdout held-out frequencies it fits a reference PCE from exact
// collocation values and compares the surrogate's interpolated mean,
// standard deviation and per-node ξ evaluations against it. The
// returned max relative error is the admission criterion. Relative
// errors are taken against max(|exact|, 1) — K is O(1) by construction
// (K = 1 for a flat surface), so the floor only guards degenerate
// near-zero references.
func Validate(ctx context.Context, src Source, model *Model, spec FitSpec) (float64, error) {
	spec = spec.WithDefaults()
	sctx, span := trace.StartSpan(ctx, "surrogate.validate")
	span.SetAttr("holdout", spec.Holdout)
	defer span.End()

	hx := sweepengine.ChebAnchors(spec.Holdout, math.Sqrt(spec.FMinHz), math.Sqrt(spec.FMaxHz))
	freqs := make([]float64, len(hx))
	for i, x := range hx {
		freqs[i] = x * x
	}
	dim := src.StochasticDim()
	vals, err := src.CollocationValues(sctx, freqs, spec.Order)
	if err != nil {
		return 0, err
	}
	nodes, err := sscm.Nodes(dim, spec.Order)
	if err != nil {
		return 0, err
	}
	relErr := func(got, want float64) float64 {
		den := math.Abs(want)
		if den < 1 {
			den = 1
		}
		return math.Abs(got-want) / den
	}
	var maxErr float64
	for i, f := range freqs {
		ref, err := sscm.FromValues(dim, spec.Order, vals[i])
		if err != nil {
			return 0, err
		}
		mean, err := model.Mean(f)
		if err != nil {
			return 0, err
		}
		maxErr = math.Max(maxErr, relErr(mean, ref.Mean))
		variance, err := model.Variance(f)
		if err != nil {
			return 0, err
		}
		maxErr = math.Max(maxErr, relErr(math.Sqrt(variance), math.Sqrt(ref.Variance)))
		for _, xi := range nodes {
			got, err := model.Eval(f, xi)
			if err != nil {
				return 0, err
			}
			maxErr = math.Max(maxErr, relErr(got, ref.PCE.Eval(xi)))
		}
	}
	model.SolvePoints += len(freqs) * len(nodes)
	span.SetAttr("max_rel_err", maxErr)
	return maxErr, nil
}
