// Package sparams is the S-parameter artifact subsystem of roughsimd:
// it turns a geometry + band request and a resolved roughness profile
// K(f) into a validated two-port Touchstone artifact — the
// designer-consumable endpoint of the whole pipeline.
//
// The generation pipeline has four phases, each under its own trace
// span and metrics, and an encode step under its own span:
//
//	resolve   K(f) on the request grid (surrogate fast path or the
//	          exact sweep chain — the Resolver abstracts which)
//	correct   the causal complex correction K_c(f) = K + jX at every
//	          request frequency via the Kramers–Kronig transform
//	          (txline.CausalRoughness), across GOMAXPROCS workers
//	cascade   per-frequency RLGC → ABCD → S over the user band
//	validate  hard gates: passivity (singular values of S ≤ 1 at every
//	          sample) and causality (positive unwrapped group delay),
//	          each with a typed violation report
//	encode    the Touchstone body
//
// Only an artifact that passes every gate is returned; gate failures
// come back as *GateError wrapped in the resilience taxonomy, carrying
// the full per-frequency violation list.
package sparams

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
	"roughsim/internal/txline"
)

// Request is one S-parameter generation: the line geometry, the length,
// the reference impedance and the frequency grid. Key is the artifact's
// content address (assigned by the caller; echoed into the artifact).
type Request struct {
	Key     string
	Line    txline.Microstrip
	LengthM float64
	Z0      float64
	// Freqs is the evaluation grid, strictly increasing, ≥ 4 points
	// (the causal correction needs a grid to transform over).
	Freqs []float64
	// PassivityTol is the slack over the unit singular-value bound
	// (default defaultPassivityTol when 0).
	PassivityTol float64
}

// defaultPassivityTol absorbs float roundoff in the |S| bound; a real
// passivity violation of a lossy line model is orders of magnitude
// larger.
const defaultPassivityTol = 1e-9

// Validate checks the request, naming the offending field in a typed
// invalid-input error.
func (r Request) Validate() error {
	const op = "sparams.Request"
	if err := r.Line.Validate(); err != nil {
		return err
	}
	if !(r.LengthM > 0) || math.IsInf(r.LengthM, 0) {
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"length_m must be positive and finite (got %g)", r.LengthM)
	}
	if !(r.Z0 > 0) || math.IsInf(r.Z0, 0) {
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"z0 must be positive and finite (got %g)", r.Z0)
	}
	if len(r.Freqs) < 4 {
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"frequency grid needs ≥ 4 points (got %d)", len(r.Freqs))
	}
	prev := 0.0
	for i, f := range r.Freqs {
		if !(f > 0) || math.IsInf(f, 0) {
			return resilience.Errorf(resilience.KindInvalidInput, op,
				"freqs[%d] must be positive and finite (got %g Hz)", i, f)
		}
		if f <= prev {
			return resilience.Errorf(resilience.KindInvalidInput, op,
				"freqs must be strictly increasing (freqs[%d]=%g Hz after %g Hz)", i, f, prev)
		}
		prev = f
	}
	if !(r.PassivityTol >= 0) || math.IsInf(r.PassivityTol, 0) {
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"passivity_tol must be ≥ 0 and finite (got %g)", r.PassivityTol)
	}
	// The group-delay causality gate unwraps phase between consecutive
	// samples; an aliased grid (phase step ≥ π) would make the unwrap —
	// and therefore the gate verdict — ambiguous, so it is rejected
	// up front as a request problem, not a gate failure.
	delay := r.LengthM * math.Sqrt(r.Line.EffectivePermittivity()) / 299792458.0
	for i := 1; i < len(r.Freqs); i++ {
		if step := delay * (r.Freqs[i] - r.Freqs[i-1]); step > 0.45 {
			return resilience.Errorf(resilience.KindInvalidInput, op,
				"freqs grid too coarse for a %g m line: phase step %.2f cycles between %g and %g Hz (need < 0.45; add points or shorten the band)",
				r.LengthM, step, r.Freqs[i-1], r.Freqs[i])
		}
	}
	return nil
}

// passivityTol returns the effective gate slack.
func (r Request) passivityTol() float64 {
	if r.PassivityTol > 0 {
		return r.PassivityTol
	}
	return defaultPassivityTol
}

// Resolution is a resolved roughness profile: K at each request
// frequency plus its provenance.
type Resolution struct {
	// K matches the request grid 1:1.
	K []float64
	// Source is "surrogate" (admitted closed-form model) or "exact"
	// (the sweep solve chain).
	Source string
	// MaxRelErr is the surrogate's validation-time max relative error
	// (0 for exact resolution); it propagates into the artifact so a
	// consumer knows the K tolerance under the gates.
	MaxRelErr float64
}

// Resolver produces K(f) on a frequency grid. The server implementation
// tries the surrogate registry first and falls back to the exact sweep
// chain; the library implementation runs the exact chain directly.
type Resolver func(ctx context.Context, freqs []float64) (Resolution, error)

// Artifact is the validated outcome: the Touchstone text plus the
// provenance and gate report a consumer needs to trust it. It is what
// the content-addressed artifact store persists and GET /v1/sparams
// serves.
type Artifact struct {
	Key    string  `json:"key"`
	Z0     float64 `json:"z0"`
	FMinHz float64 `json:"fmin_hz"`
	FMaxHz float64 `json:"fmax_hz"`
	Points int     `json:"points"`
	// Source and KMaxRelErr carry the resolution provenance (see
	// Resolution).
	Source     string     `json:"source"`
	KMaxRelErr float64    `json:"k_max_rel_err,omitempty"`
	Gates      GateReport `json:"gates"`
	// Touchstone is the complete .s2p file body (Touchstone 1.x, # HZ S
	// RI R z0).
	Touchstone string `json:"touchstone"`
	// Config echoes the originating request (the facade's SParamConfig
	// JSON), so an artifact is self-describing; raw so it survives
	// store round trips verbatim.
	Config json.RawMessage `json:"config,omitempty"`
}

// Generate runs the full pipeline for one request. m may be nil
// (library use); the server passes its registry so sparams.* series
// land in /metrics.
func Generate(ctx context.Context, req Request, res Resolver, m *telemetry.Registry) (*Artifact, error) {
	if m == nil {
		m = telemetry.NewRegistry()
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if res == nil {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "sparams.Generate", "nil resolver")
	}
	start := time.Now()

	// Phase 1: resolve K(f) on the request grid.
	rctx, span := trace.StartSpan(ctx, "sparams.resolve")
	kres, err := res(rctx, req.Freqs)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("sparams: resolve K: %w", err)
	}
	if len(kres.K) != len(req.Freqs) {
		return nil, resilience.Errorf(resilience.KindNumerical, "sparams.resolve",
			"resolver returned %d K values for %d frequencies", len(kres.K), len(req.Freqs))
	}
	m.CounterL("sparams.resolve", telemetry.L("source", kres.Source)).Inc()

	// Phase 2: causal correction K_c = K + jX (Kramers–Kronig). The
	// constructor rejects NaN/Inf/K<1 samples, so a poisoned resolution
	// fails here with a typed error instead of contaminating the cascade.
	cctx, span := trace.StartSpan(ctx, "sparams.correct")
	kc, err := correct(cctx, req.Freqs, kres.K)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("sparams: causal correction: %w", err)
	}

	// Phase 3: cascade RLGC → ABCD → S at every sample.
	_, span = trace.StartSpan(ctx, "sparams.cascade")
	sweep := make([]txline.SParams, len(req.Freqs))
	for i, f := range req.Freqs {
		if err := ctx.Err(); err != nil {
			span.End()
			return nil, err
		}
		r, l, c, g, err := req.Line.RLGC(f, kc[i])
		if err != nil {
			span.End()
			return nil, fmt.Errorf("sparams: cascade at %g Hz: %w", f, err)
		}
		abcd, err := txline.LineABCD(f, req.LengthM, r, l, c, g)
		if err != nil {
			span.End()
			return nil, fmt.Errorf("sparams: cascade at %g Hz: %w", f, err)
		}
		sweep[i] = txline.SParams{F: f, S11: abcd.S11(req.Z0), S21: abcd.S21(req.Z0)}
	}
	span.End()

	// Phase 4: hard validation gates.
	_, span = trace.StartSpan(ctx, "sparams.validate")
	report, err := runGates(sweep, req, m)
	span.End()
	if err != nil {
		return nil, err
	}

	_, span = trace.StartSpan(ctx, "sparams.encode")
	var buf bytes.Buffer
	err = txline.WriteTouchstone(&buf, req.Z0, sweep)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("sparams: write touchstone: %w", err)
	}
	m.Counter("sparams.generated").Inc()
	m.Histogram("sparams.generate_seconds").Observe(time.Since(start).Seconds())
	return &Artifact{
		Key:        req.Key,
		Z0:         req.Z0,
		FMinHz:     req.Freqs[0],
		FMaxHz:     req.Freqs[len(req.Freqs)-1],
		Points:     len(req.Freqs),
		Source:     kres.Source,
		KMaxRelErr: kres.MaxRelErr,
		Gates:      report,
		Touchstone: buf.String(),
	}, nil
}

// correct evaluates K_c(f) = K(f) + jX(f) at every request frequency,
// spread over GOMAXPROCS workers. Worker w takes every workers-th
// frequency from w, so there is one hand-off per worker rather than per
// frequency (a frequency costs microseconds, about as much as waking a
// parked worker). Each frequency writes only its own slot, so the
// result does not depend on the worker count.
func correct(ctx context.Context, freqs, k []float64) ([]complex128, error) {
	causal, err := txline.NewCausalRoughness(freqs, k)
	if err != nil {
		return nil, err
	}
	kc := make([]complex128, len(freqs))
	workers := min(runtime.GOMAXPROCS(0), len(freqs))
	err = resilience.ForEach(ctx, workers, workers, func(ctx context.Context, w int) error {
		for i := w; i < len(freqs); i += workers {
			if err := ctx.Err(); err != nil {
				return err
			}
			kc[i] = causal.Factor(freqs[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return kc, nil
}
