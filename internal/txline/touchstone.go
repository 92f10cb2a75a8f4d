package txline

import (
	"fmt"
	"io"
	"math"
	"math/cmplx"

	"roughsim/internal/resilience"
)

// SParams is one two-port sample. The line models here are reciprocal
// and symmetric (S12 = S21, S22 = S11).
type SParams struct {
	F        float64 // Hz
	S11, S21 complex128
}

// WriteTouchstone emits the sweep in Touchstone 1.x two-port format
// (# HZ S RI R z0), the interchange format every SI tool reads. Sample
// ordering follows the spec: S11 S21 S12 S22 per frequency row. The
// whole sweep is checked before anything is written: a bad z0 or
// frequency is a typed invalid-input error, a non-finite S entry a
// typed numerical one, since no reader accepts NaN or Inf rows.
func WriteTouchstone(w io.Writer, z0 float64, sweep []SParams) error {
	const op = "txline.WriteTouchstone"
	if len(sweep) == 0 {
		return resilience.Errorf(resilience.KindInvalidInput, op, "empty S-parameter sweep")
	}
	if !finitePositive(z0) {
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"reference impedance must be positive and finite (got %g)", z0)
	}
	prev := 0.0
	for i, s := range sweep {
		// Touchstone 1.x requires strictly increasing frequencies; most SI
		// tools misparse duplicates or reordered rows silently, so both are
		// hard errors here with the row index and both values named.
		if !finitePositive(s.F) {
			return resilience.Errorf(resilience.KindInvalidInput, op,
				"row %d: frequency must be positive and finite (got %g)", i, s.F)
		}
		if s.F == prev {
			return resilience.Errorf(resilience.KindInvalidInput, op,
				"row %d: duplicate frequency %g Hz", i, s.F)
		}
		if s.F < prev {
			return resilience.Errorf(resilience.KindInvalidInput, op,
				"row %d: frequencies must be strictly increasing (%g Hz after %g Hz)", i, s.F, prev)
		}
		prev = s.F
		if !finite(s.S11) || !finite(s.S21) {
			return resilience.Errorf(resilience.KindNumerical, op,
				"row %d: S-parameters at %g Hz are not finite (S11=%v, S21=%v)", i, s.F, s.S11, s.S21)
		}
	}
	if _, err := fmt.Fprintf(w, "! roughsim transmission-line model\n# HZ S RI R %g\n", z0); err != nil {
		return err
	}
	for _, s := range sweep {
		s12 := s.S21 // reciprocity
		s22 := s.S11 // symmetry
		if _, err := fmt.Fprintf(w, "%.10g %.10g %.10g %.10g %.10g %.10g %.10g %.10g %.10g\n",
			s.F,
			real(s.S11), imag(s.S11),
			real(s.S21), imag(s.S21),
			real(s12), imag(s12),
			real(s22), imag(s22)); err != nil {
			return err
		}
	}
	return nil
}

// finite reports whether both parts of z are finite.
func finite(z complex128) bool {
	return !cmplx.IsNaN(z) && !cmplx.IsInf(z)
}

// GroupDelay estimates the S21 group delay −dφ/dω between consecutive
// sweep samples (length len(sweep)−1), a causality smoke test: a
// passive causal line has positive, slowly varying delay.
func GroupDelay(sweep []SParams) []float64 {
	if len(sweep) < 2 {
		return nil
	}
	out := make([]float64, len(sweep)-1)
	prevPhase := cmplx.Phase(sweep[0].S21)
	for i := 1; i < len(sweep); i++ {
		ph := cmplx.Phase(sweep[i].S21)
		dph := ph - prevPhase
		// Unwrap.
		for dph > math.Pi {
			dph -= 2 * math.Pi
		}
		for dph < -math.Pi {
			dph += 2 * math.Pi
		}
		dw := 2 * math.Pi * (sweep[i].F - sweep[i-1].F)
		out[i-1] = -dph / dw
		prevPhase = ph
	}
	return out
}
