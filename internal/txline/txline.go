// Package txline applies the roughness loss-enhancement factor K(f) to a
// transmission-line model of a PCB interconnect — the application that
// motivates the paper's introduction (insertion loss and signal
// integrity prediction).
//
// The line is a microstrip described by the Hammerstad–Jensen closed
// forms. Its conductor internal impedance (1+j)·Rs(f) is multiplied by
// the causal factor K_c(f) = K(f) + jX(f) that CausalRoughness builds
// from any roughness model's K(f) (SWM, SPM2, HBM, or the empirical
// formula), so roughness adds internal inductance along with loss, and
// the resulting RLGC cascade yields S-parameters and insertion loss.
package txline

import (
	"math"
	"math/cmplx"

	"roughsim/internal/resilience"
	"roughsim/internal/units"
)

// Microstrip is a surface trace over a reference plane.
type Microstrip struct {
	Width    float64 // trace width w (m)
	Height   float64 // dielectric height h (m)
	EpsR     float64 // substrate relative permittivity
	TanDelta float64 // substrate loss tangent
	Rho      float64 // conductor resistivity (Ω·m)
}

// finitePositive reports whether v is a finite value > 0 (NaN fails
// every comparison, so !(v > 0) catches it too).
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 0) }

// Validate checks the geometry and material fields, naming the
// offending field in a typed invalid-input error so an API tier can
// map it straight to a 400.
func (ms Microstrip) Validate() error {
	const op = "txline.Microstrip"
	switch {
	case !finitePositive(ms.Width):
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"width must be positive and finite (got %g)", ms.Width)
	case !finitePositive(ms.Height):
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"height must be positive and finite (got %g)", ms.Height)
	case !(ms.EpsR >= 1) || math.IsInf(ms.EpsR, 0):
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"eps_r must be ≥ 1 and finite (got %g)", ms.EpsR)
	case !(ms.TanDelta >= 0) || math.IsInf(ms.TanDelta, 0):
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"tan_delta must be ≥ 0 and finite (got %g)", ms.TanDelta)
	case !finitePositive(ms.Rho):
		return resilience.Errorf(resilience.KindInvalidInput, op,
			"rho must be positive and finite (got %g)", ms.Rho)
	}
	return nil
}

// EffectivePermittivity returns the quasi-static ε_eff of the microstrip
// (Hammerstad–Jensen).
func (ms Microstrip) EffectivePermittivity() float64 {
	u := ms.Width / ms.Height
	return (ms.EpsR+1)/2 + (ms.EpsR-1)/2/math.Sqrt(1+12/u)
}

// Z0 returns the quasi-static characteristic impedance (Ω).
func (ms Microstrip) Z0() float64 {
	u := ms.Width / ms.Height
	ee := ms.EffectivePermittivity()
	if u >= 1 {
		return 120 * math.Pi / (math.Sqrt(ee) * (u + 1.393 + 0.667*math.Log(u+1.444)))
	}
	return 60 / math.Sqrt(ee) * math.Log(8/u+u/4)
}

// RLGC returns the per-unit-length parameters at frequency f with the
// complex causal roughness factor kc applied to the conductor internal
// impedance (kc = 1 for a smooth conductor): the series branch becomes
// jωL_ext + (1+j)·(2Rs/w)·K_c(f), so r absorbs Re{(1+j)·K_c} and l gains
// the internal contribution Im{(1+j)·K_c}/ω. The 2Rs/w is the skin-effect
// resistance of trace plus return plane, both roughened in the paper's
// scenario. Out-of-domain input yields a typed invalid-input error, a
// non-finite kc a typed numerical one (never a panic): an API tier maps
// them to a 400 naming the field.
func (ms Microstrip) RLGC(f float64, kc complex128) (r, l, c, g float64, err error) {
	const op = "txline.RLGC"
	if err := ms.Validate(); err != nil {
		return 0, 0, 0, 0, err
	}
	if !finitePositive(f) {
		return 0, 0, 0, 0, resilience.Errorf(resilience.KindInvalidInput, op,
			"frequency must be positive and finite (got %g Hz)", f)
	}
	if cmplx.IsNaN(kc) || cmplx.IsInf(kc) {
		return 0, 0, 0, 0, resilience.Errorf(resilience.KindNumerical, op,
			"correction factor is not finite (%v)", kc)
	}
	if real(kc) < 1 {
		return 0, 0, 0, 0, resilience.Errorf(resilience.KindInvalidInput, op,
			"Re K_c = %g < 1 is unphysical", real(kc))
	}
	z0 := ms.Z0()
	ee := ms.EffectivePermittivity()
	v := units.C0 / math.Sqrt(ee)
	c = 1 / (z0 * v)
	rs := units.SurfaceResistance(f, ms.Rho)
	zint := complex(1, 1) * complex(2*rs/ms.Width, 0) * kc
	r = real(zint)
	w := units.AngularFreq(f)
	l = z0/v + imag(zint)/w
	g = w * c * ms.TanDelta
	return r, l, c, g, nil
}

// ABCD is a 2×2 complex transmission (chain) matrix.
type ABCD struct{ A, B, C, D complex128 }

// LineABCD returns the chain matrix of a uniform line of length ell with
// per-unit-length RLGC values at frequency f. Out-of-domain input yields
// a typed invalid-input error naming the offending parameter.
func LineABCD(f, ell, r, l, c, g float64) (ABCD, error) {
	const op = "txline.LineABCD"
	switch {
	case !finitePositive(f):
		return ABCD{}, resilience.Errorf(resilience.KindInvalidInput, op,
			"frequency must be positive and finite (got %g Hz)", f)
	case !finitePositive(ell):
		return ABCD{}, resilience.Errorf(resilience.KindInvalidInput, op,
			"length must be positive and finite (got %g m)", ell)
	case !(r >= 0) || math.IsInf(r, 0):
		return ABCD{}, resilience.Errorf(resilience.KindInvalidInput, op,
			"series resistance must be ≥ 0 and finite (got %g Ω/m)", r)
	case !finitePositive(l):
		return ABCD{}, resilience.Errorf(resilience.KindInvalidInput, op,
			"series inductance must be positive and finite (got %g H/m)", l)
	case !finitePositive(c):
		return ABCD{}, resilience.Errorf(resilience.KindInvalidInput, op,
			"shunt capacitance must be positive and finite (got %g F/m)", c)
	case !(g >= 0) || math.IsInf(g, 0):
		return ABCD{}, resilience.Errorf(resilience.KindInvalidInput, op,
			"shunt conductance must be ≥ 0 and finite (got %g S/m)", g)
	}
	w := units.AngularFreq(f)
	zs := complex(r, w*l)
	yp := complex(g, w*c)
	gamma := cmplx.Sqrt(zs * yp)
	zc := cmplx.Sqrt(zs / yp)
	gl := gamma * complex(ell, 0)
	return ABCD{
		A: cmplx.Cosh(gl),
		B: zc * cmplx.Sinh(gl),
		C: cmplx.Sinh(gl) / zc,
		D: cmplx.Cosh(gl),
	}, nil
}

// S21 converts a chain matrix to the forward transmission coefficient in
// a z0-referenced system.
func (m ABCD) S21(z0 float64) complex128 {
	z := complex(z0, 0)
	den := m.A + m.B/z + m.C*z + m.D
	return 2 / den
}

// S11 returns the input reflection coefficient in a z0 system.
func (m ABCD) S11(z0 float64) complex128 {
	z := complex(z0, 0)
	den := m.A + m.B/z + m.C*z + m.D
	return (m.A + m.B/z - m.C*z - m.D) / den
}

// InsertionLossDB returns −20·log10|S21| of a length-ell microstrip at
// frequency f with the causal roughness factor kc, referenced to z0.
func InsertionLossDB(ms Microstrip, ell, f, z0 float64, kc complex128) (float64, error) {
	r, l, c, g, err := ms.RLGC(f, kc)
	if err != nil {
		return 0, err
	}
	m, err := LineABCD(f, ell, r, l, c, g)
	if err != nil {
		return 0, err
	}
	return -20 * math.Log10(cmplx.Abs(m.S21(z0))), nil
}
