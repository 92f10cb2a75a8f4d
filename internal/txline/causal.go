package txline

import (
	"math"
	"sort"

	"roughsim/internal/resilience"
)

// CausalRoughness converts a real loss-enhancement profile K(f) into the
// complex, causality-consistent correction factor for the conductor's
// internal impedance.
//
// Multiplying only the series resistance by K(f) — the naive use of the
// roughness factor — produces a non-causal line model: extra loss must
// be accompanied by extra internal inductance (this is the point of the
// "causal transmission line modeling" methodology of Hall et al. [5]).
// The smooth-conductor internal impedance Z_int ∝ (1+j)·Rs(f) is already
// causal, so it suffices to build a causal multiplicative correction
// K_c(f) with Re K_c = K: by the Kramers–Kronig relation for a function
// analytic in the upper half-plane that tends to a real constant K(∞),
//
//	Im K_c(f) = (2f/π)·P∫₀^∞ [K(ν) − K(∞)] / (ν² − f²) dν
//
// The transform is evaluated numerically from K samples on a frequency
// grid with singularity extraction; beyond the grid K is extrapolated as
// its last value (the saturating behaviour all roughness models share).
type CausalRoughness struct {
	freqs []float64
	k     []float64
	kInf  float64
	// g holds K(ν_i) − K(∞) at hilbert's hilbertNodes midpoint nodes,
	// computed once so every evaluation of X reads the table.
	g []float64
}

// hilbertNodes is the number of midpoint nodes of hilbert's quadrature.
const hilbertNodes = 4000

// NewCausalRoughness builds the correction from K samples at the given
// frequencies (Hz). Frequencies must be positive, finite and distinct;
// they are sorted internally. K samples must be ≥ 1 and finite (NaN and
// ±Inf are rejected, not silently absorbed into the quadrature). At
// least 4 points are required.
func NewCausalRoughness(freqs, k []float64) (*CausalRoughness, error) {
	const op = "txline.NewCausalRoughness"
	if len(freqs) != len(k) || len(freqs) < 4 {
		return nil, resilience.Errorf(resilience.KindInvalidInput, op,
			"causal roughness needs ≥ 4 matched samples (got %d freqs, %d K values)", len(freqs), len(k))
	}
	type pair struct{ f, k float64 }
	ps := make([]pair, len(freqs))
	for i := range freqs {
		// !(f > 0) catches NaN as well as non-positive values.
		if !(freqs[i] > 0) || math.IsInf(freqs[i], 0) {
			return nil, resilience.Errorf(resilience.KindInvalidInput, op,
				"sample %d: frequency must be positive and finite (got %g Hz)", i, freqs[i])
		}
		if math.IsNaN(k[i]) || math.IsInf(k[i], 0) {
			return nil, resilience.Errorf(resilience.KindNumerical, op,
				"sample %d: K(%g Hz) is not finite (%g)", i, freqs[i], k[i])
		}
		if k[i] < 1 {
			return nil, resilience.Errorf(resilience.KindInvalidInput, op,
				"sample %d: K(%g Hz) = %g < 1 is unphysical", i, freqs[i], k[i])
		}
		ps[i] = pair{freqs[i], k[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].f < ps[b].f })
	c := &CausalRoughness{}
	for i, p := range ps {
		if i > 0 && p.f == ps[i-1].f {
			return nil, resilience.Errorf(resilience.KindInvalidInput, op,
				"duplicate frequency sample %g Hz", p.f)
		}
		c.freqs = append(c.freqs, p.f)
		c.k = append(c.k, p.k)
	}
	c.kInf = c.k[len(c.k)-1]
	// The node table: ν_i rises monotonically, so K(ν)'s sample index j
	// is walked forward instead of binary-searched at each node.
	h := c.freqs[len(c.freqs)-1] / hilbertNodes
	c.g = make([]float64, hilbertNodes)
	j := 0
	for i := range c.g {
		nu := (float64(i) + 0.5) * h
		for j < len(c.freqs) && c.freqs[j] < nu {
			j++
		}
		c.g[i] = c.kAt(j, nu) - c.kInf
	}
	return c, nil
}

// K returns the interpolated real factor at f (clamped to the sample
// range, matching the saturating physics).
func (c *CausalRoughness) K(f float64) float64 {
	return c.kAt(sort.SearchFloat64s(c.freqs, f), f)
}

// kAt is K(f) given i = sort.SearchFloat64s(c.freqs, f).
func (c *CausalRoughness) kAt(i int, f float64) float64 {
	switch i {
	case 0:
		return c.k[0]
	case len(c.freqs):
		return c.kInf
	}
	t := (f - c.freqs[i-1]) / (c.freqs[i] - c.freqs[i-1])
	return c.k[i-1]*(1-t) + c.k[i]*t
}

// Factor returns the complex causal correction K_c(f) = K(f) + j·X(f).
func (c *CausalRoughness) Factor(f float64) complex128 {
	return complex(c.K(f), c.hilbert(f))
}

// hilbert evaluates the Kramers–Kronig integral by composite midpoint
// quadrature on a linear grid of hilbertNodes nodes over (0, νmax],
// with the principal-value singularity removed analytically:
//
//	X(f) = (2f/π)·∫₀^{νmax} [g(ν) − g(f)]/(ν²−f²) dν
//	     + (2f/π)·g(f)·P∫₀^{νmax} dν/(ν²−f²),
//
// where g = K − K(∞) vanishes beyond the sampled band νmax, so the
// integration range is finite, and the second integral has the closed
// form (1/2f)·ln|(νmax−f)/(νmax+f)|. A linear grid is adequate: the
// integrand is smooth after the singularity extraction and the band is
// at most a few decades. g(ν_i) at the nodes comes from the table c.g,
// built once by NewCausalRoughness; only f-dependent work runs here.
func (c *CausalRoughness) hilbert(f float64) float64 {
	nuMax := c.freqs[len(c.freqs)-1]
	gf := 0.0
	if f < nuMax {
		gf = c.K(f) - c.kInf
	}
	var sum float64
	h := nuMax / hilbertNodes
	for i, g := range c.g {
		nu := (float64(i) + 0.5) * h
		den := nu*nu - f*f
		if math.Abs(den) < 1e-12*f*f+1e-300 {
			continue
		}
		sum += (g - gf) / den * h
	}
	x := 2 * f / math.Pi * sum
	// Closed-form principal value of ∫₀^{νmax} dν/(ν²−f²)
	//  = (1/2f)·ln|(νmax−f)/(νmax+f)| for f ≠ νmax.
	if gf != 0 && math.Abs(nuMax-f) > 1e-12*f {
		pv := 1 / (2 * f) * math.Log(math.Abs((nuMax-f)/(nuMax+f)))
		x += 2 * f / math.Pi * gf * pv
	}
	return x
}
