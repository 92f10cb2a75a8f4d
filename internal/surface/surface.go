package surface

import (
	"fmt"
	"math"

	"roughsim/internal/fft"
)

// Surface is one realization of the conductor surface over a doubly
// periodic L×L patch sampled on an M×M grid (row-major: index = iy*M+ix,
// x = ix·h, y = iy·h, h = L/M).
type Surface struct {
	L float64   // patch period (m)
	M int       // grid points per side
	H []float64 // heights (m), len M·M

	// Optional analytic derivatives. When non-nil they are returned by
	// Gradients/SecondDerivs instead of spectral differentiation —
	// needed for shapes that are not band-limited (e.g. the Fig. 5
	// spheroid, whose rim makes spectral derivatives ring).
	AnFx, AnFy          []float64
	AnFxx, AnFyy, AnFxy []float64
}

// NewFlat returns the flat reference surface (all heights zero).
func NewFlat(L float64, M int) *Surface {
	if L <= 0 || M <= 0 {
		panic("surface: NewFlat needs L > 0, M > 0")
	}
	return &Surface{L: L, M: M, H: make([]float64, M*M)}
}

// Step returns the grid spacing h = L/M.
func (s *Surface) Step() float64 { return s.L / float64(s.M) }

// At returns the height at grid node (ix, iy) with periodic wrapping.
func (s *Surface) At(ix, iy int) float64 {
	m := s.M
	ix = ((ix % m) + m) % m
	iy = ((iy % m) + m) % m
	return s.H[iy*m+ix]
}

// Mean returns the mean height.
func (s *Surface) Mean() float64 {
	var sum float64
	for _, v := range s.H {
		sum += v
	}
	return sum / float64(len(s.H))
}

// RMS returns the root-mean-square height about zero (the model's mean
// plane), which estimates σ for a zero-mean process.
func (s *Surface) RMS() float64 {
	var sum float64
	for _, v := range s.H {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(s.H)))
}

// Gradients returns the surface derivatives f_x and f_y on the grid:
// the analytic ones when provided, otherwise spectral derivatives
// consistent with the doubly-periodic continuation of the surface.
//
// Spectral derivatives of heights that some lattice shifts leave
// invariant (InvariantOrbits) are invariant too, but the transform
// rounds each cell along its own path, so every cell takes its orbit
// representative's value: cells of one orbit then have the same local
// geometry bit for bit, which the MoM quotient-lattice build reads
// (DESIGN §9 "Quotient-lattice systems"). When one orbit holds every
// cell (a flat or rigidly shifted surface) the derivatives are exactly
// zero and are returned directly: the transform leaves rounding noise
// in the non-DC bins on grids that are not powers of two (curvatures up
// to ~1e-10/m for a 30 nm shift at M = 20).
func (s *Surface) Gradients() (fx, fy []float64) {
	if s.AnFx != nil && s.AnFy != nil {
		return s.AnFx, s.AnFy
	}
	m := s.M
	n := m * m
	o := InvariantOrbits(m, s.H)
	if len(o.Reps) == 1 {
		return make([]float64, n), make([]float64, n)
	}
	c := make([]complex128, n)
	for i, v := range s.H {
		c[i] = complex(v, 0)
	}
	spec := fft.Forward2D(c, m, m)
	dx := make([]complex128, n)
	dy := make([]complex128, n)
	for iy := 0; iy < m; iy++ {
		ky := waveIndex(iy, m) * 2 * math.Pi / s.L
		for ix := 0; ix < m; ix++ {
			kx := waveIndex(ix, m) * 2 * math.Pi / s.L
			v := spec[iy*m+ix]
			// Zero the unmatched Nyquist derivative component: a real
			// signal's Nyquist mode has no well-defined odd derivative.
			kxe, kye := kx, ky
			if m%2 == 0 && ix == m/2 {
				kxe = 0
			}
			if m%2 == 0 && iy == m/2 {
				kye = 0
			}
			dx[iy*m+ix] = v * complex(0, kxe)
			dy[iy*m+ix] = v * complex(0, kye)
		}
	}
	gx := fft.Inverse2D(dx, m, m)
	gy := fft.Inverse2D(dy, m, m)
	fx = make([]float64, n)
	fy = make([]float64, n)
	for i := range fx {
		fx[i] = real(gx[i])
		fy[i] = real(gy[i])
	}
	o.Symmetrize(fx)
	o.Symmetrize(fy)
	return fx, fy
}

// SecondDerivs returns the spectral second derivatives f_xx, f_yy and
// the mixed f_xy on the grid — the MoM assembly needs the full local
// Hessian for the curvature correction of the double-layer self term and
// for second-order near-field source-cell geometry. Like Gradients', they
// carry the heights' lattice-shift invariance bit for bit.
func (s *Surface) SecondDerivs() (fxx, fyy, fxy []float64) {
	if s.AnFxx != nil && s.AnFyy != nil && s.AnFxy != nil {
		return s.AnFxx, s.AnFyy, s.AnFxy
	}
	m := s.M
	n := m * m
	o := InvariantOrbits(m, s.H)
	if len(o.Reps) == 1 {
		return make([]float64, n), make([]float64, n), make([]float64, n)
	}
	c := make([]complex128, n)
	for i, v := range s.H {
		c[i] = complex(v, 0)
	}
	spec := fft.Forward2D(c, m, m)
	dxx := make([]complex128, n)
	dyy := make([]complex128, n)
	dxy := make([]complex128, n)
	for iy := 0; iy < m; iy++ {
		ky := waveIndex(iy, m) * 2 * math.Pi / s.L
		kye := ky
		if m%2 == 0 && iy == m/2 {
			kye = 0 // unmatched Nyquist mode has no odd derivative
		}
		for ix := 0; ix < m; ix++ {
			kx := waveIndex(ix, m) * 2 * math.Pi / s.L
			kxe := kx
			if m%2 == 0 && ix == m/2 {
				kxe = 0
			}
			v := spec[iy*m+ix]
			dxx[iy*m+ix] = v * complex(-kx*kx, 0)
			dyy[iy*m+ix] = v * complex(-ky*ky, 0)
			dxy[iy*m+ix] = v * complex(-kxe*kye, 0)
		}
	}
	gx := fft.Inverse2D(dxx, m, m)
	gy := fft.Inverse2D(dyy, m, m)
	gxy := fft.Inverse2D(dxy, m, m)
	fxx = make([]float64, n)
	fyy = make([]float64, n)
	fxy = make([]float64, n)
	for i := range fxx {
		fxx[i] = real(gx[i])
		fyy[i] = real(gy[i])
		fxy[i] = real(gxy[i])
	}
	for _, v := range [][]float64{fxx, fyy, fxy} {
		o.Symmetrize(v)
	}
	return fxx, fyy, fxy
}

// waveIndex maps a DFT bin to its signed integer wavenumber.
func waveIndex(i, m int) float64 {
	if i <= m/2 {
		return float64(i)
	}
	return float64(i - m)
}

// CorrEstimate returns the circularly averaged empirical correlation of
// the surface at integer lag cells (lag 0 … M/2), useful for verifying
// that synthesized surfaces honor the target CF.
func (s *Surface) CorrEstimate() []float64 {
	m := s.M
	out := make([]float64, m/2+1)
	for lag := 0; lag <= m/2; lag++ {
		var sum float64
		var cnt int
		for iy := 0; iy < m; iy++ {
			for ix := 0; ix < m; ix++ {
				v := s.H[iy*m+ix]
				sum += v * s.At(ix+lag, iy)
				sum += v * s.At(ix, iy+lag)
				cnt += 2
			}
		}
		out[lag] = sum / float64(cnt)
	}
	return out
}

// HalfSpheroid builds the deterministic protrusion of the Fig. 5
// experiment: a half-spheroid of height h and base radius a centered in
// the patch, on an otherwise flat plane:
// f(r) = h·sqrt(1 − r²/a²) for r < a, else 0.
func HalfSpheroid(L float64, M int, h, a float64) *Surface {
	if a >= L/2 {
		panic(fmt.Sprintf("surface: spheroid base radius %g must fit in half the patch %g", a, L/2))
	}
	s := NewFlat(L, M)
	step := L / float64(M)
	cx, cy := L/2, L/2
	for iy := 0; iy < M; iy++ {
		for ix := 0; ix < M; ix++ {
			dx := float64(ix)*step - cx
			dy := float64(iy)*step - cy
			r2 := (dx*dx + dy*dy) / (a * a)
			if r2 < 1 {
				s.H[iy*M+ix] = h * math.Sqrt(1-r2)
			}
		}
	}
	return s
}

// SmoothSpheroid builds a rim-regularized protrusion for the Fig. 5
// experiment: f(r) = h·(1 − r²/a²)^{3/2} for r < a, else 0. Unlike the
// exact half-spheroid its slope vanishes at the rim, so the surface is
// C¹ and its analytic derivatives (attached to the returned Surface) are
// bounded everywhere. The bulk shape is close, but the volume is not: the
// smoothed boss holds (2/5)πa²h, 0.60 of the half-spheroid's (2/3)πa²h,
// so the half-spheroid's volume-equivalent HBM radius
// (hbm.EquivalentSphereRadius) is 0.60^{−1/3} ≈ 1.19 times that of the
// surface actually solved.
func SmoothSpheroid(L float64, M int, h, a float64) *Surface {
	if a >= L/2 {
		panic(fmt.Sprintf("surface: spheroid base radius %g must fit in half the patch %g", a, L/2))
	}
	s := NewFlat(L, M)
	n := M * M
	s.AnFx = make([]float64, n)
	s.AnFy = make([]float64, n)
	s.AnFxx = make([]float64, n)
	s.AnFyy = make([]float64, n)
	s.AnFxy = make([]float64, n)
	step := L / float64(M)
	cx, cy := L/2, L/2
	a2 := a * a
	for iy := 0; iy < M; iy++ {
		for ix := 0; ix < M; ix++ {
			dx := float64(ix)*step - cx
			dy := float64(iy)*step - cy
			u := (dx*dx + dy*dy) / a2
			if u >= 1 {
				continue
			}
			i := iy*M + ix
			w := 1 - u
			sq := math.Sqrt(w)
			s.H[i] = h * w * sq // h·(1−u)^{3/2}
			// ∂u/∂x = 2x/a², f = h(1−u)^{3/2} ⇒ f_x = −3h√(1−u)·x/a².
			s.AnFx[i] = -3 * h * sq * dx / a2
			s.AnFy[i] = -3 * h * sq * dy / a2
			// f_xx = −3h/a²·[√(1−u) − x²/(a²√(1−u))]: the 1/√(1−u)
			// factor diverges at the rim (the C¹ surface is not C²
			// there); clamp it at √(1−u) ≥ 1/4, which caps the
			// curvature within the outermost few percent of the base
			// radius while leaving the bulk exact.
			inv := 1 / math.Max(sq, 0.25)
			s.AnFxx[i] = -3 * h / a2 * (sq - dx*dx/a2*inv)
			s.AnFyy[i] = -3 * h / a2 * (sq - dy*dy/a2*inv)
			s.AnFxy[i] = 3 * h * dx * dy / (a2 * a2) * inv
		}
	}
	return s
}

// Profile is a 1-D periodic surface profile (uniform along y), used by
// the 2D SWM variant of Fig. 6.
type Profile struct {
	L float64
	M int
	H []float64 // len M
}

// NewFlatProfile returns an all-zero profile.
func NewFlatProfile(L float64, M int) *Profile {
	if L <= 0 || M <= 0 {
		panic("surface: NewFlatProfile needs L > 0, M > 0")
	}
	return &Profile{L: L, M: M, H: make([]float64, M)}
}

// Step returns the grid spacing.
func (p *Profile) Step() float64 { return p.L / float64(p.M) }

// RMS returns the RMS height of the profile.
func (p *Profile) RMS() float64 {
	var sum float64
	for _, v := range p.H {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(p.H)))
}

// SecondDeriv returns the spectral second derivative d²f/dx² of the
// periodic profile (needed for the 2D MoM curvature self term).
func (p *Profile) SecondDeriv() []float64 {
	m := p.M
	c := make([]complex128, m)
	for i, v := range p.H {
		c[i] = complex(v, 0)
	}
	spec := fft.Forward(c)
	for i := 0; i < m; i++ {
		k := waveIndex(i, m) * 2 * math.Pi / p.L
		spec[i] *= complex(-k*k, 0)
	}
	g := fft.Inverse(spec)
	out := make([]float64, m)
	for i := range out {
		out[i] = real(g[i])
	}
	return out
}

// Gradient returns the spectral derivative df/dx of the periodic profile.
func (p *Profile) Gradient() []float64 {
	m := p.M
	c := make([]complex128, m)
	for i, v := range p.H {
		c[i] = complex(v, 0)
	}
	spec := fft.Forward(c)
	for i := 0; i < m; i++ {
		k := waveIndex(i, m) * 2 * math.Pi / p.L
		if m%2 == 0 && i == m/2 {
			k = 0
		}
		spec[i] *= complex(0, k)
	}
	g := fft.Inverse(spec)
	out := make([]float64, m)
	for i := range out {
		out[i] = real(g[i])
	}
	return out
}
