package surface

import (
	"fmt"
	"math"
	"sort"

	"roughsim/internal/fft"
	"roughsim/internal/rng"
)

// KL is the Karhunen–Loève expansion of the stationary height process on
// the periodic M×M grid. Because the covariance matrix of a stationary
// process on a periodic grid is block-circulant, its exact
// eigendecomposition is the 2-D DFT: eigenvalues are the DFT of the
// covariance stencil and eigenfunctions are Fourier (cosine/sine) modes.
// This replaces the O(N³) dense eigensolve the paper alludes to with an
// O(N log N) construction that is exact for the periodic patch; a test
// verifies it against the dense Jacobi solver on small grids.
//
// A truncated KL with d modes drives the SSCM collocation: the surface is
// f = Σ_{j<d} sqrt(λ_j)·ξ_j·v_j with iid standard normal ξ_j.
type KL struct {
	L     float64
	M     int
	Modes []KLMode // sorted by descending eigenvalue
	total float64  // Σ over all N eigenvalues (= M²·σ² for exact PSDs)
}

// KLMode is one real Fourier eigenmode of the periodic covariance.
type KLMode struct {
	Lambda float64 // eigenvalue of the N×N covariance matrix
	Mx, My int     // signed integer wavenumbers
	Sin    bool    // false: cosine mode; true: sine mode
	norm   float64 // 1/M (self-conjugate) or √2/M (paired)
}

// NewKL builds the exact periodic KL decomposition for correlation c on
// an M×M grid of period L. Distances use the minimum image convention,
// which periodizes the CF; for L ≳ 5η the wrap-around contribution is
// negligible, matching the paper's L = 5η patch choice.
func NewKL(c Corr, L float64, M int) *KL {
	if L <= 0 || M < 2 {
		panic("surface: NewKL needs L > 0, M ≥ 2")
	}
	h := L / float64(M)
	stencil := make([]float64, M*M)
	for iy := 0; iy < M; iy++ {
		dy := minImage(iy, M) * h
		for ix := 0; ix < M; ix++ {
			dx := minImage(ix, M) * h
			stencil[iy*M+ix] = c.At(math.Hypot(dx, dy))
		}
	}
	return newKLFromStencil(stencil, L, M)
}

// newKLFromStencil diagonalizes a periodic covariance stencil (the
// shared core of NewKL and NewKL2D).
func newKLFromStencil(stencil []float64, L float64, M int) *KL {
	n := M * M
	cs := make([]complex128, n)
	for i, v := range stencil {
		cs[i] = complex(v, 0)
	}
	spec := fft.Forward2D(cs, M, M)
	rep := orbitRep(stencil, M)

	kl := &KL{L: L, M: M}
	seen := make([]bool, n)
	for iy := 0; iy < M; iy++ {
		for ix := 0; ix < M; ix++ {
			idx := iy*M + ix
			if seen[idx] {
				continue
			}
			lam := real(spec[rep(ix, iy)])
			if lam < 0 {
				// Tiny negative values can appear for periodized CFs;
				// clamp (they are below double round-off of the trace).
				lam = 0
			}
			cx := (M - ix) % M
			cy := (M - iy) % M
			conj := cy*M + cx
			mx := int(waveIndex(ix, M))
			my := int(waveIndex(iy, M))
			if conj == idx {
				// Self-conjugate bin: single real cosine mode.
				seen[idx] = true
				kl.Modes = append(kl.Modes, KLMode{Lambda: lam, Mx: mx, My: my, norm: 1 / float64(M)})
			} else {
				seen[idx], seen[conj] = true, true
				nrm := math.Sqrt2 / float64(M)
				kl.Modes = append(kl.Modes,
					KLMode{Lambda: lam, Mx: mx, My: my, norm: nrm},
					KLMode{Lambda: lam, Mx: mx, My: my, Sin: true, norm: nrm},
				)
			}
		}
	}
	sort.SliceStable(kl.Modes, func(a, b int) bool { return kl.Modes[a].Lambda > kl.Modes[b].Lambda })
	for _, m := range kl.Modes {
		kl.total += m.Lambda
	}
	return kl
}

// orbitRep returns, for a spectral bin (ix, iy), the index of the bin
// whose eigenvalue stands for its whole symmetry orbit. A stencil even in
// an axis has a spectrum even in it, and a stencil equal to its transpose
// a spectrum symmetric under kx↔ky; the symmetries are checked bitwise.
// Mathematically degenerate eigenvalues such as (1,0)/(0,1) then read one
// value and are bitwise equal, so the stable mode sort keeps generation
// order inside a degenerate group instead of ordering it by transform
// rounding noise.
func orbitRep(stencil []float64, M int) func(ix, iy int) int {
	evenX, evenY, transposed := true, true, true
	for iy := 0; iy < M; iy++ {
		for ix := 0; ix < M; ix++ {
			v := stencil[iy*M+ix]
			evenX = evenX && v == stencil[iy*M+(M-ix)%M]
			evenY = evenY && v == stencil[(M-iy)%M*M+ix]
			transposed = transposed && v == stencil[ix*M+iy]
		}
	}
	return func(ix, iy int) int {
		if evenX {
			ix = min(ix, M-ix)
		}
		if evenY {
			iy = min(iy, M-iy)
		}
		if transposed && ix > iy {
			ix, iy = iy, ix
		}
		return iy*M + ix
	}
}

func minImage(i, m int) float64 {
	if i > m/2 {
		return float64(i - m)
	}
	return float64(i)
}

// TotalVariance returns the point variance of the full (untruncated)
// process, Σλ/N; for a well-resolved CF this equals σ².
func (k *KL) TotalVariance() float64 {
	return k.total / float64(k.M*k.M)
}

// CapturedVariance returns the fraction of the total variance carried by
// the first d modes.
func (k *KL) CapturedVariance(d int) float64 {
	if d > len(k.Modes) {
		d = len(k.Modes)
	}
	var s float64
	for _, m := range k.Modes[:d] {
		s += m.Lambda
	}
	return s / k.total
}

// TruncationForVariance returns the smallest d whose modes capture at
// least the given fraction of total variance.
func (k *KL) TruncationForVariance(frac float64) int {
	if frac <= 0 {
		return 0
	}
	target := frac * k.total
	var s float64
	for d, m := range k.Modes {
		s += m.Lambda
		if s >= target {
			return d + 1
		}
	}
	return len(k.Modes)
}

// Synthesize builds the surface realization for KL coordinates xi,
// using the first len(xi) modes: f = Σ sqrt(λ_j)·ξ_j·v_j. Each mode's
// phase index Mx·ix + My·iy is reduced mod M before the phase is taken,
// so the cells a lattice shift t with Mx·tx + My·ty ≡ 0 (mod M) maps
// onto each other get bitwise equal heights (see InvariantOrbits).
func (k *KL) Synthesize(xi []float64) *Surface {
	d := len(xi)
	if d > len(k.Modes) {
		panic(fmt.Sprintf("surface: %d KL coordinates but only %d modes", d, len(k.Modes)))
	}
	m := k.M
	s := NewFlat(k.L, m)
	for j := 0; j < d; j++ {
		mode := k.Modes[j]
		amp := math.Sqrt(mode.Lambda) * xi[j] * mode.norm
		if amp == 0 {
			continue
		}
		for iy := 0; iy < m; iy++ {
			for ix := 0; ix < m; ix++ {
				ph := 2 * math.Pi * float64(((mode.Mx*ix+mode.My*iy)%m+m)%m) / float64(m)
				var b float64
				if mode.Sin {
					b = math.Sin(ph)
				} else {
					b = math.Cos(ph)
				}
				s.H[iy*m+ix] += amp * b
			}
		}
	}
	return s
}

// Sample draws a full-rank realization (all modes) — the Monte-Carlo
// sampler. It is equivalent in distribution to spectral synthesis with
// Hermitian Gaussian spectra.
func (k *KL) Sample(src *rng.Source) *Surface {
	xi := src.NormVec(len(k.Modes))
	return k.Synthesize(xi)
}

// SampleTruncated draws a realization using only the first d modes, as
// the SSCM surrogate does.
func (k *KL) SampleTruncated(src *rng.Source, d int) *Surface {
	xi := src.NormVec(d)
	return k.Synthesize(xi)
}

// KL1D is the one-dimensional analogue for periodic profiles (2D SWM).
type KL1D struct {
	L     float64
	M     int
	Modes []KLMode // My unused (0)
	total float64
}

// NewKL1D builds the periodic KL decomposition of a 1-D profile process.
func NewKL1D(c Corr, L float64, M int) *KL1D {
	if L <= 0 || M < 2 {
		panic("surface: NewKL1D needs L > 0, M ≥ 2")
	}
	h := L / float64(M)
	stencil := make([]complex128, M)
	for i := 0; i < M; i++ {
		stencil[i] = complex(c.At(math.Abs(minImage(i, M))*h), 0)
	}
	spec := fft.Forward(stencil)
	kl := &KL1D{L: L, M: M}
	seen := make([]bool, M)
	for i := 0; i < M; i++ {
		if seen[i] {
			continue
		}
		lam := real(spec[i])
		if lam < 0 {
			lam = 0
		}
		conj := (M - i) % M
		mx := int(waveIndex(i, M))
		if conj == i {
			seen[i] = true
			kl.Modes = append(kl.Modes, KLMode{Lambda: lam, Mx: mx, norm: 1 / math.Sqrt(float64(M))})
		} else {
			seen[i], seen[conj] = true, true
			nrm := math.Sqrt2 / math.Sqrt(float64(M))
			kl.Modes = append(kl.Modes,
				KLMode{Lambda: lam, Mx: mx, norm: nrm},
				KLMode{Lambda: lam, Mx: mx, Sin: true, norm: nrm},
			)
		}
	}
	sort.SliceStable(kl.Modes, func(a, b int) bool { return kl.Modes[a].Lambda > kl.Modes[b].Lambda })
	for _, m := range kl.Modes {
		kl.total += m.Lambda
	}
	return kl
}

// TotalVariance returns Σλ/M.
func (k *KL1D) TotalVariance() float64 { return k.total / float64(k.M) }

// CapturedVariance returns the fraction of total variance carried by the
// first d modes.
func (k *KL1D) CapturedVariance(d int) float64 {
	if d > len(k.Modes) {
		d = len(k.Modes)
	}
	var s float64
	for _, m := range k.Modes[:d] {
		s += m.Lambda
	}
	return s / k.total
}

// TruncationForVariance returns the smallest d capturing at least frac
// of the total variance.
func (k *KL1D) TruncationForVariance(frac float64) int {
	if frac <= 0 {
		return 0
	}
	target := frac * k.total
	var s float64
	for d, m := range k.Modes {
		s += m.Lambda
		if s >= target {
			return d + 1
		}
	}
	return len(k.Modes)
}

// Synthesize builds the profile for the first len(xi) modes.
func (k *KL1D) Synthesize(xi []float64) *Profile {
	d := len(xi)
	if d > len(k.Modes) {
		panic("surface: too many KL1D coordinates")
	}
	p := NewFlatProfile(k.L, k.M)
	for j := 0; j < d; j++ {
		mode := k.Modes[j]
		amp := math.Sqrt(mode.Lambda) * xi[j] * mode.norm
		for i := 0; i < k.M; i++ {
			ph := 2 * math.Pi * float64(mode.Mx*i) / float64(k.M)
			if mode.Sin {
				p.H[i] += amp * math.Sin(ph)
			} else {
				p.H[i] += amp * math.Cos(ph)
			}
		}
	}
	return p
}

// Sample draws a full-rank profile realization.
func (k *KL1D) Sample(src *rng.Source) *Profile {
	return k.Synthesize(src.NormVec(len(k.Modes)))
}
