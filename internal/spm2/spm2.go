// Package spm2 implements the second-order small-perturbation method
// (SPM2) baseline of the paper (ref. [8], Gu–Tsang–Braunisch), derived
// here for the same two-medium scalar wave problem that the SWM solver
// discretizes, so that the two methods are directly comparable in the
// small-roughness regime (Figs. 3 and 4).
//
// # Derivation
//
// Zeroth order (flat interface, unit normal incidence):
//
//	ψ₁⁰ = e^{−jk₁z} + R₀e^{jk₁z},  ψ₂⁰ = T e^{−jk₂z}
//	R₀ = (1−ζ)/(1+ζ), T = 2/(1+ζ), ζ = βk₂/k₁.
//
// First order: Rayleigh expansions ψ₁¹ = ∫A(k)e^{jk·ρ+jb₁z},
// ψ₂¹ = ∫B(k)e^{jk·ρ−jb₂z} with bᵢ = sqrt(kᵢ²−|k|²) (decaying branch).
// Linearizing the continuity conditions ψ₁=ψ₂, N·∇ψ₁=βN·∇ψ₂
// (N = (−∇f, 1)) about z=0 gives, per Fourier mode of the surface
// f ↦ F(k):
//
//	A − B = jk₂T(β−1)·F                          (value continuity)
//	jb₁A + jβb₂B = T(k₁²−βk₂²)·F                 (flux continuity)
//
// so A = α_A·F, B = α_B·F with
//
//	α_B = T·[k₁²−βk₂² + b₁k₂(β−1)] / (j(b₁+βb₂)),  α_A = α_B + jk₂T(β−1).
//
// Second order: because the surface spectrum lives at |k| ~ 1/η ≫ k₁,
// every scattered mode in the dielectric is evanescent and carries no
// flux; energy conservation then gives the mean absorption enhancement
// purely from the coherent second-order reflection R₂:
//
//	K = ⟨Pr⟩/Ps = 1 − 2·Re(R₀*·R₂)/(1−|R₀|²),
//
// where R₂ follows from the ensemble mean of the second-order boundary
// expansion at the k=0 Floquet mode:
//
//	R₂ = [k₁²⟨α_A⟩ + βk₂⟨b₁α_A⟩ + βk₂⟨b₂α_B⟩ − βk₂²⟨α_B⟩] / (j(k₁+βk₂)),
//
// with ⟨X⟩ = ∫∫ W(k⊥)·X(|k⊥|) d²k⊥ = 2π∫ W(k)X(k)·k dk over the surface
// power spectral density. (The tangential −∇f·∇⊥ψ¹ terms combine with
// the f·∂z²ψ¹ terms through b² + |k|² = k_i², and the σ²-proportional
// self-terms of the two conditions cancel exactly.) Unit tests verify
// the closed form against an exact Rayleigh mode-matching solve of
// sinusoidal gratings and verify that the full SWM MoM solver converges
// to it as σ/δ → 0.
package spm2

import (
	"math"
	"math/cmplx"

	"roughsim/internal/quadrature"
	"roughsim/internal/surface"
)

// Params are the two-medium scalar parameters (mirrors mom.Params
// without importing it, to keep the baseline standalone).
type Params struct {
	K1   complex128
	K2   complex128
	Beta complex128
}

// modeAmplitudes returns α_A(k), α_B(k) for lateral wavenumber k, and
// the vertical wavenumbers b₁, b₂ they are built from.
func modeAmplitudes(p Params, k float64) (alphaA, alphaB, b1, b2 complex128) {
	t := 2 / (1 + p.Beta*p.K2/p.K1)
	b1 = decaySqrt(p.K1*p.K1 - complex(k*k, 0))
	b2 = decaySqrt(p.K2*p.K2 - complex(k*k, 0))
	alphaB = t * (p.K1*p.K1 - p.Beta*p.K2*p.K2 + b1*p.K2*(p.Beta-1)) /
		(complex(0, 1) * (b1 + p.Beta*b2))
	alphaA = alphaB + complex(0, 1)*p.K2*t*(p.Beta-1)
	return alphaA, alphaB, b1, b2
}

// decaySqrt picks the branch with Im ≥ 0 so e^{+jbz} decays upward and
// e^{−jbz} decays downward.
func decaySqrt(w complex128) complex128 {
	s := cmplx.Sqrt(w)
	if imag(s) < 0 {
		s = -s
	}
	return s
}

// Kernel returns κ(k), the per-unit-PSD absorption-enhancement kernel:
// K = 1 + ∫∫ W(k⊥)·κ(|k⊥|) d²k⊥. For a deterministic sinusoid
// f = a·cos(k₀·ρ) the equivalent spectrum gives K = 1 + (a²/2)·κ(|k₀|),
// which the MoM cross-validation test exploits.
func Kernel(p Params, k float64) float64 {
	r0 := (1 - p.Beta*p.K2/p.K1) / (1 + p.Beta*p.K2/p.K1)
	aA, aB, b1, b2 := modeAmplitudes(p, k)
	r2 := (p.K1*p.K1*aA + p.Beta*p.K2*(b1*aA+b2*aB) - p.Beta*p.K2*p.K2*aB) /
		(complex(0, 1) * (p.K1 + p.Beta*p.K2))
	den := 1 - real(r0)*real(r0) - imag(r0)*imag(r0) // 1 − |R₀|²
	return -2 * real(cmplx.Conj(r0)*r2) / den
}

// LossFactor returns the SPM2 mean loss enhancement K = ⟨Pr⟩/Ps for a
// surface with isotropic PSD W (normalized so σ² = ∫∫W d²k) under
// parameters p. kMax bounds the radial PSD integration; nPanels controls
// quadrature resolution (64 panels of 8-point Gauss–Legendre by default
// when nPanels ≤ 0).
func LossFactor(p Params, psd func(k float64) float64, kMax float64, nPanels int) float64 {
	if nPanels <= 0 {
		nPanels = 64
	}
	var excess float64
	step := kMax / float64(nPanels)
	for i := 0; i < nPanels; i++ {
		rule := quadrature.GaussLegendreOn(8, float64(i)*step, float64(i+1)*step)
		for q, k := range rule.X {
			w := rule.W[q] * 2 * math.Pi * k * psd(k)
			if w == 0 {
				continue
			}
			excess += w * Kernel(p, k)
		}
	}
	return 1 + excess
}

// LossFactorCorr is the convenience wrapper used by the figure
// harnesses: it integrates the correlation function's PSD out to where
// it has decayed to a negligible level.
func LossFactorCorr(p Params, c surface.Corr, eta float64) float64 {
	// Gaussian-like PSDs are negligible beyond ~12/η; CF (12)'s PSD has
	// a k⁻³-like tail handled by the wider 40/η range with more panels.
	kMax := 40.0 / eta
	return LossFactor(p, c.PSD, kMax, 160)
}

// LossFactorAniso evaluates the SPM2 enhancement for an anisotropic
// surface spectrum: under normal incidence the scalar kernel κ depends
// only on |k⊥|, so anisotropy enters purely through the PSD —
// K = 1 + ∫₀^∞ κ(k)·k·[∫₀^{2π} W(k cosθ, k sinθ) dθ] dk.
// kMax bounds the radial integration (use ~40/min(ηx, ηy)).
func LossFactorAniso(p Params, psd func(kx, ky float64) float64, kMax float64, nPanels, nTheta int) float64 {
	if nPanels <= 0 {
		nPanels = 96
	}
	if nTheta <= 0 {
		nTheta = 32
	}
	var excess float64
	step := kMax / float64(nPanels)
	dTheta := 2 * math.Pi / float64(nTheta)
	for i := 0; i < nPanels; i++ {
		rule := quadrature.GaussLegendreOn(8, float64(i)*step, float64(i+1)*step)
		for q, k := range rule.X {
			// Angular average of the PSD at radius k (midpoint rule is
			// spectrally accurate for smooth periodic integrands).
			var ang float64
			for t := 0; t < nTheta; t++ {
				th := (float64(t) + 0.5) * dTheta
				ang += psd(k*math.Cos(th), k*math.Sin(th))
			}
			ang *= dTheta
			w := rule.W[q] * k * ang
			if w == 0 {
				continue
			}
			excess += w * Kernel(p, k)
		}
	}
	return 1 + excess
}

// LatticeLossFactor returns the exact second-order mean loss factor of
// the d-mode truncation of a periodic KL process (DESIGN §9):
//
//	K_lat(d) = 1 + Σ_{j<d, k_j≠0} (λ_j/N)·κ(|k_j|),  k_j = 2π(Mx, My)/L.
//
// On the periodic patch the KL modes are Fourier modes, and at second
// order in σ the absorbed power of a sum of modes is the sum of each
// mode's: a mode of point variance v = λ_j/N adds v·κ, as a sinusoid of
// amplitude a adds (a²/2)·κ. A first-order Smolyak grid integrates that
// quadratic exactly, so as σ → 0 the SWM SSCM mean must reach K_lat(d)
// up to the discretization error alone, with no truncation, aliasing or
// PSD quadrature between them. The DC mode is a rigid shift and adds
// nothing. d beyond the mode count sums every mode.
func LatticeLossFactor(p Params, kl *surface.KL, d int) float64 {
	n := float64(kl.M * kl.M)
	var excess float64
	for _, md := range kl.Modes[:min(d, len(kl.Modes))] {
		if md.Mx == 0 && md.My == 0 {
			continue
		}
		k := 2 * math.Pi * math.Hypot(float64(md.Mx), float64(md.My)) / kl.L
		excess += md.Lambda / n * Kernel(p, k)
	}
	return 1 + excess
}
