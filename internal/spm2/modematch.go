package spm2

import (
	"fmt"
	"math"
	"math/cmplx"

	"roughsim/internal/cmplxmat"
)

// The mode-matching solve is the repository's exact reference for the
// scalar problem with no perturbation theory: it solves the two-medium
// scattering from the sinusoidal grating f(x) = a·cos(k₀x) by Rayleigh
// mode matching (Fourier–Galerkin over one grating period). It is the
// independent arbiter of the closed-form Kernel, κ = (K − 1)/(a²/2) at
// a small amplitude a, and is exact for small-slope gratings.
const (
	gratingOrders = 6  // Floquet orders −N..N; ample for a·k₀ ≪ 1
	gratingPoints = 64 // sample points per period (band-limited projection)
)

// gratingLossFactor returns K = Pr/Ps for the sinusoidal grating,
// from energy conservation of the single propagating Floquet order.
func gratingLossFactor(p Params, k0, a float64) float64 {
	r0 := gratingAmplitudes(p, k0, a)[gratingOrders] // specular reflection amplitude

	// Only the specular order propagates (k₀ ≫ k₁ in every experiment);
	// absorbed/incident = 1 − |R₀|².
	zeta := p.Beta * p.K2 / p.K1
	rFlat := (1 - zeta) / (1 + zeta)
	num := 1 - real(r0)*real(r0) - imag(r0)*imag(r0)
	den := 1 - real(rFlat)*real(rFlat) - imag(rFlat)*imag(rFlat)
	return num / den
}

// gratingAmplitudes returns the Floquet amplitudes [R; T] of the
// grating, each indexed by order m + gratingOrders for m = −N..N.
func gratingAmplitudes(p Params, k0, a float64) []complex128 {
	n := 2*gratingOrders + 1
	L := 2 * math.Pi / k0

	// Unknowns: R_m (m = −N..N), then T_m. Equations: Fourier
	// coefficients −N..N of the two boundary conditions.
	A := cmplxmat.New(2*n, 2*n)
	rhs := make([]complex128, 2*n)

	bc1 := make([]complex128, gratingPoints) // value-continuity residual samples
	bc2 := make([]complex128, gratingPoints) // flux-continuity residual samples

	kn := func(m int) float64 { return float64(m-gratingOrders) * k0 }
	b1 := func(m int) complex128 { return decaySqrt(p.K1*p.K1 - complex(kn(m)*kn(m), 0)) }
	b2 := func(m int) complex128 { return decaySqrt(p.K2*p.K2 - complex(kn(m)*kn(m), 0)) }

	project := func(samples []complex128, row0 int, col int, sign complex128) {
		// Fourier coefficients c_q = (1/P)·Σ_j samples_j·e^{−j·k_q·x_j}
		// (exact for band-limited samples on a uniform grid).
		for q := 0; q < n; q++ {
			var c complex128
			for jx := 0; jx < gratingPoints; jx++ {
				x := float64(jx) / float64(gratingPoints) * L
				c += samples[jx] * cmplx.Exp(complex(0, -kn(q)*x))
			}
			c /= complex(float64(gratingPoints), 0)
			if col < 0 {
				rhs[row0+q] += sign * c
			} else {
				A.Add(row0+q, col, sign*c)
			}
		}
	}

	// Column for each unknown: sample its contribution to both BCs on
	// the surface z = f(x).
	for m := 0; m < n; m++ {
		// R_m: ψ₁ term e^{j·kn·x}·e^{j·b1·z}.
		for jx := 0; jx < gratingPoints; jx++ {
			x := float64(jx) / float64(gratingPoints) * L
			f := a * math.Cos(k0*x)
			fp := -a * k0 * math.Sin(k0*x)
			e := cmplx.Exp(complex(0, kn(m)*x) + complex(0, 1)*b1(m)*complex(f, 0))
			bc1[jx] = e
			// N·∇ = −f′·∂x + ∂z applied to the mode.
			bc2[jx] = e * (complex(0, -fp*kn(m)) + complex(0, 1)*b1(m))
		}
		project(bc1, 0, m, 1)
		project(bc2, n, m, 1)

		// T_m: ψ₂ term e^{j·kn·x}·e^{−j·b2·z}, entering BC1 with −,
		// BC2 with −β.
		for jx := 0; jx < gratingPoints; jx++ {
			x := float64(jx) / float64(gratingPoints) * L
			f := a * math.Cos(k0*x)
			fp := -a * k0 * math.Sin(k0*x)
			e := cmplx.Exp(complex(0, kn(m)*x) - complex(0, 1)*b2(m)*complex(f, 0))
			bc1[jx] = e
			bc2[jx] = e * (complex(0, -fp*kn(m)) - complex(0, 1)*b2(m))
		}
		project(bc1, 0, n+m, -1)
		project(bc2, n, n+m, complex(-1, 0)*p.Beta)
	}

	// RHS: −(incident contribution), ψin = e^{−j·k₁·z}.
	for jx := 0; jx < gratingPoints; jx++ {
		x := float64(jx) / float64(gratingPoints) * L
		f := a * math.Cos(k0*x)
		e := cmplx.Exp(complex(0, -1) * p.K1 * complex(f, 0))
		bc1[jx] = e
		bc2[jx] = e * (complex(0, -1) * p.K1)
	}
	project(bc1, 0, -1, -1)
	project(bc2, n, -1, -1)

	// The assembled equation is A·[R;T] + (incident) = 0; rhs already
	// accumulated −(incident), so A·x = rhs directly.
	x, err := cmplxmat.SolveDense(A, rhs)
	if err != nil {
		panic(fmt.Sprintf("spm2: mode matching solve failed: %v", err))
	}
	return x
}
