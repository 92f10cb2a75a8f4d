// Package specfun provides the special functions that the roughsim
// numerics need and the Go standard library lacks: the Faddeeva function
// w(z) and the complementary error function of complex argument (used by
// the Ewald representation of periodic Green's functions), exponential
// integrals Eₙ (used by the 1D-periodic Ewald split), and probabilists'
// Hermite polynomials (used by the polynomial-chaos machinery of SSCM).
package specfun

import (
	"math"
	"math/cmplx"
)

// weidemanN is the number of terms in the Weideman rational expansion of
// the Faddeeva function. 36 terms give ~1e-13 relative accuracy over the
// upper half-plane, which is far below the discretization error of any
// solver in this repository.
const weidemanN = 36

// weidemanL is the optimal conformal-map parameter L = sqrt(N/sqrt(2)).
var weidemanL = math.Sqrt(weidemanN / math.Sqrt2)

// weidemanA holds the polynomial coefficients of the expansion,
// a[0]·Z^(N-1) + … + a[N-1], computed once at package init by discrete
// Fourier analysis of f(t) = (L²+t²)·exp(−t²) on the mapped circle
// (J.A.C. Weideman, SIAM J. Numer. Anal. 31 (1994) 1497–1518).
var weidemanA = computeWeidemanCoeffs()

func computeWeidemanCoeffs() [weidemanN]float64 {
	const n = weidemanN
	const m = 2 * n
	const m2 = 2 * m
	l := weidemanL

	// Sample f at t = L·tan(θ/2), θ_k = kπ/M for k = −M+1 … M−1, plus a
	// zero sample at θ = π where t → ∞ (f → 0). Following the reference
	// implementation we place the samples in fftshift order and take a
	// plain DFT; only the real parts of the first N+1 output bins matter.
	var f [m2]float64
	for k := -m + 1; k <= m-1; k++ {
		theta := float64(k) * math.Pi / float64(m)
		t := l * math.Tan(theta/2)
		val := math.Exp(-t*t) * (l*l + t*t)
		// Pre-shift layout is [0, f(k=−M+1), …, f(k=M−1)], so sample k
		// sits at index k+M; fftshift then rotates index p to
		// (p+M) mod M2, landing sample k at (k+2M) mod 2M. The θ=π
		// zero sample lands at index M, which the zero-initialized
		// array already provides.
		idx := (k + m2) % m2
		f[idx] = val
	}

	// Plain O(M²) DFT: this runs once at init on 144 points.
	var a [weidemanN]float64
	for bin := 1; bin <= n; bin++ {
		var re float64
		for i := 0; i < m2; i++ {
			re += f[i] * math.Cos(2*math.Pi*float64(bin)*float64(i)/float64(m2))
		}
		a[n-bin] = re / float64(m2)
	}
	return a
}

// Faddeeva returns w(z) = exp(−z²)·erfc(−iz), the scaled complex error
// function, for any complex z.
//
// For Im z ≥ 0 it uses the Weideman rational expansion, which is
// uniformly accurate there. For Im z < 0 it applies the reflection
// w(z) = 2·exp(−z²) − w(−z); the exp(−z²) term grows like
// exp(Im(z)²−Re(z)²), so — as with every implementation of w — results
// overflow for arguments deep in the lower half-plane. Callers in this
// repository only evaluate moderate arguments there.
func Faddeeva(z complex128) complex128 {
	if imag(z) >= 0 {
		return faddeevaUpper(z)
	}
	return 2*cmplx.Exp(-z*z) - faddeevaUpper(-z)
}

func faddeevaUpper(z complex128) complex128 {
	l := complex(weidemanL, 0)
	iz := complex(-imag(z), real(z)) // i·z
	den := l - iz
	zz := (l + iz) / den
	// Horner evaluation of the degree N−1 polynomial in zz.
	p := complex(0, 0)
	for _, c := range weidemanA {
		p = p*zz + complex(c, 0)
	}
	return 2*p/(den*den) + complex(1/math.SqrtPi, 0)/den
}

// Erfc returns erfc(z) = exp(−z²)·w(iz) for complex z. For arguments with
// large |z|² the unscaled result under/overflows; use ExpMulErfc when an
// exponential prefactor is available to absorb the scale (as in Ewald
// sums).
func Erfc(z complex128) complex128 {
	iz := complex(-imag(z), real(z))
	return cmplx.Exp(-z*z) * Faddeeva(iz)
}

// ExpMulErfc returns exp(c)·erfc(z) evaluated as exp(c−z²)·w(iz), which
// stays finite whenever the combined exponent is moderate even if exp(c)
// or erfc(z) alone would overflow/underflow. This is exactly the
// combination that appears in the spectral and spatial parts of the Ewald
// representation of periodic Green's functions.
func ExpMulErfc(c, z complex128) complex128 {
	iz := complex(-imag(z), real(z))
	if imag(iz) >= 0 {
		return cmplx.Exp(c-z*z) * faddeevaUpper(iz)
	}
	// w(iz) = 2·exp(z²) − w(−iz): fold the exp(z²) into the prefactor so
	// the large exponentials combine before they overflow.
	return 2*cmplx.Exp(c) - cmplx.Exp(c-z*z)*faddeevaUpper(-iz)
}
