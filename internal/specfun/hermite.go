package specfun

// HermiteProb returns the probabilists' Hermite polynomial Heₙ(x),
// orthogonal under the standard normal weight exp(−x²/2)/√(2π) with
// ⟨Heₙ, Heₘ⟩ = n!·δₙₘ. These are the basis of the Homogeneous (Wiener)
// Chaos expansion used by the SSCM solver.
func HermiteProb(n int, x float64) float64 {
	if n < 0 {
		panic("specfun: HermiteProb order < 0")
	}
	if n == 0 {
		return 1
	}
	hm, h := 1.0, x
	for k := 1; k < n; k++ {
		hm, h = h, x*h-float64(k)*hm
	}
	return h
}

// Factorial returns n! as a float64; exact up to n = 170, +Inf beyond.
func Factorial(n int) float64 {
	if n < 0 {
		panic("specfun: Factorial of negative n")
	}
	f := 1.0
	for k := 2; k <= n; k++ {
		f *= float64(k)
	}
	return f
}

// Binomial returns the binomial coefficient C(n, k) as a float64.
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}
