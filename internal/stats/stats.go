// Package stats provides the descriptive statistics used by the
// Monte-Carlo and SSCM drivers: moments, empirical CDFs, quantiles and
// the Kolmogorov–Smirnov distance used to compare the SSCM surrogate
// distribution against brute-force Monte-Carlo (Fig. 7).
package stats

import (
	"math"
	"sort"

	"roughsim/internal/resilience"
)

// Mean returns the arithmetic mean of x. It panics on empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		panic("stats: Mean of empty slice")
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance of x (n−1 denominator).
func Variance(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// MeanStdErr returns the mean and its standard error.
func MeanStdErr(x []float64) (mean, stderr float64) {
	mean = Mean(x)
	if len(x) > 1 {
		stderr = StdDev(x) / math.Sqrt(float64(len(x)))
	}
	return mean, stderr
}

// SamplesForTolerance estimates how many Monte Carlo samples are needed
// to reach a target standard error, from a pilot run's sample standard
// deviation: n = (sd/tol)². This quantifies the paper's "5000 samples
// for 1%" remark against the measured variance of K.
func SamplesForTolerance(sd, tol float64) (int, error) {
	if tol <= 0 {
		return 0, resilience.Errorf(resilience.KindInvalidInput, "stats.SamplesForTolerance",
			"tolerance must be positive (got %g)", tol)
	}
	n := sd / tol
	return int(n*n) + 1, nil
}

// ECDF is an empirical cumulative distribution function built from a
// sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample (the input is copied).
func NewECDF(sample []float64) *ECDF {
	if len(sample) == 0 {
		panic("stats: NewECDF of empty sample")
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns F(x) = P(X ≤ x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	// Number of sample points ≤ x.
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Support returns the min and max of the sample.
func (e *ECDF) Support() (lo, hi float64) {
	return e.sorted[0], e.sorted[len(e.sorted)-1]
}

// KSDistance returns the Kolmogorov–Smirnov statistic
// sup_x |F₁(x) − F₂(x)| between two ECDFs, evaluated at every jump point
// of both (where the supremum of step functions is attained).
func KSDistance(a, b *ECDF) float64 {
	var d float64
	check := func(x float64) {
		// Evaluate just below and at x to capture both sides of a jump.
		below := math.Nextafter(x, math.Inf(-1))
		if v := math.Abs(a.At(below) - b.At(below)); v > d {
			d = v
		}
		if v := math.Abs(a.At(x) - b.At(x)); v > d {
			d = v
		}
	}
	for _, x := range a.sorted {
		check(x)
	}
	for _, x := range b.sorted {
		check(x)
	}
	return d
}

// NormalCDF returns Φ(x), the standard normal CDF.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
