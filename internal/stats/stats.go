// Package stats provides the descriptive statistics used by the
// Monte-Carlo and SSCM drivers: moments, empirical CDFs, quantiles,
// histograms and the Kolmogorov–Smirnov distance used to compare the
// SSCM surrogate distribution against brute-force Monte-Carlo (Fig. 7).
package stats

import (
	"errors"
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

// Quantile returns the q-th empirical quantile, q ∈ [0, 1], with linear
// interpolation between order statistics.
func (e *ECDF) Quantile(q float64) float64 {
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	pos := q * float64(len(e.sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(e.sorted) {
		return e.sorted[len(e.sorted)-1]
	}
	return e.sorted[lo]*(1-frac) + e.sorted[lo+1]*frac
}

// Support returns the min and max of the sample.
func (e *ECDF) Support() (lo, hi float64) {
	return e.sorted[0], e.sorted[len(e.sorted)-1]
}

// Len returns the sample size behind the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

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

// Histogram bins sample values into nbins equal-width bins over
// [lo, hi], returning the bin counts. Values outside the range are
// clamped into the edge bins.
func Histogram(sample []float64, lo, hi float64, nbins int) ([]int, error) {
	if nbins <= 0 || hi <= lo {
		return nil, errors.New("stats: invalid histogram spec")
	}
	counts := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, v := range sample {
		i := int((v - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	return counts, nil
}

// Running accumulates streaming mean/variance (Welford) so Monte-Carlo
// drivers can track convergence without storing every sample.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Push adds a sample.
func (r *Running) Push(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples pushed.
func (r *Running) N() int { return r.n }

// Mean returns the running mean.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the running unbiased variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdErr returns the standard error of the running mean.
func (r *Running) StdErr() float64 {
	if r.n < 2 {
		return math.Inf(1)
	}
	return math.Sqrt(r.Variance() / float64(r.n))
}

// NormalCDF returns Φ(x), the standard normal CDF.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// BootstrapCI returns a percentile bootstrap confidence interval for the
// mean of a sample at the given level (e.g. 0.95), using nBoot
// resamples driven by the deterministic seed.
func BootstrapCI(sample []float64, level float64, nBoot int, seed uint64) (lo, hi float64) {
	if len(sample) == 0 || level <= 0 || level >= 1 || nBoot <= 0 {
		panic("stats: invalid BootstrapCI arguments")
	}
	// Small linear-congruential stream keeps this package dependency
	// free; quality is ample for resampling indices.
	state := seed*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	means := make([]float64, nBoot)
	for b := 0; b < nBoot; b++ {
		var s float64
		for range sample {
			s += sample[next(len(sample))]
		}
		means[b] = s / float64(len(sample))
	}
	e := NewECDF(means)
	alpha := (1 - level) / 2
	return e.Quantile(alpha), e.Quantile(1 - alpha)
}
