package quadrature

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"roughsim/internal/specfun"
)

// GridPoint is one node of a multi-dimensional quadrature grid.
type GridPoint struct {
	X []float64
	W float64
}

// Grid is a multi-dimensional quadrature rule for expectations over d
// iid standard normal variables (or whatever weight the 1-D factory
// encodes).
type Grid struct {
	Dim    int
	Points []GridPoint
}

// Integrate applies the grid to f.
func (g *Grid) Integrate(f func(x []float64) float64) float64 {
	var s float64
	for _, p := range g.Points {
		s += p.W * f(p.X)
	}
	return s
}

// Len returns the number of distinct sampling points — the quantity
// Table I of the paper reports.
func (g *Grid) Len() int { return len(g.Points) }

// Growth maps a Smolyak level l = 1, 2, 3… to the size of the 1-D rule
// used at that level.
type Growth func(level int) int

// LinearGrowth is n_l = 2l−1 (1, 3, 5, …): the standard choice for
// Gauss rules in sparse-grid collocation, keeping the center point at
// every level.
func LinearGrowth(l int) int { return 2*l - 1 }

// TensorGrid builds the full tensor product of the n-point 1-D rule in
// d dimensions: n^d points. Only sensible for very small d; it is the
// brute-force reference the sparse grid is tested against.
func TensorGrid(d, n int, rule func(int) Rule1D) *Grid {
	r := rule(n)
	total := 1
	for i := 0; i < d; i++ {
		total *= n
	}
	g := &Grid{Dim: d}
	idx := make([]int, d)
	for p := 0; p < total; p++ {
		x := make([]float64, d)
		w := 1.0
		for i := 0; i < d; i++ {
			x[i] = r.X[idx[i]]
			w *= r.W[idx[i]]
		}
		g.Points = append(g.Points, GridPoint{X: x, W: w})
		for i := d - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < n {
				break
			}
			idx[i] = 0
		}
	}
	return g
}

// Smolyak builds the level-k Smolyak sparse grid in d dimensions
// (k = 1 reproduces the paper's "1st-order SSCM" grids, k = 2 the
// "2nd-order" grids). rule builds the n-point 1-D rule; growth maps
// levels to rule sizes. Points shared between tensor terms are merged
// and their weights combined.
func Smolyak(d, k int, growth Growth, rule func(int) Rule1D) *Grid {
	if d <= 0 || k < 0 {
		panic("quadrature: Smolyak needs d ≥ 1, k ≥ 0")
	}
	q := d + k
	// Cache 1-D rules by level.
	rules := map[int]Rule1D{}
	getRule := func(l int) Rule1D {
		if r, ok := rules[l]; ok {
			return r
		}
		r := rule(growth(l))
		rules[l] = r
		return r
	}

	acc := map[string]*GridPoint{}
	key := func(x []float64) string {
		var b strings.Builder
		for _, v := range x {
			// Quantize to merge nodes that differ only by eigensolver
			// round-off (e.g. the Hermite center node coming out as
			// ~1e−17 instead of 0). Node magnitudes are O(1–10), so an
			// absolute 1e−9 snap is far below any node spacing.
			q := math.Round(v * 1e9)
			if q == 0 {
				q = 0 // normalize −0
			}
			fmt.Fprintf(&b, "%.0f|", q)
		}
		return b.String()
	}

	// Enumerate multi-indices l ∈ ℕ^d (each ≥ 1) with
	// max(d, q−d+1) ≤ |l| ≤ q, via recursion over coordinates that
	// exceed 1 (at most k of them, so this is cheap even for d ~ 20).
	lo := q - d + 1
	if lo < d {
		lo = d
	}
	l := make([]int, d)
	for i := range l {
		l[i] = 1
	}
	addTensor := func() {
		sum := 0
		for _, li := range l {
			sum += li
		}
		if sum < lo || sum > q {
			return
		}
		coeff := math.Pow(-1, float64(q-sum)) * specfun.Binomial(d-1, q-sum)
		if coeff == 0 {
			return
		}
		// Tensor product of the per-coordinate rules.
		rs := make([]Rule1D, d)
		total := 1
		for i := 0; i < d; i++ {
			rs[i] = getRule(l[i])
			total *= len(rs[i].X)
		}
		idx := make([]int, d)
		for p := 0; p < total; p++ {
			x := make([]float64, d)
			w := coeff
			for i := 0; i < d; i++ {
				x[i] = rs[i].X[idx[i]]
				w *= rs[i].W[idx[i]]
			}
			kk := key(x)
			if gp, ok := acc[kk]; ok {
				gp.W += w
			} else {
				acc[kk] = &GridPoint{X: x, W: w}
			}
			for i := d - 1; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(rs[i].X) {
					break
				}
				idx[i] = 0
			}
		}
	}
	// Recursive enumeration: choose which coordinates exceed level 1.
	var recurse func(start, budget int)
	recurse = func(start, budget int) {
		addTensor()
		if budget == 0 {
			return
		}
		for i := start; i < d; i++ {
			l[i]++
			recurse(i, budget-1)
			l[i]--
		}
	}
	recurse(0, k)

	g := &Grid{Dim: d}
	keys := make([]string, 0, len(acc))
	for kk := range acc {
		keys = append(keys, kk)
	}
	sort.Strings(keys) // deterministic ordering
	for _, kk := range keys {
		gp := acc[kk]
		if math.Abs(gp.W) < 1e-15 {
			continue // exact cancellations between tensor terms
		}
		g.Points = append(g.Points, *gp)
	}
	return g
}

// SmolyakHermite is the sparse grid the SSCM solver uses: level-k
// Smolyak over probabilists' Gauss–Hermite rules with linear growth.
func SmolyakHermite(d, k int) *Grid {
	return Smolyak(d, k, LinearGrowth, GaussHermiteProb)
}
