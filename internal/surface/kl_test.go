package surface

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"roughsim/internal/rng"
)

// TestKLDegenerateModeOrder checks that a KL's mode order is decided by
// its eigenvalues, not by transform rounding: modes of one symmetry orbit
// (the (±mx, ±my) reflections, plus the mx↔my swap for an isotropic CF)
// carry bitwise-equal eigenvalues, and the order is the one a naive
// O(N²) DFT of the same stencil gives, with generation order inside a
// degenerate group.
func TestKLDegenerateModeOrder(t *testing.T) {
	type klCase struct {
		name string
		kl   *KL
		c    Corr2D
		swap bool // isotropic: mx↔my is a symmetry too
	}
	var cases []klCase
	iso := NewGaussianCorr(1*um, 1*um)
	for _, m := range []int{8, 12, 20} {
		cases = append(cases, klCase{fmt.Sprintf("iso M=%d", m), NewKL(iso, 5*um, m), IsoCorr2D{C: iso}, true})
	}
	aniso := NewAnisoGaussianCorr(1*um, 0.8*um, 1.6*um)
	cases = append(cases, klCase{"aniso M=12", NewKL2D(aniso, 8*um, 12), aniso, false})

	for _, tc := range cases {
		kl, M := tc.kl, tc.kl.M
		orbit := func(mx, my int) [2]int {
			a, b := abs(mx), abs(my)
			if tc.swap && a > b {
				a, b = b, a
			}
			return [2]int{a, b}
		}

		// Orbit members share one eigenvalue, bit for bit.
		lam := map[[2]int]float64{}
		for _, md := range kl.Modes {
			o := orbit(md.Mx, md.My)
			if v, ok := lam[o]; ok && v != md.Lambda {
				t.Errorf("%s: mode (%d,%d) λ=%.17g, its orbit %v has λ=%.17g", tc.name, md.Mx, md.My, md.Lambda, o, v)
			}
			lam[o] = md.Lambda
		}

		// Naive DFT of the stencil, read at each orbit's canonical bin.
		h := kl.L / float64(M)
		naive := map[[2]int]float64{}
		for o := range lam {
			var s float64
			for jy := 0; jy < M; jy++ {
				for jx := 0; jx < M; jx++ {
					ph := (o[0]*jx + o[1]*jy) % M
					s += tc.c.At2D(minImage(jx, M)*h, minImage(jy, M)*h) * math.Cos(2*math.Pi*float64(ph)/float64(M))
				}
			}
			naive[o] = s
		}
		// Generation order: bins row-major, the first bin of a conjugate
		// pair emitting cosine then sine.
		gen := func(md KLMode) int {
			idx := ((md.My+M)%M)*M + (md.Mx+M)%M
			conj := ((M-md.My)%M)*M + (M-md.Mx)%M
			k := 2 * min(idx, conj)
			if md.Sin {
				k++
			}
			return k
		}
		want := append([]KLMode(nil), kl.Modes...)
		sort.Slice(want, func(a, b int) bool {
			la, lb := naive[orbit(want[a].Mx, want[a].My)], naive[orbit(want[b].Mx, want[b].My)]
			if la != lb {
				return la > lb
			}
			return gen(want[a]) < gen(want[b])
		})
		// Compare the resolved modes; the far tail sits at rounding level,
		// where neither transform orders it meaningfully.
		for i, md := range want {
			if naive[orbit(md.Mx, md.My)] < 1e-10*naive[orbit(want[0].Mx, want[0].My)] {
				break
			}
			got := kl.Modes[i]
			if got.Mx != md.Mx || got.My != md.My || got.Sin != md.Sin {
				t.Fatalf("%s: mode %d is (%d,%d,sin=%v), naive DFT order has (%d,%d,sin=%v)",
					tc.name, i, got.Mx, got.My, got.Sin, md.Mx, md.My, md.Sin)
			}
		}
	}
}

func abs(i int) int {
	if i < 0 {
		return -i
	}
	return i
}

// TestModeOrbitsAreBitwise: a single KL mode (Mx, My) is invariant
// under the lattice shifts t with Mx·tx + My·ty ≡ 0 (mod M), which
// split the grid into M/gcd(Mx, My, M) orbits. Its heights and its
// spectral first and second derivatives are invariant under them bit
// for bit, so the geometry's orbits are the heights' orbits.
func TestModeOrbitsAreBitwise(t *testing.T) {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return max(a, -a)
	}
	for _, m := range []int{8, 12, 20} {
		kl := NewKL(NewGaussianCorr(0.3e-6, 1e-6), 5e-6, m)
		for j, md := range kl.Modes[:min(len(kl.Modes), 40)] {
			if md.Mx == 0 && md.My == 0 {
				continue
			}
			xi := make([]float64, j+1)
			xi[j] = math.Sqrt(3)
			s := kl.Synthesize(xi)
			fx, fy := s.Gradients()
			fxx, fyy, fxy := s.SecondDerivs()
			want := m / gcd(gcd(md.Mx, md.My), m)
			if got := len(InvariantOrbits(m, s.H).Reps); got != want {
				t.Errorf("M=%d mode (%d, %d): heights have %d orbits, want %d", m, md.Mx, md.My, got, want)
			}
			if got := len(InvariantOrbits(m, s.H, fx, fy, fxx, fyy, fxy).Reps); got != want {
				t.Errorf("M=%d mode (%d, %d): geometry has %d orbits, want %d", m, md.Mx, md.My, got, want)
			}
		}
		// The flat surface is one orbit; a full-rank draw has no symmetry.
		if got := len(InvariantOrbits(m, NewFlat(5e-6, m).H).Reps); got != 1 {
			t.Errorf("M=%d: flat surface has %d orbits, want 1", m, got)
		}
		if o := InvariantOrbits(m, kl.Sample(rng.New(3)).H); !o.Trivial() {
			t.Errorf("M=%d: a full-rank draw has %d orbits, want %d", m, len(o.Reps), m*m)
		}
	}
}
