package mom

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"roughsim/internal/sscm"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// symbols flattens a flat inverse's per-mode symbols.
func symbols(inv *FlatInverse) []complex128 {
	var out []complex128
	for _, s := range inv.sym {
		out = append(out, s[:]...)
	}
	return out
}

// quotientSystem builds s's quotient system, failing unless the
// subgroup is nontrivial.
func quotientSystem(t *testing.T, s *surface.Surface, p Params, ts *TableSet, opt Options) *System {
	t.Helper()
	q := NewQuotient(s, opt)
	if q == nil {
		t.Fatal("surface has no nontrivial lattice-shift invariance")
	}
	sys, err := q.System(p, ts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// relDev is |a − b|/|b|.
func relDev(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// TestTranslationInvariantSystemsAreExact checks the quotient path's
// whole-grid case, a flat surface and a rigid shift f ≡ c, whose
// system is one orbit built from one kernel row: the flat inverse read
// from that row's two far orders is bit for bit the one NewFlatInverse
// builds from the full dense flat matrix's matvec, and the absorbed
// power of the two-unknown system equals the full dense LU solve's —
// for exact and tabulated kernels, on odd and even grids, including
// ones small enough that the near window wraps the period (M = 4) and
// ones with an offset of exactly M/2.
func TestTranslationInvariantSystemsAreExact(t *testing.T) {
	if testing.Short() {
		t.Skip("exact dense builds up to M = 20")
	}
	p := paramsAt(5 * units.GHz)
	opt := Options{}.withDefaults()
	const l, c, zspan = 5 * um, 0.03 * um, 0.5 * um
	for _, m := range []int{4, 5, 8, 9, 20} {
		ts := NewTableSet(p, l, m, zspan, opt)
		for _, height := range []float64{0, c} {
			s := surface.NewFlat(l, m)
			for i := range s.H {
				s.H[i] = height
			}
			for _, tc := range []struct {
				what string
				ts   *TableSet
			}{{"exact", nil}, {"tabulated", ts}} {
				name := fmt.Sprintf("M=%d f≡%g %s", m, height, tc.what)
				sys := quotientSystem(t, s, p, tc.ts, opt)
				if sys.Orbits() != 1 {
					t.Fatalf("%s: %d orbits, want the whole grid", name, sys.Orbits())
				}
				full := Assemble(s, p, opt)
				if tc.ts != nil {
					var err error
					if full, err = AssembleTabulated(s, p, tc.ts, opt); err != nil {
						t.Fatal(err)
					}
				}
				inv, err := sys.FlatInverse()
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewFlatInverse(m, full.Matrix.MulVecTo)
				if err != nil {
					t.Fatal(err)
				}
				checkSameBits(t, name+" flat inverse", symbols(inv), symbols(want))

				got, err := sys.Solve()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := full.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if d := relDev(got.Pabs, ref.Pabs); d > 1e-12 {
					t.Errorf("%s: whole-grid Pabs %.17g vs dense LU %.17g (rel dev %.3g)", name, got.Pabs, ref.Pabs, d)
				}
			}
		}
	}
}

// firstOrderNodes synthesizes the surfaces of the first-order Smolyak
// nodes of a d-dimensional KL (σ = 0.32 µm, η = 1 µm, L = 5 µm) on an
// m×m grid — each node one KL mode at ±√3 — skipping the flat centre.
func firstOrderNodes(t *testing.T, m, d int) []*surface.Surface {
	t.Helper()
	kl := surface.NewKL(surface.NewGaussianCorr(0.32*um, 1*um), 5*um, m)
	nodes, err := sscm.Nodes(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out []*surface.Surface
	for _, xi := range nodes {
		if slices.ContainsFunc(xi, func(v float64) bool { return v != 0 }) {
			out = append(out, kl.Synthesize(xi))
		}
	}
	return out
}

// TestQuotientMatchesDenseLU is the quotient path's exactness gate: on
// every first-order node, K = Pabs/Pabs_flat from the folded systems
// (one kernel row per orbit, solved by LU) equals K from the full dense
// systems solved by LU within 1e-10, on the production Green's tables
// at 5 GHz; and the folded build is bitwise deterministic in Workers.
// Every node at M = 16, d = 9 (the modes with |k|² ≤ 2 and the piston)
// and at M = 24, d = 3 (d = 9 without -short). The dense LU references
// cost ten times as much under the race detector, so that build skips
// the gate: scripts/verify.sh's fast fidelity block runs it without,
// and the folded build's concurrency is raced by
// TestQuotientMirrorIsExact and the core and sweep engine tests.
func TestQuotientMatchesDenseLU(t *testing.T) {
	if raceEnabled {
		t.Skip("dense LU references under the race detector")
	}
	p := paramsAt(5 * units.GHz)
	opt := Options{}.withDefaults()
	grids := []struct{ m, d int }{{16, 9}, {24, 3}}
	if !testing.Short() {
		grids[1].d = 9
	}
	for _, gr := range grids {
		ts := NewTableSet(p, 5*um, gr.m, 14*0.32*um, opt)
		flat := surface.NewFlat(5*um, gr.m)
		qFlat, err := quotientSystem(t, flat, p, ts, opt).Solve()
		if err != nil {
			t.Fatal(err)
		}
		dFlat := denseLU(t, flat, p, ts, opt)
		for k, s := range firstOrderNodes(t, gr.m, gr.d) {
			name := fmt.Sprintf("M=%d node %d", gr.m, k)
			sys := quotientSystem(t, s, p, ts, opt)
			one := quotientSystem(t, s, p, ts, Options{Workers: 1}.withDefaults())
			checkSameBits(t, name+" folded matrix, Workers 1 vs default", one.Matrix.Data, sys.Matrix.Data)
			sol, err := sys.Solve()
			if err != nil {
				t.Fatal(err)
			}
			kq, kd := sol.Pabs/qFlat.Pabs, denseLU(t, s, p, ts, opt)/dFlat
			if d := relDev(kq, kd); d > 1e-10 {
				t.Errorf("%s (%d orbits): quotient K %.15g vs dense LU K %.15g (rel dev %.3g)", name, sys.Orbits(), kq, kd, d)
			} else {
				t.Logf("%s (%d orbits): K = %.12f, quotient vs dense LU %.2g", name, sys.Orbits(), kq, d)
			}
		}
	}
}

// denseLU is the absorbed power of s's full tabulated dense system
// solved by LU.
func denseLU(t *testing.T, s *surface.Surface, p Params, ts *TableSet, opt Options) float64 {
	t.Helper()
	sys, err := AssembleTabulated(s, p, ts, opt)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return sol.Pabs
}

// TestQuotientMirrorIsExact checks that System.Mirror turns a quotient
// system into the one of the mirrored surface bit for bit — the folded
// matrix and right-hand side of a direct build of −f — for exact and
// tabulated kernels, on 1-D and 2-D orbits.
func TestQuotientMirrorIsExact(t *testing.T) {
	p := paramsAt(5 * units.GHz)
	opt := Options{}.withDefaults()
	for _, m := range []int{8, 12} {
		ts := NewTableSet(p, 5*um, m, 14*0.32*um, opt)
		nodes := firstOrderNodes(t, m, 7)
		for k, s := range nodes {
			mk := slices.IndexFunc(nodes, func(ms *surface.Surface) bool {
				return slices.EqualFunc(s.H, ms.H, func(a, b float64) bool { return a == -b })
			})
			if mk < 0 {
				t.Fatalf("M=%d node %d has no mirror image among the nodes", m, k)
			}
			if mk < k {
				continue
			}
			ms := nodes[mk]
			for _, tc := range []struct {
				what string
				ts   *TableSet
			}{{"exact", nil}, {"tabulated", ts}} {
				name := fmt.Sprintf("M=%d node %d %s", m, k, tc.what)
				sys := quotientSystem(t, s, p, tc.ts, opt)
				want := quotientSystem(t, ms, p, tc.ts, opt)
				sys.Mirror(ms, p, nil)
				checkSameBits(t, name+" folded matrix", sys.Matrix.Data, want.Matrix.Data)
				checkSameBits(t, name+" RHS", sys.RHS, want.RHS)
			}
		}
	}
}
