package mom

import (
	"fmt"
	"testing"

	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// rowWise builds the dense system of s through denseRows.row over every
// row — the loop a surface without translation invariance runs — as the
// reference for the one-row build.
func rowWise(s *surface.Surface, p Params, src1, src2 kernelSource, opt Options) []complex128 {
	d := newDenseRows(s, p, src1, src2, opt)
	parallelFor(d.n, opt.Workers, func() func(int) { return d.row })
	return d.a.Data
}

// checkNearEntries fails unless the near corrections got equal want bit
// for bit, pair indices included.
func checkNearEntries(t *testing.T, what string, got, want []nearEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d near entries, want %d", what, len(got), len(want))
	}
	var differ int
	for k, e := range got {
		w := want[k]
		if e.i != w.i || e.j != w.j ||
			!sameBits([]complex128{e.s1, e.s2, e.d1, e.d2}, []complex128{w.s1, w.s2, w.d1, w.d2}, 1) {
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%s: %d of %d near entries differ from the row-wise build", what, differ, len(got))
	}
}

// TestTranslationInvariantSystemsAreExact checks that a flat surface and
// a rigid shift f ≡ c, whose systems the builders fill from one row,
// get bit for bit the dense matrix (exact and tabulated kernels) and the
// FFT operator near corrections (exact and tabulated) that the row loop
// run over every row gives — on odd and even grids, including ones small
// enough that the near window wraps the period (M = 4) and ones with an
// offset of exactly M/2.
func TestTranslationInvariantSystemsAreExact(t *testing.T) {
	if testing.Short() {
		t.Skip("exact dense builds up to M = 20")
	}
	p := paramsAt(5 * units.GHz)
	opt := Options{}.withDefaults()
	const l, c, zspan = 5 * um, 0.03 * um, 0.5 * um
	for _, m := range []int{4, 5, 8, 9, 20} {
		ts := NewTableSet(p, l, m, zspan, opt)
		e1, e2 := exactSources(surface.NewFlat(l, m), p, opt)
		for _, height := range []float64{0, c} {
			s := surface.NewFlat(l, m)
			for i := range s.H {
				s.H[i] = height
			}
			name := fmt.Sprintf("M=%d f≡%g", m, height)
			g := newCellGeom(s, opt.NearSubdiv)
			if !g.uniform() {
				t.Fatalf("%s: surface geometry is not uniform", name)
			}

			checkSameBits(t, name+" exact Assemble", Assemble(s, p, opt).Matrix.Data, rowWise(s, p, e1, e2, opt))
			sys, err := AssembleTabulated(s, p, ts, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkSameBits(t, name+" AssembleTabulated", sys.Matrix.Data, rowWise(s, p, ts.g1, ts.g2, opt))

			for _, tc := range []struct {
				what       string
				src1, src2 kernelSource
			}{{"exact", e1, e2}, {"tabulated", ts.g1, ts.g2}} {
				op := buildFFTOperator(s, p, 6, opt, tc.src1, tc.src2)
				span := nearSpan(g)
				nc1, nc2 := fitNearCheb(tc.src1, m, opt, span), fitNearCheb(tc.src2, m, opt, span)
				w2 := (2*nearRadius + 1) * (2*nearRadius + 1)
				want := make([]nearEntry, op.N*w2)
				for i := 0; i < op.N; i++ {
					op.nearRow(g, nc1, nc2, nearRadius, i, want[i*w2:(i+1)*w2])
				}
				checkNearEntries(t, name+" "+tc.what+" FFT operator", op.nearEntries, want)
			}
		}
	}
}
