package mom

import (
	"roughsim/internal/cmplxmat"
	"roughsim/internal/resilience"
	"roughsim/internal/surface"
)

// Quotient-lattice systems (DESIGN §9). Every kernel source reads only
// the wrapped lateral offset and Δz, so when a lattice shift t maps the
// cell geometry onto itself bit for bit, entry (i+t, j+t) of each of the
// four N×N blocks is entry (i, j), and the right-hand side is invariant
// under t. The solution is then invariant too: it is constant on each
// orbit of the subgroup of such shifts, and the system folds onto one
// unknown per orbit and field.

// invariance returns s's cell geometry and the orbits of the subgroup
// of lattice shifts that leaves it — heights and first and second
// derivatives — invariant bit for bit, or nil orbits when that subgroup
// is trivial. It is nontrivial for a single KL Fourier mode (every
// first-order SSCM node), a flat surface or a rigid shift. The heights
// are checked first, which costs O(M²) on a surface without symmetry.
func invariance(s *surface.Surface, opt Options) (*cellGeom, *surface.Orbits) {
	if surface.InvariantOrbits(s.M, s.H).Trivial() {
		return nil, nil
	}
	g := newCellGeom(s, opt.NearSubdiv)
	o := surface.InvariantOrbits(s.M, g.f, g.fx, g.fy, g.fxx, g.fyy, g.fxy)
	if o.Trivial() {
		return nil, nil
	}
	return g, o
}

// foldSystem builds s's system folded onto the orbits o of its cell
// geometry g (see invariance) at p, reading the kernels from the
// Green's tables ts (nil: exact kernels; a table set that cannot serve
// the surface is a typed error, as for AssembleTabulated). Each orbit
// representative r runs one full row of kernel work, every pair reading
// its own kernel (rowKernel.pair), and its entries are summed over each
// source orbit in source order: folded entry (r, s) = Σ_{j∈s} A[r, j].
// The rows run over Options.Workers, each into its own rows of the
// folded matrix, so the result is bitwise deterministic in Workers.
// When one orbit holds the whole grid, the same kernel reads also give
// the full system's first column (see System.FlatInverse).
func foldSystem(s *surface.Surface, g *cellGeom, o *surface.Orbits, p Params, ts *TableSet, opt Options) (*System, error) {
	var src1, src2 kernelSource
	if ts != nil {
		// Tilted sub-cells can push |Δz| slightly past 2·max|f|.
		if err := ts.compatible(s, opt, 2.2*surfaceZMax(s)); err != nil {
			return nil, err
		}
		src1, src2 = ts.g1, ts.g2
	} else {
		src1, src2 = exactSources(s, p, opt)
	}
	k := newRowKernel(g, p, src1, src2)
	nk := len(o.Reps)
	f := &fold{orbits: o, diag: make([]complex128, 2*nk)}
	if nk == 1 {
		f.col = [2][]complex128{make([]complex128, 2*k.n), make([]complex128, 2*k.n)}
	}
	a := cmplxmat.New(2*nk, 2*nk)
	parallelFor(nk, opt.Workers, func() func(int) {
		return func(r int) { f.row(k, a, r) }
	})
	return &System{N: nk, Matrix: a, RHS: f.pick(RHSVector(s, p)), Step: k.g.h, fold: f}, nil
}

// fold is a quotient system's orbit structure.
type fold struct {
	orbits *surface.Orbits
	// diag holds the folded diagonals of blocks (1,1) and (2,1) before
	// the ½ jump, orbit by orbit, so Mirror can negate them exactly.
	diag []complex128
	// col is the full system's first column of the ψ and u blocks,
	// mv(e₀) and mv(e_N), when one orbit holds the whole grid.
	col [2][]complex128
}

// row fills folded rows r and K+r from orbit r's representative's
// kernel row.
func (f *fold) row(k *rowKernel, a *cmplxmat.Matrix, r int) {
	nk, n, m := len(f.orbits.Reps), k.n, k.m
	i := f.orbits.Reps[r]
	for j := 0; j < n; j++ {
		e, tr, ok := k.pair(i, j)
		s := f.orbits.Of[j]
		a.Add(r, s, e[0])
		a.Add(r, nk+s, e[1])
		a.Add(nk+r, s, e[2])
		a.Add(nk+r, nk+s, e[3])
		if f.col[0] == nil {
			continue
		}
		// The whole grid (i = 0): entry (j, 0) is the far read's
		// transposed order, or else by translation entry (0, −j),
		// which pair (0, j') with j' = −j gives.
		c := j
		if !ok {
			tr, c = e, (m-j/m)%m*m+(m-j%m)%m
		}
		f.col[0][c], f.col[0][n+c] = tr[0], tr[2]
		f.col[1][c], f.col[1][n+c] = tr[1], tr[3]
	}
	f.diag[r], f.diag[nk+r] = a.At(r, r), a.At(nk+r, r)
	a.Add(r, r, 0.5)
	a.Add(nk+r, r, 0.5)
	if f.col[0] != nil {
		f.col[0][0] += 0.5
		f.col[0][n] += 0.5
	}
}

// expand returns the full-grid vector [Ψ; U] of orbit values
// x = [Ψ per orbit; U per orbit].
func (f *fold) expand(x []complex128) []complex128 {
	nk, n := len(f.orbits.Reps), len(f.orbits.Of)
	out := make([]complex128, 2*n)
	for i, r := range f.orbits.Of {
		out[i], out[n+i] = x[r], x[nk+r]
	}
	return out
}

// pick reads a full-grid vector [Ψ; U] at the orbit representatives.
func (f *fold) pick(v []complex128) []complex128 {
	nk, n := len(f.orbits.Reps), len(f.orbits.Of)
	out := make([]complex128, 2*nk)
	for r, i := range f.orbits.Reps {
		out[r], out[nk+r] = v[i], v[n+i]
	}
	return out
}

// Orbits is a quotient system's orbit count, the unknowns per field; 0
// for a full-grid system.
func (sys *System) Orbits() int {
	if sys.fold == nil {
		return 0
	}
	return sys.N
}

// FlatInverse returns the exact inverse of the full block-circulant
// system of a quotient system whose one orbit is the whole grid (a flat
// surface or a rigid shift), built from the first column its kernel row
// read alongside the row: the far pairs' transposed order, and the row's
// own entries at the negated offsets elsewhere. It is what NewFlatInverse
// gives from the full dense matrix's matvec.
func (sys *System) FlatInverse() (*FlatInverse, error) {
	if sys.fold == nil || sys.fold.col[0] == nil {
		return nil, resilience.Errorf(resilience.KindInvalidInput, "mom.flatinverse",
			"system is not folded onto a single orbit")
	}
	return flatInverse(sys.fold.orbits.M, sys.fold.col[0], sys.fold.col[1])
}
