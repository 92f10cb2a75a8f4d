package surface

import "math"

// Orbits partitions the cells of an M×M grid into the orbits of a
// subgroup of lattice shifts: cells i and j share an orbit when some
// shift of the subgroup moves i onto j. Every orbit has the same size,
// the order of the subgroup.
type Orbits struct {
	M    int
	Of   []int // cell → orbit, orbits numbered in order of their first cell
	Reps []int // orbit → its first cell in row-major order, increasing
}

// Size is the number of cells in each orbit.
func (o *Orbits) Size() int { return len(o.Of) / len(o.Reps) }

// Trivial reports whether every orbit is a single cell.
func (o *Orbits) Trivial() bool { return len(o.Reps) == len(o.Of) }

// InvariantOrbits returns the orbits of the largest subgroup of lattice
// shifts of the m×m grid under which every field (row-major, m² values)
// is invariant bit for bit. Shifts are tried in order; one already in
// the subgroup found so far is not tested again, and one that passes
// closes the subgroup over it. A shift that moves cell 0 onto a cell of
// a different value is rejected on its first comparison, so a surface
// without symmetry costs O(m²), and so does a flat one.
func InvariantOrbits(m int, fields ...[]float64) *Orbits {
	n := m * m
	// A shift (tx, ty) is the cell it moves cell 0 onto, ty·m + tx.
	add := func(a, b int) int { return (a/m+b/m)%m*m + (a%m+b%m)%m }
	in := make([]bool, n)
	in[0] = true
	group := []int{0}
	for t := 1; t < n; t++ {
		if in[t] || !invariantUnder(m, t%m, t/m, fields) {
			continue
		}
		// The subgroup is abelian, so adding t to every element, new
		// ones included, generates all of it with t.
		for k := 0; k < len(group); k++ {
			if s := add(group[k], t); !in[s] {
				in[s] = true
				group = append(group, s)
			}
		}
	}
	o := &Orbits{M: m, Of: make([]int, n)}
	for i := range o.Of {
		o.Of[i] = -1
	}
	for i := range o.Of {
		if o.Of[i] >= 0 {
			continue
		}
		o.Reps = append(o.Reps, i)
		for _, t := range group {
			o.Of[add(i, t)] = len(o.Reps) - 1
		}
	}
	return o
}

// invariantUnder reports whether every field is bitwise unchanged by the
// shift (tx, ty).
func invariantUnder(m, tx, ty int, fields [][]float64) bool {
	for _, v := range fields {
		for iy := 0; iy < m; iy++ {
			sy := (iy + ty) % m * m
			for ix := 0; ix < m; ix++ {
				if math.Float64bits(v[iy*m+ix]) != math.Float64bits(v[sy+(ix+tx)%m]) {
					return false
				}
			}
		}
	}
	return true
}

// Symmetrize gives every cell of v its orbit representative's value.
func (o *Orbits) Symmetrize(v []float64) {
	for i, r := range o.Of {
		v[i] = v[o.Reps[r]]
	}
}
