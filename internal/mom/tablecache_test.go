package mom

import (
	"sync"
	"testing"

	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// TestNewTabulatedHonorsWorkers is the regression test for the table
// builder ignoring Options.Workers: tables built over any worker count
// must be bitwise identical (each worker writes disjoint slots), and so
// must exact and tabulated dense systems, whose workers also fill the
// transposed slots of far pairs in other rows (see assemble). An odd and
// an even grid cover the M/2 line, whose pairs are not mirrored.
func TestNewTabulatedHonorsWorkers(t *testing.T) {
	c := surface.NewGaussianCorr(1*um, 1*um)
	L := 5 * um
	p := paramsAt(5 * units.GHz)
	for _, m := range []int{9, 10} {
		surf := surface.NewKL(c, L, m).Sample(rng.New(7))
		var ref *TableSet
		var refExact, refTab *System
		for _, w := range []int{1, 3, 7} {
			opt := Options{Workers: w}
			ts := NewTableSet(p, L, m, 8*um, opt)
			tab, err := AssembleTabulated(surf, p, ts, opt)
			if err != nil {
				t.Fatal(err)
			}
			exact := Assemble(surf, p, opt)
			if ref == nil {
				ref, refExact, refTab = ts, exact, tab
				continue
			}
			for mi, pair := range [][2]*tabulated{{ref.g1, ts.g1}, {ref.g2, ts.g2}} {
				for name, tabs := range map[string][2][][4][]complex128{
					"far":  {pair[0].far, pair[1].far},
					"near": {pair[0].nearTab, pair[1].nearTab},
				} {
					for i := range tabs[0] {
						for q := 0; q < 4; q++ {
							for k := range tabs[0][i][q] {
								if tabs[0][i][q][k] != tabs[1][i][q][k] {
									t.Fatalf("M=%d Workers=%d: medium %d %s table differs at [%d][%d][%d]", m, w, mi+1, name, i, q, k)
								}
							}
						}
					}
				}
			}
			for name, sys := range map[string][2]*System{"tabulated": {refTab, tab}, "exact": {refExact, exact}} {
				a, b := sys[0], sys[1]
				for i := range a.Matrix.Data {
					if a.Matrix.Data[i] != b.Matrix.Data[i] {
						t.Fatalf("M=%d Workers=%d: %s matrix differs at %d: %v vs %v", m, w, name, i, a.Matrix.Data[i], b.Matrix.Data[i])
					}
				}
				for i := range a.RHS {
					if a.RHS[i] != b.RHS[i] {
						t.Fatalf("M=%d Workers=%d: %s RHS differs at %d", m, w, name, i)
					}
				}
			}
		}
	}
}

// TestTableCacheSingleFlight hammers one key from many goroutines and
// checks the cache built exactly once and every caller shares the same
// TableSet; a second frequency costs exactly one more build, and
// Workers (an execution detail) never splits the key.
func TestTableCacheSingleFlight(t *testing.T) {
	tc := NewTableCache(4, nil)
	p := paramsAt(5 * units.GHz)
	L, m, zspan := 5*um, 6, 2*um

	const callers = 8
	got := make([]*TableSet, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tc.Get(p, L, m, zspan, Options{Workers: 1 + i%2})
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d received a different TableSet", i)
		}
	}
	if b := tc.Builds(); b != 1 {
		t.Fatalf("builds = %d, want 1", b)
	}

	if ts2 := tc.Get(paramsAt(6*units.GHz), L, m, zspan, Options{}); ts2 == got[0] {
		t.Fatal("distinct frequency shared a table set")
	}
	if b := tc.Builds(); b != 2 {
		t.Fatalf("builds after second frequency = %d, want 2", b)
	}
	if n := tc.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
}

// TestTableCacheLRUEviction fills a capacity-2 cache with three keys
// and checks the least-recently-used one is evicted (so re-requesting
// it rebuilds) while the recently-touched one survives.
func TestTableCacheLRUEviction(t *testing.T) {
	tc := NewTableCache(2, nil)
	L, m, zspan := 5*um, 6, 2*um
	opt := Options{Workers: 1}
	f1, f2, f3 := paramsAt(4*units.GHz), paramsAt(5*units.GHz), paramsAt(6*units.GHz)

	ts1 := tc.Get(f1, L, m, zspan, opt)
	tc.Get(f2, L, m, zspan, opt)
	tc.Get(f1, L, m, zspan, opt) // touch f1 → f2 becomes LRU
	tc.Get(f3, L, m, zspan, opt) // evicts f2
	if n := tc.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	if b := tc.Builds(); b != 3 {
		t.Fatalf("builds = %d, want 3", b)
	}
	if got := tc.Get(f1, L, m, zspan, opt); got != ts1 {
		t.Fatal("f1 should have survived eviction")
	}
	tc.Get(f2, L, m, zspan, opt) // rebuild of the evicted entry
	if b := tc.Builds(); b != 4 {
		t.Fatalf("builds after re-request = %d, want 4", b)
	}
}
