package surrogate

import (
	"context"
	"math"
	"testing"
)

// goldenK is a smooth K(f, ξ) with curvature in every ξ direction, so
// an order-2 fit has nonzero linear, square and cross terms.
func goldenK(f float64, xi []float64) float64 {
	x := math.Sqrt(f) / 1e5
	return 1 + 0.04*math.Exp(-x/70) + 0.01*x/100*xi[0] - 0.006*math.Cos(x/50)*xi[1] +
		0.002*xi[2]*xi[2] + 0.003*x/100*xi[0]*xi[1]
}

// TestModelEvalIsPinned pins Mean, Variance and Eval of an order-2,
// d = 3 model bit for bit at anchor and off-anchor frequencies: a
// change to the evaluation order shows here, where the tolerance checks
// of model_test.go would not.
func TestModelEvalIsPinned(t *testing.T) {
	spec := testSpec()
	spec.Order = 2
	m, err := Fit(context.Background(), &funcSource{dim: 3, k: goldenK}, spec)
	if err != nil {
		t.Fatal(err)
	}
	xi := []float64{0.7, -1.3, 0.4}
	freqs := []float64{m.XNodes[0] * m.XNodes[0], m.XNodes[5] * m.XNodes[5], 4.37e9, 5.81e9}
	want := [][3]uint64{
		{0x3ff0aa3b6e9aa115, 0x3f07114c9c4ad36f, 0x3ff0c36e5c275d6e},
		{0x3ff0aa7c3053234b, 0x3f07115f790004ee, 0x3ff0c3aa7c098b72},
		{0x3ff0aa7df5608670, 0x3f07115ff293f8fb, 0x3ff0c3ac209158a6},
		{0x3ff0aa41f32142e9, 0x3f07114ea3d2a01d, 0x3ff0c37469b1f311},
	}
	for i, f := range freqs {
		mean, err1 := m.Mean(f)
		v, err2 := m.Variance(f)
		k, err3 := m.Eval(f, xi)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err1, err2, err3)
		}
		got := [3]uint64{math.Float64bits(mean), math.Float64bits(v), math.Float64bits(k)}
		if got != want[i] {
			t.Errorf("f=%g: bits %#x, want %#x", f, got, want[i])
		}
	}
}
