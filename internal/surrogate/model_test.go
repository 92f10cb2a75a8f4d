package surrogate

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"roughsim/internal/rescache"
	"roughsim/internal/resilience"
	"roughsim/internal/sscm"
)

// funcSource evaluates an analytic K(f, ξ) at the collocation nodes —
// a stand-in for the exact MoM pipeline with a known ground truth.
type funcSource struct {
	dim   int
	k     func(f float64, xi []float64) float64
	calls atomic.Int64 // CollocationValues invocations
	evals atomic.Int64 // individual K evaluations ("solves")
}

func (s *funcSource) StochasticDim() int { return s.dim }

func (s *funcSource) CollocationValues(_ context.Context, freqs []float64, order int) ([][]float64, error) {
	s.calls.Add(1)
	nodes, err := sscm.Nodes(s.dim, order)
	if err != nil {
		return nil, err
	}
	vals := make([][]float64, len(freqs))
	for i, f := range freqs {
		vals[i] = make([]float64, len(nodes))
		for j, xi := range nodes {
			vals[i][j] = s.k(f, xi)
			s.evals.Add(1)
		}
	}
	return vals, nil
}

// smoothK is separable, linear in ξ and entire in x = √f — exactly the
// structure the model's two expansions assume, so an order-1 fit with
// a few anchors must reproduce it to near round-off.
func smoothK(f float64, xi []float64) float64 {
	x := math.Sqrt(f) / 1e5 // O(1) over a GHz band
	return 1 + 0.05*math.Exp(-x/50) + 0.02*x/100*xi[0] - 0.01*math.Sin(x/60)*xi[1]
}

func testSpec() FitSpec {
	return FitSpec{
		Key:    rescache.NewEnc().String("model-test").Sum(),
		FMinHz: 4e9,
		FMaxHz: 6e9,
	}
}

func fitSmooth(t *testing.T) (*Model, *funcSource) {
	t.Helper()
	src := &funcSource{dim: 2, k: smoothK}
	m, err := Fit(context.Background(), src, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	return m, src
}

func TestModelReproducesSeparableK(t *testing.T) {
	m, _ := fitSmooth(t)
	// Probe off-anchor frequencies across the band.
	for _, f := range []float64{4e9, 4.37e9, 5e9, 5.81e9, 6e9} {
		xi := []float64{0.7, -1.3}
		want := smoothK(f, xi)
		got, err := m.Eval(f, xi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Eval(%g) = %.12g, want %.12g", f, got, want)
		}
		// Mean: E[K] is K at ξ = 0 for a ξ-linear model.
		mean, err := m.Mean(f)
		if err != nil {
			t.Fatal(err)
		}
		if want0 := smoothK(f, []float64{0, 0}); math.Abs(mean-want0) > 1e-9 {
			t.Errorf("Mean(%g) = %.12g, want %.12g", f, mean, want0)
		}
		// Variance: sum of squared linear coefficients.
		x := math.Sqrt(f) / 1e5
		b1, b2 := 0.02*x/100, -0.01*math.Sin(x/60)
		wantVar := b1*b1 + b2*b2
		v, err := m.Variance(f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-wantVar) > 1e-12 {
			t.Errorf("Variance(%g) = %.12g, want %.12g", f, v, wantVar)
		}
	}
}

func TestModelValidateMeasuresTinyError(t *testing.T) {
	m, src := fitSmooth(t)
	maxErr, err := Validate(context.Background(), src, m, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > 1e-9 {
		t.Fatalf("validation error %g for an exactly representable K", maxErr)
	}
	// SolvePoints must account every fit + validation evaluation.
	if got, want := int64(m.SolvePoints), src.evals.Load(); got != want {
		t.Fatalf("SolvePoints = %d, source evaluated %d", got, want)
	}
}

func TestModelOutOfBandErrors(t *testing.T) {
	m, _ := fitSmooth(t)
	if m.InBand(3e9) || m.InBand(7e9) || !m.InBand(5e9) {
		t.Fatal("InBand misclassifies")
	}
	if _, err := m.Mean(3e9); err == nil || !strings.Contains(err.Error(), "outside the fitted band") {
		t.Fatalf("out-of-band Mean err = %v", err)
	}
	if _, err := m.Eval(7e9, []float64{0, 0}); err == nil {
		t.Fatal("out-of-band Eval must error")
	}
	if _, err := m.Eval(5e9, []float64{0}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestCodecRoundTripAndShapeChecks(t *testing.T) {
	m, _ := fitSmooth(t)
	m.MaxRelErr = 1e-7
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err1 := back.Eval(5.2e9, []float64{0.3, 0.4})
	want, err2 := m.Eval(5.2e9, []float64{0.3, 0.4})
	if err1 != nil || err2 != nil || got != want {
		t.Fatalf("round-trip eval %v/%v vs %v/%v", got, err1, want, err2)
	}
	if back.MaxRelErr != m.MaxRelErr {
		t.Fatal("MaxRelErr lost in round trip")
	}

	for name, corrupt := range map[string]func(*Model){
		"schema":       func(m *Model) { m.Schema = SchemaVersion + 1 },
		"row length":   func(m *Model) { m.Coeffs[0] = m.Coeffs[0][:1] },
		"anchor count": func(m *Model) { m.XNodes = m.XNodes[:2] },
		"index dim":    func(m *Model) { m.Indices[1] = []int{1} },
		"band":         func(m *Model) { m.FMinHz, m.FMaxHz = 2, 1 },
		"index sign":   func(m *Model) { m.Indices[1] = []int{-1, 0} },
		"index degree": func(m *Model) { m.Indices[1] = []int{1, 1} },
		"order":        func(m *Model) { m.Order = len(m.Indices) },
	} {
		bad, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(bad)
		if err := bad.CheckShape(); err == nil {
			t.Errorf("%s corruption passed CheckShape", name)
		}
	}
	if _, err := Decode([]byte(`{"schema":`)); err == nil {
		t.Fatal("truncated JSON must fail decode")
	}
}

func TestFitSpecValidation(t *testing.T) {
	src := &funcSource{dim: 2, k: smoothK}
	for name, spec := range map[string]FitSpec{
		"zero band":     {FMinHz: 0, FMaxHz: 1e9},
		"inverted band": {FMinHz: 2e9, FMaxHz: 1e9},
		"huge band":     {FMinHz: 1, FMaxHz: 1e16},
		"anchors > cap": {FMinHz: 1e9, FMaxHz: 2e9, Anchors: MaxAnchors + 1},
		"holdout > cap": {FMinHz: 1e9, FMaxHz: 2e9, Holdout: MaxAnchors + 2},
		"huge anchors":  {FMinHz: 1e9, FMaxHz: 2e9, Anchors: 1 << 40, Holdout: 1 << 40},
	} {
		if _, err := Fit(context.Background(), src, spec); resilience.Classify(err) != resilience.KindInvalidInput {
			t.Errorf("%s: got %v, want an invalid-input error", name, err)
		}
	}
	// The caps themselves are accepted, with room for the holdout bump.
	atCap := FitSpec{FMinHz: 1e9, FMaxHz: 2e9, Anchors: MaxAnchors, Holdout: MaxAnchors}.WithDefaults()
	if err := atCap.Validate(); err != nil || atCap.Holdout != MaxAnchors+1 {
		t.Errorf("spec at the caps: holdout %d, %v", atCap.Holdout, err)
	}
	// Defaults apply.
	m, err := Fit(context.Background(), src, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.XNodes) != DefaultAnchors || m.Order != 1 {
		t.Fatalf("defaults not applied: anchors=%d order=%d", len(m.XNodes), m.Order)
	}
}
