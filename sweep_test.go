package roughsim

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

func TestCFKindJSONRoundTrip(t *testing.T) {
	for _, k := range []CFKind{GaussianCF, ExponentialCF, MeasuredCF} {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back CFKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("CF kind %v round-tripped to %v", k, back)
		}
	}
	var k CFKind
	if err := json.Unmarshal([]byte(`"triangular"`), &k); err == nil {
		t.Fatal("unknown CF name must fail to unmarshal")
	}
	if _, err := json.Marshal(CFKind(99)); err == nil {
		t.Fatal("unknown CF kind must fail to marshal")
	}
}

func TestSweepConfigKeyProperties(t *testing.T) {
	base := SweepConfig{
		Spec:  SurfaceSpec{Corr: GaussianCF, Sigma: 1e-6, Eta: 1e-6},
		Freqs: []float64{5e9},
	}
	// Deterministic.
	if base.KeyAt(5e9) != base.KeyAt(5e9) {
		t.Fatal("key must be deterministic")
	}
	// Defaults collapse: explicit defaults share the key with elided ones.
	explicit := base
	explicit.Stack = CopperSiO2()
	explicit.Acc = Accuracy{GridPerSide: 16, PatchOverEta: 5, StochasticDim: 16}
	if base.KeyAt(5e9) != explicit.KeyAt(5e9) {
		t.Fatal("defaulted and explicit-default configs must share a key")
	}
	// Every result-affecting parameter must change the key.
	variants := []SweepConfig{}
	v := base
	v.Spec.Sigma = 2e-6
	variants = append(variants, v)
	v = base
	v.Spec.Eta = 2e-6
	variants = append(variants, v)
	v = base
	v.Spec.Corr = ExponentialCF
	variants = append(variants, v)
	v = base
	v.Acc.GridPerSide = 20
	variants = append(variants, v)
	v = base
	v.Stack = Stack{EpsR: 4.2, Rho: 1.67e-8}
	variants = append(variants, v)
	for i, vc := range variants {
		if vc.KeyAt(5e9) == base.KeyAt(5e9) {
			t.Fatalf("variant %d must not collide with base", i)
		}
	}
	if base.KeyAt(5e9) == base.KeyAt(6e9) {
		t.Fatal("frequency must be part of the key")
	}
	// Bit-exactness: a value that differs in the last ulp gets its own key.
	v = base
	v.Spec.Sigma = math.Nextafter(1e-6, 1)
	if v.KeyAt(5e9) == base.KeyAt(5e9) {
		t.Fatal("adjacent float configs must not collide")
	}
}

func TestSweepConfigValidate(t *testing.T) {
	ok := SweepConfig{Spec: SurfaceSpec{Corr: GaussianCF, Sigma: 1e-6, Eta: 1e-6}, Freqs: []float64{1e9}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, freqs := range [][]float64{nil, {0}, {-1e9}, {math.NaN()}, {1e16}} {
		bad := ok
		bad.Freqs = freqs
		if err := bad.Validate(); err == nil {
			t.Fatalf("freqs %v must be rejected", freqs)
		}
	}
}

func TestRunSweepJSONSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	cfg := SweepConfig{
		Spec:  SurfaceSpec{Corr: GaussianCF, Sigma: 0.4e-6, Eta: 1e-6},
		Acc:   Accuracy{GridPerSide: 8, StochasticDim: 2},
		Freqs: []float64{5e9},
	}
	res, err := RunSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("points: %d", len(res.Points))
	}
	p := res.Points[0]
	if p.FreqHz != 5e9 || !(p.KSWM > 1) || !(p.SkinDepthM > 0) {
		t.Fatalf("point %+v", p)
	}
	// The JSON output round-trips bit-exactly (Go's shortest-round-trip
	// float formatting) — CLI and server emissions stay diffable.
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Points[0] != p {
		t.Fatalf("round-trip changed the record: %+v vs %+v", back.Points[0], p)
	}
	if back.Config.Spec.Sigma != cfg.Spec.Sigma {
		t.Fatalf("config round-trip: %+v", back.Config)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatal("re-marshal must be byte-identical")
	}
}

func TestSweepPointJSONNonFinite(t *testing.T) {
	// encoding/json rejects NaN/±Inf outright; a single failed baseline
	// (e.g. an out-of-domain empirical formula) must not make the whole
	// sweep payload undeliverable. Non-finite fields marshal as null and
	// decode back as NaN.
	p := SweepPoint{
		FreqHz:     5e9,
		SkinDepthM: 0.92e-6,
		KSWM:       1.25,
		KSPM2:      math.Inf(1),
		KEmpirical: math.NaN(),
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("non-finite point failed to marshal: %v", err)
	}
	want := `{"freq_hz":5000000000,"skin_depth_m":9.2e-7,"k_swm":1.25,"k_spm2":null,"k_empirical":null}`
	if string(b) != want {
		t.Fatalf("wire form:\n%s\nwant\n%s", b, want)
	}
	var back SweepPoint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.FreqHz != p.FreqHz || back.KSWM != p.KSWM || back.SkinDepthM != p.SkinDepthM {
		t.Fatalf("finite fields changed: %+v", back)
	}
	if !math.IsNaN(back.KSPM2) || !math.IsNaN(back.KEmpirical) {
		t.Fatalf("null fields must decode as NaN: %+v", back)
	}

	// A whole result with a poisoned point still encodes.
	res := SweepResult{Config: SweepConfig{Freqs: []float64{5e9}}, Points: []SweepPoint{p}}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result with non-finite point failed to marshal: %v", err)
	}

	// Finite points keep the exact legacy wire bytes.
	fin := SweepPoint{FreqHz: 5e9, SkinDepthM: 0.92e-6, KSWM: 1.25, KSPM2: 1.2, KEmpirical: 1.3}
	b, err = json.Marshal(fin)
	if err != nil {
		t.Fatal(err)
	}
	type legacy struct {
		FreqHz     float64 `json:"freq_hz"`
		SkinDepthM float64 `json:"skin_depth_m"`
		KSWM       float64 `json:"k_swm"`
		KSPM2      float64 `json:"k_spm2"`
		KEmpirical float64 `json:"k_empirical"`
	}
	lb, err := json.Marshal(legacy(fin))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(lb) {
		t.Fatalf("finite wire form drifted:\n%s\nvs legacy\n%s", b, lb)
	}
}

// TestSweepPathChoice pins the engine's adaptive interp-or-exact choice
// on the benchmark and paper configurations without solving anything:
// a wide band with more frequencies than anchors interpolates, while
// the paper's broadband sweep (where the band's phase swing needs more
// anchors than points) and a narrow four-point sweep run exact. The
// benchmark configurations solve only the ±ξ₂ pair of their five d=2
// nodes: the center node is flat and the ±ξ₁ pair are rigid shifts.
func TestSweepPathChoice(t *testing.T) {
	campaign := make([]float64, 16) // the campaign-g8 benchmark's band
	for i := range campaign {
		campaign[i] = 4e9 + 2e9*float64(i)/15
	}
	var paper []float64 // 1–9 GHz in 1 GHz steps
	for f := 1e9; f <= 9e9; f += 1e9 {
		paper = append(paper, f)
	}
	for _, tc := range []struct {
		name    string
		spec    SurfaceSpec
		acc     Accuracy
		freqs   []float64
		anchors int // 0 = exact path
		nodes   []int
	}{
		{"campaign-g8 cell", SurfaceSpec{Corr: GaussianCF, Sigma: 0.3e-6, Eta: 1e-6},
			Accuracy{GridPerSide: 8, StochasticDim: 2}, campaign, 7, []int{1, 3}},
		{"paper σ M=40", SurfaceSpec{Corr: GaussianCF, Sigma: 1e-6, Eta: 1e-6},
			Accuracy{GridPerSide: 40, StochasticDim: 16}, paper, 0, nil},
		{"sweep-m20", SurfaceSpec{Corr: GaussianCF, Sigma: 15e-9, Eta: 1e-6},
			Accuracy{GridPerSide: 20, StochasticDim: 2}, []float64{4.925e9, 4.975e9, 5.025e9, 5.075e9}, 0, []int{1, 3}},
	} {
		sim, err := NewSimulation(CopperSiO2(), tc.spec, tc.acc)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sim.PlanSweepColumns(tc.freqs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if plan.Anchors != tc.anchors {
			t.Errorf("%s: %d anchors, want %d (0 = exact)", tc.name, plan.Anchors, tc.anchors)
		}
		if tc.nodes != nil && (plan.NumNodes != 5 || fmt.Sprint(plan.Nodes) != fmt.Sprint(tc.nodes)) {
			t.Errorf("%s: nodes %v of %d, want %v of 5", tc.name, plan.Nodes, plan.NumNodes, tc.nodes)
		}
	}
}
