package sparams

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
	"roughsim/internal/txline"
	"roughsim/internal/units"
)

func testLine() txline.Microstrip {
	return txline.Microstrip{
		Width:    300e-6,
		Height:   170e-6,
		EpsR:     4.1,
		TanDelta: 0.018,
		Rho:      units.CopperResistivity,
	}
}

func testGrid() []float64 {
	var fs []float64
	for fG := 1.0; fG <= 9; fG++ {
		fs = append(fs, fG*units.GHz)
	}
	return fs
}

// risingK mimics a physical roughness profile: K rises from ~1 toward a
// saturation value.
func risingK(freqs []float64) []float64 {
	ks := make([]float64, len(freqs))
	for i, f := range freqs {
		ks[i] = 1 + 0.6*f/(f+4e9)
	}
	return ks
}

func fakeResolver(source string, maxRelErr float64) Resolver {
	return func(_ context.Context, freqs []float64) (Resolution, error) {
		return Resolution{K: risingK(freqs), Source: source, MaxRelErr: maxRelErr}, nil
	}
}

func testRequest() Request {
	return Request{
		Key:     "test-key",
		Line:    testLine(),
		LengthM: 0.05,
		Z0:      50,
		Freqs:   testGrid(),
	}
}

func TestGenerateHappyPath(t *testing.T) {
	m := telemetry.NewRegistry()
	art, err := Generate(context.Background(), testRequest(), fakeResolver("surrogate", 0.003), m)
	if err != nil {
		t.Fatal(err)
	}
	if art.Key != "test-key" || art.Source != "surrogate" || art.KMaxRelErr != 0.003 {
		t.Fatalf("provenance wrong: %+v", art)
	}
	if art.Points != 9 || art.FMinHz != 1*units.GHz || art.FMaxHz != 9*units.GHz {
		t.Fatalf("band wrong: %+v", art)
	}
	if !art.Gates.PassivityOK || !art.Gates.CausalityOK {
		t.Fatalf("gates failed on a physical line: %s", art.Gates)
	}
	if art.Gates.WorstSMax <= 0 || art.Gates.WorstSMax > 1 {
		t.Fatalf("worst σ_max %g outside (0,1]", art.Gates.WorstSMax)
	}
	// The Touchstone body must be a complete .s2p: option line + 9 rows.
	if !strings.Contains(art.Touchstone, "# HZ S RI R 50") {
		t.Fatalf("missing option line:\n%.80s", art.Touchstone)
	}
	rows := 0
	for _, line := range strings.Split(strings.TrimSpace(art.Touchstone), "\n") {
		if !strings.HasPrefix(line, "!") && !strings.HasPrefix(line, "#") {
			rows++
		}
	}
	if rows != 9 {
		t.Fatalf("touchstone has %d data rows, want 9", rows)
	}
	snap := counters(m)
	if snap["sparams.generated"] != 1 {
		t.Fatalf("sparams.generated = %d", snap["sparams.generated"])
	}
	if snap[`sparams.resolve{source="surrogate"}`] != 1 {
		t.Fatalf("resolve counter missing: %v", snap)
	}
}

func counters(m *telemetry.Registry) map[string]int64 {
	return m.Snapshot().Counters
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(context.Background(), testRequest(), fakeResolver("exact", 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(context.Background(), testRequest(), fakeResolver("exact", 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Touchstone != b.Touchstone {
		t.Fatal("identical requests produced different Touchstone bytes")
	}
}

func TestGenerateResolverErrors(t *testing.T) {
	req := testRequest()
	// Length mismatch is a numerical-contract violation.
	short := Resolver(func(_ context.Context, freqs []float64) (Resolution, error) {
		return Resolution{K: []float64{1.1, 1.2}, Source: "exact"}, nil
	})
	_, err := Generate(context.Background(), req, short, nil)
	if err == nil || resilience.Classify(err) != resilience.KindNumerical {
		t.Fatalf("length mismatch: got %v", err)
	}
	// A NaN in the resolved profile must fail in the correction phase.
	poisoned := Resolver(func(_ context.Context, freqs []float64) (Resolution, error) {
		ks := risingK(freqs)
		ks[3] = math.NaN()
		return Resolution{K: ks, Source: "exact"}, nil
	})
	if _, err := Generate(context.Background(), req, poisoned, nil); err == nil {
		t.Fatal("NaN K accepted")
	}
	// Nil resolver is an input error.
	if _, err := Generate(context.Background(), req, nil, nil); err == nil {
		t.Fatal("nil resolver accepted")
	}
}

func TestRequestValidate(t *testing.T) {
	mut := func(f func(*Request)) Request {
		r := testRequest()
		f(&r)
		return r
	}
	cases := []struct {
		name string
		req  Request
		want string // substring of the error
	}{
		{"zero-length", mut(func(r *Request) { r.LengthM = 0 }), "length_m"},
		{"nan-length", mut(func(r *Request) { r.LengthM = math.NaN() }), "length_m"},
		{"bad-z0", mut(func(r *Request) { r.Z0 = -50 }), "z0"},
		{"short-grid", mut(func(r *Request) { r.Freqs = []float64{1e9, 2e9, 3e9} }), "4 points"},
		{"dup-freq", mut(func(r *Request) { r.Freqs = []float64{1e9, 2e9, 2e9, 3e9} }), "strictly increasing"},
		{"nan-freq", mut(func(r *Request) { r.Freqs = []float64{1e9, math.NaN(), 3e9, 4e9} }), "freqs[1]"},
		{"neg-tol", mut(func(r *Request) { r.PassivityTol = -1 }), "passivity_tol"},
		{"bad-line", mut(func(r *Request) { r.Line.Width = 0 }), "width"},
		// 2 m line sampled every 4 GHz: > 13 cycles between samples —
		// group delay would alias.
		{"aliased-grid", mut(func(r *Request) {
			r.LengthM = 2
			r.Freqs = []float64{1e9, 5e9, 9e9, 13e9}
		}), "too coarse"},
	}
	for _, tc := range cases {
		err := tc.req.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if resilience.Classify(err) != resilience.KindInvalidInput {
			t.Fatalf("%s: classified %v", tc.name, resilience.Classify(err))
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	if err := testRequest().Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

// syntheticSweep builds a sweep with the phase of a nominal-delay line
// but caller-controlled magnitudes.
func syntheticSweep(freqs []float64, mag func(f float64) float64, delay float64) []txline.SParams {
	out := make([]txline.SParams, len(freqs))
	for i, f := range freqs {
		ph := -2 * math.Pi * f * delay
		out[i] = txline.SParams{
			F:   f,
			S21: complex(mag(f)*math.Cos(ph), mag(f)*math.Sin(ph)),
		}
	}
	return out
}

func TestPassivityGateViolations(t *testing.T) {
	m := telemetry.NewRegistry()
	req := testRequest()
	// |S21| > 1 at two samples: an active network must be rejected with
	// every offending frequency in the report.
	mag := func(f float64) float64 {
		if f == 3*units.GHz || f == 7*units.GHz {
			return 1.02
		}
		return 0.9
	}
	sweep := syntheticSweep(req.Freqs, mag, 1e-12)
	_, err := runGates(sweep, req, m)
	if err == nil {
		t.Fatal("active network passed the passivity gate")
	}
	var ge *GateError
	if !errors.As(err, &ge) {
		t.Fatalf("not a GateError: %T %v", err, err)
	}
	if ge.Gate != "passivity" {
		t.Fatalf("gate %q, want passivity", ge.Gate)
	}
	if resilience.Classify(err) != resilience.KindNumerical {
		t.Fatalf("classified %v, want numerical", resilience.Classify(err))
	}
	if len(ge.Report.PassivityViolations) != 2 {
		t.Fatalf("violations: %+v", ge.Report.PassivityViolations)
	}
	if ge.Report.PassivityViolations[0].FreqHz != 3*units.GHz ||
		ge.Report.PassivityViolations[1].FreqHz != 7*units.GHz {
		t.Fatalf("violation freqs: %+v", ge.Report.PassivityViolations)
	}
	if !strings.Contains(err.Error(), "2 of 9") {
		t.Fatalf("error not descriptive: %v", err)
	}
	snap := counters(m)
	if snap[`sparams.gates{gate="passivity",outcome="fail"}`] != 1 {
		t.Fatalf("gate counter missing: %v", snap)
	}
}

func TestCausalityGateViolation(t *testing.T) {
	req := testRequest()
	// A negative delay (phase advancing with frequency) is anti-causal.
	sweep := syntheticSweep(req.Freqs, func(float64) float64 { return 0.9 }, -30e-12)
	_, err := runGates(sweep, req, nil2())
	var ge *GateError
	if err == nil || !errors.As(err, &ge) || ge.Gate != "causality" {
		t.Fatalf("anti-causal sweep: got %v", err)
	}
	if ge.Report.MinGroupDelayS >= 0 {
		t.Fatalf("report delay %g, want negative", ge.Report.MinGroupDelayS)
	}
	// The report still carries the (passing) passivity evidence.
	if !ge.Report.PassivityOK {
		t.Fatal("passivity evidence lost")
	}
}

func TestFiniteGate(t *testing.T) {
	req := testRequest()
	sweep := syntheticSweep(req.Freqs, func(float64) float64 { return 0.9 }, 1e-12)
	sweep[4].S21 = complex(math.NaN(), 0)
	_, err := runGates(sweep, req, nil2())
	var ge *GateError
	if err == nil || !errors.As(err, &ge) || ge.Gate != "finite" {
		t.Fatalf("NaN sweep: got %v", err)
	}
}

func nil2() *telemetry.Registry { return telemetry.NewRegistry() }
