package txline

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/cmplx"
	"strconv"
	"strings"
	"testing"

	"roughsim/internal/resilience"
	"roughsim/internal/units"
)

func sweepFreqs() []float64 {
	var fs []float64
	for fG := 1.0; fG <= 10; fG++ {
		fs = append(fs, fG*units.GHz)
	}
	return fs
}

// sweepS evaluates the two-port S-parameters of a length-ell microstrip
// over freqs, referenced to z0, with the causal roughness factor kc(f):
// RLGC → LineABCD → S at each frequency, the cascade the S-parameter
// service runs.
func sweepS(t *testing.T, ms Microstrip, ell, z0 float64, freqs []float64, kc func(f float64) complex128) []SParams {
	t.Helper()
	sweep := make([]SParams, len(freqs))
	for i, f := range freqs {
		r, l, c, g := mustRLGC(t, ms, f, kc(f))
		m := mustABCD(t, f, ell, r, l, c, g)
		sweep[i] = SParams{F: f, S11: m.S11(z0), S21: m.S21(z0)}
	}
	return sweep
}

// smooth is the K_c ≡ 1 factor of a smooth conductor.
func smooth(float64) complex128 { return 1 }

func TestSweepAndTouchstone(t *testing.T) {
	ms := fr4Line()
	sweep := sweepS(t, ms, 0.1, 50, sweepFreqs(), smooth)
	if len(sweep) != 10 {
		t.Fatalf("sweep length %d", len(sweep))
	}
	var buf bytes.Buffer
	if err := WriteTouchstone(&buf, 50, sweep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# HZ S RI R 50") {
		t.Fatalf("missing option line:\n%s", out[:80])
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 2 header/comment lines + 10 data rows.
	if len(lines) != 12 {
		t.Fatalf("line count %d", len(lines))
	}
	if fields := strings.Fields(lines[2]); len(fields) != 9 {
		t.Fatalf("data row has %d fields, want 9", len(fields))
	}
}

func TestTouchstoneRejectsBadSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTouchstone(&buf, 50, nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	sweep := []SParams{{F: 2e9}, {F: 1e9}}
	err := WriteTouchstone(&buf, 50, sweep)
	if err == nil {
		t.Fatal("non-monotone frequencies accepted")
	}
	if !strings.Contains(err.Error(), "strictly increasing") {
		t.Fatalf("non-monotone error not descriptive: %v", err)
	}
}

func TestTouchstoneRejectsDuplicateFrequency(t *testing.T) {
	// Touchstone 1.x requires strictly increasing rows; a duplicate must
	// be rejected with an error naming the repeated frequency, not
	// silently emitted for an SI tool to misparse.
	sweep := []SParams{{F: 1e9, S21: 1}, {F: 2e9, S21: 1}, {F: 2e9, S21: 1}, {F: 3e9, S21: 1}}
	var buf bytes.Buffer
	err := WriteTouchstone(&buf, 50, sweep)
	if err == nil {
		t.Fatal("duplicate frequency accepted")
	}
	if !strings.Contains(err.Error(), "duplicate") || !strings.Contains(err.Error(), "2e+09") {
		t.Fatalf("duplicate error not descriptive: %v", err)
	}
	// Non-finite frequencies are equally fatal.
	if err := WriteTouchstone(&buf, 50, []SParams{{F: math.NaN(), S21: 1}}); err == nil {
		t.Fatal("NaN frequency accepted")
	}
}

func TestSweepPassivity(t *testing.T) {
	// A passive line keeps σ_max(S) = max|S11 ± S21| ≤ 1 (the exact
	// singular values of a reciprocal, symmetric two-port), within the
	// 1e-9 the service's passivity gate allows.
	ms := fr4Line()
	freqs := sweepFreqs()
	ks := make([]float64, len(freqs))
	for i, f := range freqs {
		ks[i] = 1 + 0.5*f/(f+5e9) // rising K
	}
	rough, err := NewCausalRoughness(freqs, ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sweepS(t, ms, 0.3, 50, freqs, rough.Factor) {
		if p := math.Max(cmplx.Abs(s.S11+s.S21), cmplx.Abs(s.S11-s.S21)); p > 1+1e-9 {
			t.Fatalf("line is active at %g Hz: σ_max(S) = %g", s.F, p)
		}
	}
}

func TestGroupDelayPositiveAndNearTEM(t *testing.T) {
	ms := fr4Line()
	// Keep the per-sample phase step below π (delay·Δf < ½) so the
	// unwrap in GroupDelay is unambiguous: 5 cm at 1 GHz spacing.
	ell := 0.05
	sweep := sweepS(t, ms, ell, 50, sweepFreqs(), smooth)
	gd := GroupDelay(sweep)
	// Expected delay ≈ ell/v = ell·sqrt(ε_eff)/c.
	want := ell / (units.C0 / sqrtEff(ms))
	for i, d := range gd {
		if d <= 0 {
			t.Fatalf("negative group delay at segment %d: %g", i, d)
		}
		if d < 0.5*want || d > 2*want {
			t.Fatalf("group delay %g far from TEM estimate %g", d, want)
		}
	}
}

func sqrtEff(ms Microstrip) float64 {
	return math.Sqrt(ms.EffectivePermittivity())
}

func TestTouchstoneRejectionsAreTyped(t *testing.T) {
	good := []SParams{{F: 1e9, S11: 0.1, S21: 0.9}, {F: 2e9, S11: 0.1, S21: 0.9}}
	cases := []struct {
		name  string
		z0    float64
		sweep []SParams
		want  resilience.Kind
	}{
		{"empty", 50, nil, resilience.KindInvalidInput},
		{"zero-z0", 0, good, resilience.KindInvalidInput},
		{"negative-z0", -50, good, resilience.KindInvalidInput},
		{"nan-z0", math.NaN(), good, resilience.KindInvalidInput},
		{"inf-z0", math.Inf(1), good, resilience.KindInvalidInput},
		{"nan-freq", 50, []SParams{{F: math.NaN()}}, resilience.KindInvalidInput},
		{"descending", 50, []SParams{{F: 2e9}, {F: 1e9}}, resilience.KindInvalidInput},
		{"duplicate", 50, []SParams{{F: 1e9}, {F: 1e9}}, resilience.KindInvalidInput},
		{"nan-s11", 50, []SParams{{F: 1e9, S11: complex(math.NaN(), 0)}}, resilience.KindNumerical},
		{"inf-s21", 50, []SParams{{F: 1e9, S21: complex(0, math.Inf(-1))}}, resilience.KindNumerical},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		err := WriteTouchstone(&buf, tc.z0, tc.sweep)
		if got := resilience.Classify(err); got != tc.want {
			t.Errorf("%s: classified %v, want %v (err %v)", tc.name, got, tc.want, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: rejected sweep still wrote %d bytes", tc.name, buf.Len())
		}
	}
}

// FuzzWriteTouchstone: no z0 or sweep may panic WriteTouchstone, and an
// accepted sweep writes exactly the two header lines plus one row of 9
// finite fields per sample.
func FuzzWriteTouchstone(f *testing.F) {
	row := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(50.0, row(1e9, 0.1, -0.2, 0.9, 0.3, 2e9, 0.12, -0.1, 0.85, 0.4))
	f.Add(75.0, row(5e9, 0, 0, 1, 0))
	f.Add(0.0, row(1e9, 0.1, 0, 0.9, 0))
	f.Add(50.0, row(2e9, 0, 0, 1, 0, 1e9, 0, 0, 1, 0))
	f.Add(50.0, row(1e9, math.NaN(), 0, 1, 0))
	f.Add(math.Inf(1), row(1e9, 0, 0, 1, 0))
	f.Fuzz(func(t *testing.T, z0 float64, raw []byte) {
		var sweep []SParams
		for len(raw) >= 40 {
			v := func(k int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:])) }
			sweep = append(sweep, SParams{F: v(0), S11: complex(v(1), v(2)), S21: complex(v(3), v(4))})
			raw = raw[40:]
		}
		var buf bytes.Buffer
		if err := WriteTouchstone(&buf, z0, sweep); err != nil {
			return
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines) != 2+len(sweep) {
			t.Fatalf("%d lines for %d rows:\n%s", len(lines), len(sweep), buf.String())
		}
		for _, line := range lines[2:] {
			fields := strings.Fields(line)
			if len(fields) != 9 {
				t.Fatalf("row has %d fields, want 9: %q", len(fields), line)
			}
			for _, fld := range fields {
				v, err := strconv.ParseFloat(fld, 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("row field %q is not a finite number: %q", fld, line)
				}
			}
		}
	})
}
