package mom

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/cmplx"
	"testing"

	"roughsim/internal/rng"
	"roughsim/internal/surface"
	"roughsim/internal/units"
)

// bitsHash is the SHA-256 of the IEEE-754 bits of every value, real part
// first, little-endian.
func bitsHash(vals ...[]complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, vs := range vals {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tableCoeffs flattens both media's far and near Chebyshev coefficients.
func tableCoeffs(ts *TableSet) [][]complex128 {
	var out [][]complex128
	for _, tb := range []*tabulated{ts.g1, ts.g2} {
		for _, e := range append(tb.far, tb.nearTab...) {
			out = append(out, e[:]...)
		}
	}
	return out
}

// fingerprintSurface is the production-like surface the fingerprints are
// taken on: a shallow Gaussian KL realization (σ = 20 nm, η = 1 μm) on a
// 5 μm patch, with Green's tables spanning 14σ as the solver gives them.
func fingerprintSurface(m int) (*surface.Surface, float64) {
	const sigma = 0.02 * um
	c := surface.NewGaussianCorr(sigma, 1*um)
	return surface.NewKL(c, 5*um, m).SampleTruncated(rng.New(5), 10), 14 * sigma
}

// TestKernelFingerprints pins the production kernels bit for bit: the
// Green's-table coefficients, the tabulated dense system and the
// tabulated FFT operator's MatVec. Any change to how tables are sampled
// and fitted, to the near-field quadrature or to the far-field rule
// shows up here before it can move a sweep result, a checkpoint or a
// distributed column.
func TestKernelFingerprints(t *testing.T) {
	// Recorded when the kernel fits became symmetry-reduced (one fit per
	// D4 orbit of lateral offsets, one node per ±Δz pair). The dense
	// system is only fingerprinted at M=8, the regime where production
	// assembles it; M=20 is the FFT operator's.
	cases := []struct {
		m                     int
		fGHz                  float64
		tables, dense, matvec string
	}{
		{8, 3,
			"c2e4d7862c045ba06b0a8c13b7b99d8675799316d42b92a64684050a37229718",
			"f9822f0b53ee687152620abf8542c052eebb9d21ba5ae022735c1494032a75f1",
			"a0617d0a1ec063b1647ced7d596c42d31f97c2c22fc80e540bda0910950b51d7"},
		{8, 9,
			"3a7d421950440596695642ef57779eae61491764d982738f9e74609e6a5c4bc3",
			"dc5b9ae32bc39ddd1f4e7a49003cb3e14148d5f2433108bc64ea5175fb4800d4",
			"37015cfa5aa0ad8f8731b5cf9cff4694313aab223c159c59bb8b191235714bdf"},
		{20, 3,
			"e6d58c4bbf38acbe8f33cefa29f0507b866cdad1da50bfcaf6e24361222cf842",
			"-",
			"f380505fd0624cdbd59d4d73ace72e2a790241fcdd8a547c1cc6261a0d47c2d6"},
		{20, 9,
			"34a6bb431a41499ccf75e83b215a00029175b353ccdf689f6f5c35d58db0c253",
			"-",
			"5bb14e29d30971236db24b864d6352be8d8d1094145517d8bcbd062cdb8b25a3"},
	}
	for _, tc := range cases {
		surf, zspan := fingerprintSurface(tc.m)
		n := surf.M * surf.M
		p := paramsAt(tc.fGHz * units.GHz)
		ts := NewTableSet(p, surf.L, tc.m, zspan, Options{})
		check := func(what, want, got string) {
			if got != want {
				t.Errorf("M=%d f=%g GHz: %s fingerprint %s, want %s", tc.m, tc.fGHz, what, got, want)
			}
		}
		// The symmetry reduction moved the production kernels at rounding
		// level; sampled entries stay pinned to the values recorded before
		// it, relative to the largest entry.
		fi := map[float64]int{3: 0, 9: 1}[tc.fGHz]
		pinned := func(what string, got, want []complex128, scale float64) {
			var worst float64
			for k := range want {
				worst = math.Max(worst, cmplx.Abs(got[k]-want[k])/scale)
			}
			if worst > 1e-13 {
				t.Errorf("M=%d f=%g GHz: %s entries moved %.3g of max |entry| from the pre-symmetry kernels", tc.m, tc.fGHz, what, worst)
			}
			t.Logf("M=%d f=%g GHz: %s entries within %.3g of max |entry| of the pre-symmetry kernels", tc.m, tc.fGHz, what, worst)
		}
		check("table", tc.tables, bitsHash(tableCoeffs(ts)...))
		if tc.dense != "-" {
			sys, err := AssembleTabulated(surf, p, ts, Options{})
			if err != nil {
				t.Fatal(err)
			}
			check("dense", tc.dense, bitsHash(sys.Matrix.Data, sys.RHS))
			var got []complex128
			for _, row := range []int{9, n + 9} {
				for _, col := range []int{10, 14, 27, 45, 62, n + 9, n + 27, n + 62} {
					got = append(got, sys.Matrix.Row(row)[col])
				}
			}
			pinned("dense", got, preSymmetryDense[fi][:], sys.Matrix.MaxAbs())
		}
		op, err := NewFFTOperatorTabulated(surf, p, ts, 6, Options{})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, 2*op.N)
		for i := range x {
			x[i] = complex(math.Sin(float64(3*i+1)), math.Cos(float64(2*i+1)))
		}
		y := make([]complex128, len(x))
		op.MatVec(y, x)
		check("matvec", tc.matvec, bitsHash(y))
		if tc.m == 20 {
			var got []complex128
			var scale float64
			for _, i := range []int{0, 21, 137, 250, 399, 400, 421, 537, 650, 799} {
				got = append(got, y[i])
			}
			for _, v := range y {
				scale = math.Max(scale, cmplx.Abs(v))
			}
			pinned("matvec", got, preSymmetryMatVec[fi][:], scale)
		}
	}

	// The exact Ewald assembly is a reference path, not a production one:
	// it may move at rounding level. Log how far sampled entries (self,
	// near and far cells in all four blocks of one row pair) are from the
	// values recorded before its offsets were period-wrapped.
	surf, _ := fingerprintSurface(8)
	n := surf.M * surf.M
	for k, fGHz := range []float64{3, 9} {
		a := Assemble(surf, paramsAt(fGHz*units.GHz), Options{}).Matrix
		var worst float64
		for r, row := range []int{9, n + 9} {
			for c, col := range []int{9, 10, 27, 45, n + 9, n + 10, n + 27, n + 45} {
				want := exactSamples[k][r*8+c]
				if d := cmplx.Abs(a.Row(row)[col]-want) / cmplx.Abs(want); d > worst {
					worst = d
				}
			}
		}
		t.Logf("f=%g GHz exact Assemble: max relative deviation from the recorded entries %.3g", fGHz, worst)
	}
}

// exactSamples are Assemble entries of the M=8 fingerprint surface at
// 3 and 9 GHz (see TestKernelFingerprints for the positions).
var exactSamples = [2][16]complex128{{
	0.5048967237503537,
	0.0013757893118036644 - 1.6782973744446276e-08i,
	-0.00041151046795115826 - 3.849680193874633e-08i,
	-3.2966232925451085e-05 - 7.58338911756184e-09i,
	6.661573079254857e-13 - 1.558190061843462e-15i,
	6.661573079236456e-13 - 2.829930327708894e-16i,
	6.661573079173546e-13 + 5.053057395920053e-17i,
	6.661573079251741e-13 + 1.0357915408861908e-16i,
	0.49510327624964634,
	-0.0013712895544023302 - 0.00024162359951684147i,
	0.00011724311246136165 + 0.0001719555290889146i,
	-3.903685789078402e-06 + 4.1087996823080064e-06i,
	-1.4902848364428604e-07 - 2.584187957074493e-08i,
	-2.7095423805281867e-08 - 1.4227966185050958e-08i,
	8.476454682825367e-11 - 3.802171628306582e-09i,
	1.7306691659387901e-09 - 3.078054010152738e-10i,
}, {
	0.5048967237503537,
	0.0013757893472460684 - 5.0348921232840345e-08i,
	-0.0004115104624314496 - 1.1549040581243697e-07i,
	-3.296622820895998e-05 - 2.2750167352656912e-08i,
	6.661573079254855e-13 - 4.674570249907902e-15i,
	6.661573079089064e-13 - 8.48979131039415e-16i,
	6.661573078522894e-13 + 1.5159172408785276e-16i,
	6.661573079226633e-13 + 3.107374811210104e-16i,
	0.49510327624964634,
	-0.0011264421394542286 - 0.00049816660366163i,
	-3.730570763639352e-05 + 9.714665071761558e-05i,
	-2.611643676598931e-07 - 1.011896969096457e-06i,
	-1.3001112507248452e-07 - 4.535508011404396e-08i,
	-1.4520419379912566e-08 - 1.5673735980639885e-08i,
	1.0473168429410054e-09 - 7.874615564260869e-10i,
	-8.726890567512966e-11 + 1.8310200270840055e-10i,
}}

// preSymmetryDense are AssembleTabulated entries of the M=8 fingerprint
// surface at 3 and 9 GHz, rows 9 and n+9 × columns 10, 14, 27, 45, 62,
// n+9, n+27, n+62, recorded before the kernel fits were
// symmetry-reduced.
var preSymmetryDense = [2][16]complex128{{
	0.0013757893118036696 - 1.6782973744445945e-08i,
	-0.00018501054990328544 - 5.575726861700317e-08i,
	-0.0004115104679511559 - 3.849680193874694e-08i,
	-3.296623292543267e-05 - 7.583389117561083e-09i,
	-0.00036756718815057554 - 5.5293357589726906e-08i,
	6.661573079254857e-13 - 1.558190061843462e-15i,
	6.661573079173538e-13 + 5.0530573959200365e-17i,
	6.661573079088033e-13 + 8.015985396961048e-17i,
	-0.0013712895544023295 - 0.0002416235995168413i,
	-6.34044573732655e-05 - 2.244496586204204e-06i,
	0.00011724311246136177 + 0.0001719555290889147i,
	-3.903685789078403e-06 + 4.108799682307999e-06i,
	1.4887866387455261e-05 + 0.00012032721395176658i,
	-1.4902848364428604e-07 - 2.584187957074493e-08i,
	8.476454682825255e-11 - 3.802171628306583e-09i,
	1.396538489101314e-09 - 1.937901881556959e-09i,
}, {
	0.0013757893472460723 - 5.034892123283955e-08i,
	-0.000185010510974941 - 1.672718058396498e-07i,
	-0.0004115104624314525 - 1.1549040581243845e-07i,
	-3.296622820894296e-05 - 2.275016735265527e-08i,
	-0.00036756716665175036 - 1.65880072758102e-07i,
	6.661573079254855e-13 - 4.674570249907902e-15i,
	6.661573078522881e-13 + 1.51591724087852e-16i,
	6.661573077753274e-13 + 2.404795719412187e-16i,
	-0.0011264421394542286 - 0.0004981666036616301i,
	5.601038555836871e-06 - 3.84515663680233e-05i,
	-3.73057076363935e-05 + 9.714665071761565e-05i,
	-2.6116436765989293e-07 - 1.0118969690964573e-06i,
	-3.843411450230188e-05 + 1.5608728519404864e-05i,
	-1.3001112507248452e-07 - 4.535508011404396e-08i,
	1.047316842941006e-09 - 7.874615564260878e-10i,
	4.767815745050143e-10 + 1.4107340934519158e-10i,
}}

// preSymmetryMatVec are tabulated FFT-operator MatVec entries of the M=20
// fingerprint surface at 3 and 9 GHz (order 6, the fingerprint input
// vector), at indices 0, 21, 137, 250, 399, 400, 421, 537, 650, 799,
// recorded before the kernel fits were symmetry-reduced.
var preSymmetryMatVec = [2][10]complex128{{
	0.42121505581436897 + 0.27062912671441014i,
	0.4604906563440757 + 0.27794844026680876i,
	-0.21815901759026263 + 0.05525192417060306i,
	-0.07947146174105525 - 0.04202400180641964i,
	-0.4349412262049697 + 0.25573003798190924i,
	0.4202616406732956 + 0.2696807954359626i,
	0.4595473054158613 + 0.2771726221253807i,
	-0.21800966319228868 + 0.05518449845996611i,
	-0.07921189972076832 - 0.04191402363605946i,
	-0.434076127470786 + 0.2543900123388595i,
}, {
	0.4212150560391088 + 0.27062912672744444i,
	0.46049065645408915 + 0.2779484403563634i,
	-0.2181590201369116 + 0.05525192425395593i,
	-0.07947146014183008 - 0.042024001855561925i,
	-0.4349412266325642 + 0.25573003801473915i,
	0.4202703277720711 + 0.2696982142087825i,
	0.4595578345207174 + 0.2771951031838674i,
	-0.21801443778023094 + 0.05520653153942219i,
	-0.07920459583633092 - 0.04191689708155305i,
	-0.43408610413195314 + 0.2543745617530596i,
}}
