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
	// Recorded before the kernel evaluators were unified. The dense
	// system is only fingerprinted at M=8, the regime where production
	// assembles it; M=20 is the FFT operator's.
	cases := []struct {
		m                     int
		fGHz                  float64
		tables, dense, matvec string
	}{
		{8, 3,
			"25fd5bc8a468bee8178850bb8da471e617e6dd0cf25b5e4d64d15befe8b09620",
			"8d49b928a8a84f5a4cf2bfe741cf5d2cae365ceee8faf822240e253c17bfe598",
			"26c78ea75554350742598ef5818cea63fbe087bccca7dd1f9a1ca39a5a4cf124"},
		{8, 9,
			"f47a5fd62e20a9dee4dcefaf02a1b0b821039e24a3d7aebff81d9d8afda48a7c",
			"7674e8ab14eb86fcf13797d5707eeabaf8cc1887aae948d78b5176184293d688",
			"45ccee1b7f109524b465cf6c55517963a503086885358e7cbb82438e4db08e32"},
		{20, 3,
			"b2ea361405e5a6413f29ec91912c89419251a5ce51e3f3b578a13b849563e9ad",
			"-",
			"0eb3886f37c756ffd37d8b39c078dfacc6225d5cac0dcc5691e4a91c8fbdcb59"},
		{20, 9,
			"417080e7ec2548a2f97625e52f3e95280b193c1656cabb2cdd37b1d201fc10ec",
			"-",
			"0a64fe4cd27fec8cd650052083f0f165fbd2397a9449b3c234a2b2bf7217e014"},
	}
	for _, tc := range cases {
		surf, zspan := fingerprintSurface(tc.m)
		p := paramsAt(tc.fGHz * units.GHz)
		ts := NewTableSet(p, surf.L, tc.m, zspan, Options{})
		check := func(what, want, got string) {
			if got != want {
				t.Errorf("M=%d f=%g GHz: %s fingerprint %s, want %s", tc.m, tc.fGHz, what, got, want)
			}
		}
		check("table", tc.tables, bitsHash(tableCoeffs(ts)...))
		if tc.dense != "-" {
			sys, err := AssembleTabulated(surf, p, ts, Options{})
			if err != nil {
				t.Fatal(err)
			}
			check("dense", tc.dense, bitsHash(sys.Matrix.Data, sys.RHS))
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
