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
	// Hashes recorded when the Green's tables became span-sized: each
	// fit takes the Chebyshev node count its Δz span needs (tableNodes;
	// 12 nodes at the fingerprint surface's 280 nm span) instead of a
	// fixed 32. The 32-node fits' extra coefficients were below double
	// rounding of the kernel values, so the pinned entries below did not
	// move past their bounds (dense within 2.2e-17, MatVec within
	// 3.4e-16 of max |entry|). The dense system is only fingerprinted at
	// M=8, the regime where production assembles it; M=20 is the FFT
	// operator's. The two M=20 MatVec hashes were re-recorded when the
	// length-20 transforms (4·5) got a radix-5 butterfly in place of a
	// direct 5-point DFT per column: the sums round in a different
	// order, and the pinned MatVec entries stayed within 3.4e-16 of max
	// |entry|. The dense and MatVec hashes were re-recorded again when
	// KL synthesis began reducing each mode's phase index mod M: the
	// fingerprint surface's heights moved at rounding level while the
	// kernels did not (the table hashes, and every hash under the old
	// synthesis, are unchanged); the pinned entries stayed within
	// 2.2e-17 (dense) and 4.1e-16 (MatVec) of max |entry|. Every hash
	// was re-recorded when the dielectric's Ewald sum (real k) began
	// running in real arithmetic: one erfc per spatial image, real
	// spectral z-factors and a Taylor series for the near-real erfc in
	// place of the complex Faddeeva evaluations. The dielectric kernel
	// moved at the complex erfc's rounding (within 2.5e-15 of the
	// largest image term, greens.TestRealKMatchesComplexPath); the pinned
	// entries stayed within 2.2e-17 (dense) and 4.1e-16 (MatVec) of max
	// |entry|.
	cases := []struct {
		m                     int
		fGHz                  float64
		tables, dense, matvec string
	}{
		{8, 3,
			"5337e54d615993d16eb76a4782689388afa2aa5c703796810b3cf3e996d60f7e",
			"746691b9e5a42fa277afddf280bb4f88c28d2a13636f968fc4bd7313d94b1c91",
			"e661dad225c5077df1a3b9d4cf8d304b5466275c8f9b5c840d77f191b556b638"},
		{8, 9,
			"c6021bab438dee1722ba5e6fda741b75405ae9a3f42458eae5a521d2d4a328db",
			"54e56a5660e5de1af09b1035c02199296707eccc58adb5186b5f33785adcb00d",
			"90d758101b370a654e92a915c85697f536fc82e544258bdb9a09366d46081ea5"},
		{20, 3,
			"da23db764fd05522a8f32017c1409262207d97106cf38d9fd20ad51fb0970d97",
			"-",
			"2e703891a2e06b3396917413db295c7c922e208eb009ca806ab628840d93590b"},
		{20, 9,
			"83d8c756f8afda80392dfdbb012c3a905ae97a71d8185d3c2de009a88185dbbb",
			"-",
			"c2d1ae9ca5a9acc97bbfea7a675e324a4683063c2681906a4350aa0931dd14fd"},
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
		// Changes that should move the production kernels only at rounding
		// level keep sampled entries pinned to recorded values, relative to
		// the largest entry: dense entries, which see the transforms only
		// through the surface's eigenvalues and gradients, at 1e-16, MatVec
		// entries, which sum 2-D transforms, at 1e-13.
		fi := map[float64]int{3: 0, 9: 1}[tc.fGHz]
		pinned := func(what string, got, want []complex128, scale, tol float64) {
			var worst float64
			for k := range want {
				worst = math.Max(worst, cmplx.Abs(got[k]-want[k])/scale)
			}
			if worst > tol {
				t.Errorf("M=%d f=%g GHz: %s entries moved %.3g of max |entry| from the recorded ones", tc.m, tc.fGHz, what, worst)
			}
			t.Logf("M=%d f=%g GHz: %s entries within %.3g of max |entry| of the recorded ones", tc.m, tc.fGHz, what, worst)
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
			pinned("dense", got, orbitKLDense[fi][:], sys.Matrix.MaxAbs(), 1e-16)
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
			pinned("matvec", got, orbitKLMatVec[fi][:], scale, 1e-13)
		}
	}

	// The exact Ewald assembly is a reference path, not a production one:
	// it may move at rounding level. Log how far sampled entries (self,
	// near and far cells in all four blocks of one row pair) are from the
	// recorded values.
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
// 3 and 9 GHz (see TestKernelFingerprints for the positions), recorded
// when KL modes began reading one eigenvalue per symmetry orbit.
var exactSamples = [2][16]complex128{{
	0.5015946793532916,
	-7.432908257265348e-05 - 1.8663919497851203e-08i,
	-0.00011923920444998234 + 1.1708444900625216e-09i,
	-3.296623290942938e-05 - 7.583389117562056e-09i,
	6.661573079254857e-13 - 1.558190061843462e-15i,
	6.661573079233992e-13 - 2.8291503947405e-16i,
	6.661573079252839e-13 + 5.045818990251628e-17i,
	6.661573079251741e-13 + 1.0357915408861908e-16i,
	0.49840532064670834,
	-7.449990143029457e-06 + 1.4033232281331943e-05i,
	6.65206074944267e-05 + 7.456866335736407e-05i,
	-3.903685789071901e-06 + 4.108799682285382e-06i,
	-1.4902848364428604e-07 - 2.584187957074493e-08i,
	-2.7088154341174998e-08 - 1.422707927786431e-08i,
	8.288203911936247e-11 - 3.8047917016865664e-09i,
	1.7306691659387901e-09 - 3.078054010152738e-10i,
}, {
	0.5015946793532916,
	-7.432907015609153e-05 - 5.5991758493001576e-08i,
	-0.0001192392150411993 + 3.5125334701822267e-09i,
	-3.296622819293826e-05 - 2.2750167352656846e-08i,
	6.661573079254855e-13 - 4.674570249907902e-15i,
	6.661573079066891e-13 - 8.487451511469538e-16i,
	6.661573079236528e-13 + 1.5137457192482808e-16i,
	6.661573079226633e-13 + 3.107374811210104e-16i,
	0.49840532064670834,
	-1.411779280897363e-05 + 1.7812224881306944e-05i,
	-1.3719266231821603e-05 + 4.9923070207725636e-05i,
	-2.611643676598932e-07 - 1.0118969690964573e-06i,
	-1.3001112507248452e-07 - 4.535508011404396e-08i,
	-1.451387392671269e-08 - 1.567168408588851e-08i,
	1.0477622466467022e-09 - 7.890907209984085e-10i,
	-8.726890567512966e-11 + 1.8310200270840055e-10i,
}}

// orbitKLDense are AssembleTabulated entries of the M=8 fingerprint
// surface at 3 and 9 GHz, rows 9 and n+9 × columns 10, 14, 27, 45, 62,
// n+9, n+27, n+62, recorded when KL modes began reading one eigenvalue
// per symmetry orbit, while 2-D transforms of non-power-of-two lengths
// still ran Bluestein's algorithm.
var orbitKLDense = [2][16]complex128{{
	-7.432908257265137e-05 - 1.866391949785093e-08i,
	0.0002586175822771445 + 8.914708834064835e-09i,
	-0.00011923920444998589 + 1.170844490063001e-09i,
	-3.296623290941081e-05 - 7.583389117561341e-09i,
	6.269973656769489e-05 - 8.224055691917908e-12i,
	6.661573079254857e-13 - 1.558190061843462e-15i,
	6.661573079252841e-13 + 5.04581899025164e-17i,
	6.661573079254882e-13 + 8.006163970280451e-17i,
	-7.449990143028804e-06 + 1.4033232281332033e-05i,
	-0.00011481976360393797 - 0.00014509742709252333i,
	6.65206074944267e-05 + 7.456866335736408e-05i,
	-3.903685789071898e-06 + 4.108799682285375e-06i,
	-1.3295812596260343e-05 - 4.387951165663993e-05i,
	-1.4902848364428604e-07 - 2.584187957074493e-08i,
	8.288203911936206e-11 - 3.804791701686566e-09i,
	1.396321336098229e-09 - 1.940560572648621e-09i,
}, {
	-7.432907015609079e-05 - 5.599175849300106e-08i,
	0.0002586175939215147 + 2.674412650214862e-08i,
	-0.00011923921504120208 + 3.512533470183617e-09i,
	-3.296622819292111e-05 - 2.2750167352654785e-08i,
	6.269974393113931e-05 - 2.4672167075837584e-11i,
	6.661573079254855e-13 - 4.674570249907902e-15i,
	6.661573079236529e-13 + 1.5137457192482872e-16i,
	6.66157307925488e-13 + 2.401849291648787e-16i,
	-1.4117792808973697e-05 + 1.7812224881306896e-05i,
	4.394552408042595e-05 - 8.797412618528505e-05i,
	-1.371926623182161e-05 + 4.992307020772563e-05i,
	-2.611643676598929e-07 - 1.0118969690964581e-06i,
	1.4958830344075087e-05 - 5.861060934941778e-06i,
	-1.3001112507248452e-07 - 4.535508011404396e-08i,
	1.0477622466467024e-09 - 7.890907209984085e-10i,
	4.776254873402124e-10 + 1.4069744292428159e-10i,
}}

// orbitKLMatVec are tabulated FFT-operator MatVec entries of the M=20
// fingerprint surface at 3 and 9 GHz (order 6, the fingerprint input
// vector), at indices 0, 21, 137, 250, 399, 400, 421, 537, 650, 799,
// recorded with orbitKLDense.
var orbitKLMatVec = [2][10]complex128{{
	0.42109795893556573 + 0.27067001981699623i,
	0.4605043161657645 + 0.27792190817337387i,
	-0.21813053434033558 + 0.055241039011607575i,
	-0.07946449137828472 - 0.04202832945950224i,
	-0.4348614855375716 + 0.25568353565290525i,
	0.4203793667518142 + 0.2696417528907759i,
	0.4595322204973764 + 0.2771986408044084i,
	-0.21803615554309294 + 0.0551973349108708i,
	-0.07921898183068779 - 0.041909174877903625i,
	-0.43415620967060214 + 0.2544354150106523i,
}, {
	0.421097959151687 + 0.27067001983604094i,
	0.46050431628431976 + 0.2779219082559199i,
	-0.2181305370326622 + 0.055241039109035384i,
	-0.07946448999489937 - 0.04202832950415621i,
	-0.43486148596004415 + 0.25568353568498187i,
	0.4203893014805306 + 0.26966269591210756i,
	0.45954039474569464 + 0.2772196184816648i,
	-0.2180416372629985 + 0.05522183074601886i,
	-0.0792117536815775 - 0.04191170148207579i,
	-0.434167149039423 + 0.25441809366861134i,
}}
