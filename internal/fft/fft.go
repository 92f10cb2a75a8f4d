// Package fft implements the fast Fourier transforms used for spectral
// surface synthesis and for the FFT-accelerated MoM matrix-vector
// product: planned mixed-radix transforms for lengths whose prime
// factors are 2, 3 and 5, Bluestein's algorithm for every other length,
// 2-D transforms, and fast cyclic convolution.
//
// Conventions: Forward computes X[k] = Σ_n x[n]·exp(−2πi·kn/N) (no
// scaling); Inverse divides by N so Inverse(Forward(x)) == x.
package fft

import (
	"math"
	"sync"
)

// Forward computes the unscaled forward DFT of x in place-free fashion:
// the input slice is not modified and a new slice is returned.
func Forward(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	transform(out, false)
	return out
}

// Inverse computes the inverse DFT (scaled by 1/N) of x, returning a new
// slice.
func Inverse(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	transform(out, true)
	scale(out, len(out))
	return out
}

// transform runs the unscaled DFT of x in place.
func transform(x []complex128, inverse bool) {
	if len(x) > 1 {
		planFor(len(x), inverse).inPlace(x)
	}
}

// scale multiplies x by 1/n.
func scale(x []complex128, n int) {
	s := 1 / float64(n)
	for i, v := range x {
		x[i] = complex(real(v)*s, imag(v)*s)
	}
}

type planKey struct {
	n       int
	inverse bool
}

// plans caches one plan per (length, direction) for the process; a plan
// is immutable once built and shared by every goroutine.
var plans sync.Map // planKey → *plan

// plan is the precomputed form of one transform length and direction.
// A length whose prime factors are 2, 3 and 5 runs a recursive
// mixed-radix Cooley–Tukey decimation in time (the KISS FFT layout:
// radix-2 and radix-4 butterflies specialised, radix 3 and 5 through
// the generic one) over n twiddles. Any other length runs Bluestein's
// chirp-z algorithm, whose chirp and transformed filter are computed
// once and whose padded power-of-two transforms are plans themselves.
type plan struct {
	n       int
	inverse bool

	stages []stage      // mixed radix: the factorization, outermost first
	tw     []complex128 // mixed radix: tw[k] = exp(∓2πi·k/n)
	chirp  []complex128 // Bluestein: exp(∓iπ·k²/n)
	filt   []complex128 // Bluestein: FFT of the conjugate chirp, scaled by 1/padded length
	fwd    *plan        // Bluestein: padded forward transform
	inv    *plan        // Bluestein: padded inverse transform
	bufs   sync.Pool    // *[]complex128 work buffers (n, or the padded length)
}

// stage is one radix of the factorization; m is the length of each of
// its radix sub-transforms.
type stage struct{ radix, m int }

// planFor returns the shared plan for a length and direction, building
// it on first use.
func planFor(n int, inverse bool) *plan {
	k := planKey{n, inverse}
	if p, ok := plans.Load(k); ok {
		return p.(*plan)
	}
	p, _ := plans.LoadOrStore(k, newPlan(n, inverse))
	return p.(*plan)
}

func newPlan(n int, inverse bool) *plan {
	p := &plan{n: n, inverse: inverse}
	sign := -1.0
	if inverse {
		sign = 1
	}
	rest := n
	for _, r := range []int{4, 2, 3, 5} {
		for rest%r == 0 {
			rest /= r
			p.stages = append(p.stages, stage{r, rest})
		}
	}
	if rest == 1 {
		p.tw = make([]complex128, n)
		for k := range p.tw {
			s, c := math.Sincos(sign * 2 * math.Pi * float64(k) / float64(n))
			p.tw[k] = complex(c, s)
		}
		p.bufs.New = func() any { b := make([]complex128, n); return &b }
		return p
	}

	// Bluestein: with the chirp c[k] = exp(∓iπ·k²/n),
	// X[k] = c[k]·Σ_j (x[j]·c[j])·c̄[k−j], a cyclic convolution of
	// power-of-two length m ≥ 2n−1 whose filter c̄ is transformed here
	// once. k² is reduced mod 2n to keep the angle argument small.
	p.stages = nil
	p.chirp = make([]complex128, n)
	for k := range p.chirp {
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(sign * math.Pi * float64(kk) / float64(n))
		p.chirp[k] = complex(c, s)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.fwd, p.inv = planFor(m, false), planFor(m, true)
	p.filt = make([]complex128, m)
	for k, w := range p.chirp {
		p.filt[k] = complex(real(w), -imag(w))
		if k > 0 {
			p.filt[m-k] = p.filt[k]
		}
	}
	p.fwd.inPlace(p.filt)
	scale(p.filt, m)
	p.bufs.New = func() any { b := make([]complex128, m); return &b }
	return p
}

// inPlace transforms x (unscaled).
func (p *plan) inPlace(x []complex128) {
	if p.chirp != nil {
		p.exec(x, x, 1)
		return
	}
	buf := p.bufs.Get().(*[]complex128)
	copy(*buf, x)
	p.exec(x, *buf, 1)
	p.bufs.Put(buf)
}

// exec writes the unscaled DFT of src[0], src[stride], …, src[(n−1)·stride]
// to dst[:n]. dst may alias src only for a Bluestein plan.
func (p *plan) exec(dst, src []complex128, stride int) {
	if p.chirp == nil {
		p.work(dst, src, 1, stride, 0)
		return
	}
	buf := p.bufs.Get().(*[]complex128)
	a := *buf
	for k, w := range p.chirp {
		a[k] = src[k*stride] * w
	}
	clear(a[p.n:])
	p.fwd.inPlace(a)
	for i, f := range p.filt {
		a[i] *= f
	}
	p.inv.inPlace(a)
	for k, w := range p.chirp {
		dst[k] = a[k] * w
	}
	p.bufs.Put(buf)
}

// work is one level of the mixed-radix recursion: out receives the DFT
// of the len(out) inputs in[0], in[fstride·istride], …, built from the
// radix sub-transforms of the decimated inputs. fstride is the twiddle
// stride at this level and istride the input's own element stride.
func (p *plan) work(out, in []complex128, fstride, istride, s int) {
	r, m := p.stages[s].radix, p.stages[s].m
	step := fstride * istride
	if m == 1 {
		for j := range out[:r] {
			out[j] = in[j*step]
		}
	} else {
		for j := 0; j < r; j++ {
			p.work(out[j*m:(j+1)*m], in[j*step:], fstride*r, istride, s+1)
		}
	}
	switch r {
	case 2:
		p.bfly2(out, fstride, m)
	case 4:
		p.bfly4(out, fstride, m)
	default:
		p.bflyGeneric(out, fstride, m, r)
	}
}

func (p *plan) bfly2(out []complex128, fstride, m int) {
	a, b := out[:m], out[m:2*m]
	for k := range a {
		t := b[k] * p.tw[k*fstride]
		b[k] = a[k] - t
		a[k] += t
	}
}

func (p *plan) bfly4(out []complex128, fstride, m int) {
	a, b, c, d := out[:m], out[m:2*m], out[2*m:3*m], out[3*m:4*m]
	for k := range a {
		s0 := b[k] * p.tw[k*fstride]
		s1 := c[k] * p.tw[2*k*fstride]
		s2 := d[k] * p.tw[3*k*fstride]
		s5 := a[k] - s1
		a0 := a[k] + s1
		s3 := s0 + s2
		s4 := s0 - s2
		// The quarter-turn twiddle: −i·s4 forward, +i·s4 inverse.
		q := complex(imag(s4), -real(s4))
		if p.inverse {
			q = -q
		}
		a[k] = a0 + s3
		b[k] = s5 + q
		c[k] = a0 - s3
		d[k] = s5 - q
	}
}

// bflyGeneric is the radix-r butterfly for a small prime r (3 or 5): a
// direct r-point DFT of each twiddled column.
func (p *plan) bflyGeneric(out []complex128, fstride, m, r int) {
	var col [5]complex128
	for u := 0; u < m; u++ {
		for q := 0; q < r; q++ {
			col[q] = out[u+q*m]
		}
		for q1 := 0; q1 < r; q1++ {
			k := u + q1*m
			acc := col[0]
			tw := 0
			for q := 1; q < r; q++ {
				if tw += fstride * k; tw >= p.n {
					tw -= p.n
				}
				acc += col[q] * p.tw[tw]
			}
			out[k] = acc
		}
	}
}

// Forward2D computes the 2-D DFT of an ny×nx array stored row-major
// (rows of length nx). A new slice is returned.
func Forward2D(x []complex128, ny, nx int) []complex128 {
	return transform2D(x, ny, nx, false)
}

// Inverse2D computes the 2-D inverse DFT with 1/(nx·ny) scaling.
func Inverse2D(x []complex128, ny, nx int) []complex128 {
	return transform2D(x, ny, nx, true)
}

func transform2D(x []complex128, ny, nx int, inverse bool) []complex128 {
	if len(x) != ny*nx {
		panic("fft: 2D transform shape mismatch")
	}
	out := make([]complex128, len(x))
	// Rows, straight from the input.
	if nx > 1 {
		row := planFor(nx, inverse)
		for r := 0; r < ny; r++ {
			row.exec(out[r*nx:(r+1)*nx], x[r*nx:], 1)
		}
	} else {
		copy(out, x)
	}
	// Columns, read with stride nx.
	if ny > 1 {
		col := planFor(ny, inverse)
		buf := make([]complex128, ny)
		for c := 0; c < nx; c++ {
			col.exec(buf, out[c:], nx)
			for r, v := range buf {
				out[r*nx+c] = v
			}
		}
	}
	if inverse {
		scale(out, ny*nx)
	}
	return out
}

// CyclicConvolve returns the cyclic (circular) convolution of two
// equal-length sequences: out[k] = Σ_j a[j]·b[(k−j) mod n].
func CyclicConvolve(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("fft: CyclicConvolve length mismatch")
	}
	fa := Forward(a)
	fb := Forward(b)
	for i := range fa {
		fa[i] *= fb[i]
	}
	transform(fa, true)
	scale(fa, len(fa))
	return fa
}

// CyclicConvolve2D returns the 2-D circular convolution of two ny×nx
// arrays (row-major).
func CyclicConvolve2D(a, b []complex128, ny, nx int) []complex128 {
	fa := Forward2D(a, ny, nx)
	fb := Forward2D(b, ny, nx)
	for i := range fa {
		fa[i] *= fb[i]
	}
	return Inverse2D(fa, ny, nx)
}
