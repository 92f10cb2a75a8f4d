package surrogate

import (
	"bytes"
	"context"
	"testing"
)

// FuzzSurrogateDecode feeds arbitrary bytes to the registry's disk-tier
// decoder: Decode must never panic, every model it accepts must
// round-trip through Encode byte for byte (the encoding decodes to a
// model that encodes to the same bytes), and the accepted model's
// evaluations — Mean, Eval and Variance at both band edges — must
// return without panic, since CheckShape is all that guards their
// indexing.
func FuzzSurrogateDecode(f *testing.F) {
	src := &funcSource{dim: 2, k: smoothK}
	m, err := Fit(context.Background(), src, testSpec())
	if err != nil {
		f.Fatal(err)
	}
	m.Meta = []byte(`{"cf":"gaussian","sigma_m":4e-7}`)
	good, err := Encode(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"schema":1,"dim":1,"order":1,"fmin_hz":1,"fmax_hz":2,"x_nodes":[1],"indices":[[0],[1]],"coeffs":[[1,0.5]]}`))
	f.Add([]byte(`{"schema":1,"dim":1,"order":1,"fmin_hz":1,"fmax_hz":2,"x_nodes":[1],"indices":[[0],[-1]],"coeffs":[[1,0.5]]}`))
	f.Add([]byte(`{"schema":1,"dim":1,"order":9,"fmin_hz":1,"fmax_hz":1,"x_nodes":[1,1],"indices":[[9]],"coeffs":[[1],[2]],"meta":null}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := Encode(m)
		if err != nil {
			t.Fatalf("accepted model does not encode: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("encoding %q does not decode: %v", enc, err)
		}
		if again, err := Encode(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("model does not round-trip: %q vs %q (%v)", again, enc, err)
		}
		xi := make([]float64, m.Dim)
		for _, f := range []float64{m.FMinHz, m.FMaxHz} {
			m.Mean(f)
			m.Eval(f, xi)
			m.Variance(f)
		}
	})
}
