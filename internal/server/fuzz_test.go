package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"roughsim"
	"roughsim/internal/rescache"
	"roughsim/internal/sparams"
)

// FuzzDecodeBody feeds arbitrary request bodies through decodeBody into
// each of the four POSTed config types, then through that type's
// defaults and validation as its handler runs them. None of it may
// panic, a rejected body must be answered 400 or 413, and a config that
// is accepted must re-encode and decode to an equal config.
func FuzzDecodeBody(f *testing.F) {
	// The benchmark's sweep-m20 and campaign-g8 requests, an S-parameter
	// and a surrogate request, and degenerate bodies.
	f.Add([]byte(`{"surface":{"cf":"gaussian","sigma":1.5e-8,"eta":1e-6},"accuracy":{"grid":20,"dim":2},"freqs_hz":[4.9e9,4.95e9,5e9,5.05e9]}`))
	f.Add([]byte(`{"accuracy":{"grid":8,"dim":2},"grid":{"sigmas":{"values":[0,3e-7,3.3e-7]},"etas":{"values":[1e-6]}},"band":{"fmin_hz":4e9,"fmax_hz":6e9}}`))
	f.Add([]byte(`{"surface":{"cf":"gaussian","sigma":2e-7,"eta":1e-6},"accuracy":{"grid":8,"dim":2},"line":{"width_m":1e-4,"height_m":1e-4,"eps_r":3.7,"tan_delta":0.002},"length_m":0.01,"fmin_hz":1e9,"fmax_hz":9e9,"points":8}`))
	f.Add([]byte(`{"surface":{"cf":"exp","sigma":2e-7,"eta":1e-6},"accuracy":{"grid":8,"dim":2},"fmin_hz":1e9,"fmax_hz":9e9,"order":1,"anchors":6}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"freqs_hz":[0,-1,1e16],"band":{"points":-3}}`))
	f.Add([]byte(`{"grid":{"sigmas":{"min":1e-7,"max":5e-7,"step":1e-7},"etas":{"values":[1e-6]},"cfs":["measured"]},"freqs_hz":[1e9]}`))
	// Campaign expansions far larger than the body: a 10¹¹-point band
	// and a 10¹²-cell grid.
	f.Add([]byte(`{"cells":[{"cf":"gaussian","sigma":2e-7,"eta":1e-6}],"band":{"fmin_hz":1e9,"fmax_hz":2e9,"points":100000000000}}`))
	f.Add([]byte(`{"grid":{"sigmas":{"min":1e-7,"max":1,"step":1e-4},"etas":{"min":1e-6,"max":1,"step":1e-4},"rhos":{"min":1e-8,"max":1,"step":1e-4}},"freqs_hz":[1e9]}`))
	// A surrogate fit asking for 10⁹ anchors and holdout frequencies.
	f.Add([]byte(`{"surface":{"cf":"gaussian","sigma":2e-7,"eta":1e-6},"fmin_hz":1e9,"fmax_hz":9e9,"anchors":1000000000,"holdout":1000000000}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzConfig(t, body, func(c roughsim.SweepConfig) (roughsim.SweepConfig, error) {
			c = c.WithDefaults()
			c.Key()
			return c, c.Validate()
		})
		fuzzConfig(t, body, func(c roughsim.CampaignConfig) (roughsim.CampaignConfig, error) {
			c = c.WithDefaults()
			if _, err := c.ExpandCells(); err != nil {
				return c, err
			}
			_, err := c.Key()
			return c, err
		})
		fuzzConfig(t, body, func(c roughsim.SParamConfig) (roughsim.SParamConfig, error) {
			c = c.WithDefaults()
			if err := c.Validate(); err != nil {
				return c, err
			}
			c.Key()
			return c, c.KSweep().Validate()
		})
		fuzzConfig(t, body, func(c roughsim.SurrogateConfig) (roughsim.SurrogateConfig, error) {
			c = c.WithDefaults()
			_, err := c.FitSpec()
			return c, err
		})
	})
}

// fuzzConfig decodes body into a T as a handler does and runs accept,
// its defaults and validation, on it. An accepted config must encode,
// decode through decodeBody again and pass accept to the same config.
func fuzzConfig[T any](t *testing.T, body []byte, accept func(T) (T, error)) {
	var cfg T
	if !fuzzDecode(t, body, &cfg) {
		return
	}
	cfg, err := accept(cfg)
	if err != nil {
		return
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("%T: accepted config does not encode: %v", cfg, err)
	}
	var back T
	if !fuzzDecode(t, b, &back) {
		t.Fatalf("%T: accepted config does not decode: %s", cfg, b)
	}
	back, err = accept(back)
	if err != nil {
		t.Fatalf("%T: accepted config rejected after a round trip: %v (%s)", cfg, err, b)
	}
	if !reflect.DeepEqual(back, cfg) {
		t.Fatalf("%T: round trip changed the config:\n%+v\n%+v\n(%s)", cfg, cfg, back, b)
	}
}

// fuzzDecode runs decodeBody on body as a POST and checks the status it
// writes when it rejects the body.
func fuzzDecode(t *testing.T, body []byte, v any) bool {
	w := httptest.NewRecorder()
	if decodeBody(w, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), v) {
		return true
	}
	if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%T: rejected body answered %d", v, w.Code)
	}
	return false
}

// FuzzStoreCodecs feeds arbitrary disk-tier entries through the three
// store codecs: result points, checkpoint columns and S-parameter
// artifacts. No byte string may panic Decode, and an accepted value
// must encode, decode again, and re-encode to the same bytes (the
// encoding is a fixed point after one trip: JSON null stays the NaN of
// a failed SweepPoint field, and a raw config is compacted once).
func FuzzStoreCodecs(f *testing.F) {
	f.Add([]byte(`{"freq_hz":5e9,"skin_depth_m":9.2e-7,"k_swm":1.31,"k_spm2":1.4,"k_empirical":1.5}`))
	f.Add([]byte(`{"freq_hz":5e9,"skin_depth_m":null,"k_swm":null,"k_spm2":1,"k_empirical":1}`))
	f.Add([]byte(`[1,1.0000000000000002,0.9999999999999999,1e-300]`))
	f.Add([]byte(`{"key":"ab","z0":50,"fmin_hz":1e9,"fmax_hz":9e9,"points":2,"source":"surrogate","k_max_rel_err":1e-4,"gates":{},"touchstone":"# HZ S RI R 50\n","config":{ "a" : [1, 2] }}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"freq_hz":"5e9"}`))
	f.Add([]byte(`[1e400]`))
	codecs := map[string]rescache.Codec{
		"point":      jsonCodec[roughsim.SweepPoint](),
		"checkpoint": jsonCodec[[]float64](),
		"artifact":   jsonCodec[*sparams.Artifact](),
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for name, c := range codecs {
			v, err := c.Decode(b)
			if err != nil {
				continue
			}
			enc, err := c.Encode(v)
			if err != nil {
				t.Fatalf("%s: accepted entry does not encode: %v (%q)", name, err, b)
			}
			back, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("%s: encoded entry does not decode: %v (%s)", name, err, enc)
			}
			again, err := c.Encode(back)
			if err != nil || !bytes.Equal(again, enc) {
				t.Fatalf("%s: round trip changed the entry: %s -> %s (%v)", name, enc, again, err)
			}
		}
	})
}
