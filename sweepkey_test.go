package roughsim

import (
	"encoding/json"
	"testing"
)

// keyTestConfig exercises every key-determining field with non-default
// values, so single-field mutations below cannot hide behind defaults.
func keyTestConfig() SweepConfig {
	return SweepConfig{
		Stack: Stack{EpsR: 3.9, Rho: 1.7e-8},
		Spec:  SurfaceSpec{Corr: MeasuredCF, Sigma: 0.4e-6, Eta: 1e-6, Eta2: 0.53e-6, EtaY: 2e-6},
		Acc:   Accuracy{GridPerSide: 12, PatchOverEta: 4, StochasticDim: 6},
		Freqs: []float64{4e9, 5e9, 6e9},
	}
}

// TestSweepKeyCanonicalization pins the canonicalization contract of
// the content address: invariant under a JSON round trip (the wire
// path of every API request), invariant under default elision, and
// invariant under Workers (an execution detail).
func TestSweepKeyCanonicalization(t *testing.T) {
	cfg := keyTestConfig()
	key := cfg.Key()
	keyAt := cfg.KeyAt(5e9)

	// JSON round trip (config → wire → config) must not move the key.
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepConfig
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key() != key || back.KeyAt(5e9) != keyAt {
		t.Fatal("JSON round trip changed the key")
	}

	// Defaults are applied before encoding: an elided field and its
	// explicit default share a key.
	elided := cfg
	elided.Stack = Stack{}
	explicit := cfg
	explicit.Stack = CopperSiO2()
	if elided.Key() != explicit.Key() {
		t.Fatal("elided and explicit default stacks key differently")
	}
	elidedAcc := cfg
	elidedAcc.Acc.GridPerSide = 0
	explicitAcc := cfg
	explicitAcc.Acc.GridPerSide = 16
	if elidedAcc.Key() != explicitAcc.Key() {
		t.Fatal("elided and explicit default grids key differently")
	}

	// Key is deterministic across calls.
	if cfg.Key() != key || cfg.KeyAt(5e9) != keyAt {
		t.Fatal("key not deterministic")
	}
}

// TestSweepKeySensitivity flips every result-determining field one at
// a time and asserts the content address moves each time — the
// property that makes cache collisions between distinct configs
// impossible.
func TestSweepKeySensitivity(t *testing.T) {
	base := keyTestConfig()
	mutations := map[string]func(*SweepConfig){
		"Stack.EpsR":        func(c *SweepConfig) { c.Stack.EpsR = 2.2 },
		"Stack.Rho":         func(c *SweepConfig) { c.Stack.Rho = 2.8e-8 },
		"Spec.Corr":         func(c *SweepConfig) { c.Spec.Corr = GaussianCF },
		"Spec.Corr exp":     func(c *SweepConfig) { c.Spec.Corr = ExponentialCF },
		"Spec.Sigma":        func(c *SweepConfig) { c.Spec.Sigma = 0.5e-6 },
		"Spec.Eta":          func(c *SweepConfig) { c.Spec.Eta = 1.5e-6 },
		"Spec.Eta2":         func(c *SweepConfig) { c.Spec.Eta2 = 0.6e-6 },
		"Spec.EtaY":         func(c *SweepConfig) { c.Spec.EtaY = 3e-6 },
		"Acc.GridPerSide":   func(c *SweepConfig) { c.Acc.GridPerSide = 14 },
		"Acc.PatchOverEta":  func(c *SweepConfig) { c.Acc.PatchOverEta = 5.5 },
		"Acc.StochasticDim": func(c *SweepConfig) { c.Acc.StochasticDim = 8 },
		"Freqs value":       func(c *SweepConfig) { c.Freqs = []float64{4e9, 5.5e9, 6e9} },
		"Freqs order":       func(c *SweepConfig) { c.Freqs = []float64{5e9, 4e9, 6e9} },
		"Freqs length":      func(c *SweepConfig) { c.Freqs = []float64{4e9, 5e9} },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if cfg.Key() == base.Key() {
			t.Errorf("%s does not move Key()", name)
		}
	}

	// KeyAt must be sensitive to the same fields plus the frequency,
	// and insensitive to the rest of the frequency list.
	at := base.KeyAt(5e9)
	if base.KeyAt(5.0001e9) == at {
		t.Error("KeyAt insensitive to frequency")
	}
	noFreqs := base
	noFreqs.Freqs = nil
	if noFreqs.KeyAt(5e9) != at {
		t.Error("KeyAt depends on the sweep frequency list")
	}
	mut := base
	mut.Spec.Sigma = 0.5e-6
	if mut.KeyAt(5e9) == at {
		t.Error("KeyAt insensitive to Sigma")
	}
}

// TestSurrogateKeyCanonicalization pins the surrogate content address:
// distinct from the sweep key space, sensitive to band and
// model-shaping parameters, insensitive to the admission-only ones.
func TestSurrogateKeyCanonicalization(t *testing.T) {
	base := SurrogateConfig{
		Spec:   SurfaceSpec{Corr: GaussianCF, Sigma: 0.4e-6, Eta: 1e-6},
		Acc:    Accuracy{GridPerSide: 8, StochasticDim: 2},
		FMinHz: 4e9,
		FMaxHz: 6e9,
	}
	key := base.Key()

	// JSON round trip invariance (the POST /v1/surrogates path).
	b, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var back SurrogateConfig
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key() != key {
		t.Fatal("JSON round trip changed the surrogate key")
	}

	// Never collides with the sweep key space over the same physics.
	sweep := SweepConfig{Spec: base.Spec, Acc: base.Acc, Freqs: []float64{4e9, 6e9}}
	if key == sweep.Key() || key == sweep.KeyAt(4e9) {
		t.Fatal("surrogate key collides with sweep key space")
	}

	for name, mutate := range map[string]func(*SurrogateConfig){
		"FMinHz":  func(c *SurrogateConfig) { c.FMinHz = 3e9 },
		"FMaxHz":  func(c *SurrogateConfig) { c.FMaxHz = 7e9 },
		"Order":   func(c *SurrogateConfig) { c.Order = 2 },
		"Anchors": func(c *SurrogateConfig) { c.Anchors = 10 },
		"Sigma":   func(c *SurrogateConfig) { c.Spec.Sigma = 0.5e-6 },
		"Grid":    func(c *SurrogateConfig) { c.Acc.GridPerSide = 10 },
	} {
		cfg := base
		mutate(&cfg)
		if cfg.Key() == key {
			t.Errorf("%s does not move the surrogate key", name)
		}
	}

	// Tol and Holdout shape the admission verdict, not the model.
	verdictOnly := base
	verdictOnly.Tol = 1e-6
	verdictOnly.Holdout = 5
	if verdictOnly.Key() != key {
		t.Fatal("Tol/Holdout entered the surrogate content address")
	}
}

// FuzzSweepConfigJSON feeds arbitrary request bodies through the API's
// decode → defaults → validate → content-address path, which must never
// panic, and checks that a config that validates keeps its Key() across
// a JSON round trip.
func FuzzSweepConfigJSON(f *testing.F) {
	// The benchmark's sweep-m20 and campaign-g8 requests, the key test
	// config, and two degenerate bodies.
	f.Add([]byte(`{"surface":{"cf":"gaussian","sigma":1.5e-8,"eta":1e-6},"accuracy":{"grid":20,"dim":2},"freqs_hz":[4.9e9,4.95e9,5e9,5.05e9]}`))
	f.Add([]byte(`{"surface":{"cf":"gaussian","sigma":4e-7,"eta":1e-6},"accuracy":{"grid":8,"dim":2},"freqs_hz":[4e9,4.133333333333334e9,6e9]}`))
	if b, err := json.Marshal(keyTestConfig()); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"freqs_hz":[0,-1,1e16]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var cfg SweepConfig
		if json.Unmarshal(body, &cfg) != nil {
			return
		}
		cfg = cfg.WithDefaults()
		valid := cfg.Validate() == nil
		key := cfg.Key()
		for _, fr := range cfg.Freqs {
			cfg.KeyAt(fr)
		}
		cfg.CheckpointKey(0)
		if !valid {
			return
		}
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("valid config does not marshal: %v", err)
		}
		var back SweepConfig
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("valid config does not round-trip: %v (%s)", err, b)
		}
		if back.Key() != key {
			t.Fatalf("Key changed across a JSON round trip: %s", b)
		}
	})
}
