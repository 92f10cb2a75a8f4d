package roughsim

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"roughsim/internal/mom"
	"roughsim/internal/rescache"
	"roughsim/internal/resilience"
	"roughsim/internal/sweepengine"
	"roughsim/internal/telemetry"
)

// This file defines the machine-readable sweep schema shared by
// `roughsim -json` and the roughsimd HTTP API: both emit the same
// SweepResult records, so CLI and service outputs are directly
// diffable. It also defines the canonical content address of one K(f)
// record — the cache key of internal/rescache — built from IEEE-754
// float bits (never decimal formatting), so keys are bit-exact and
// platform-stable. The sweep entry points below all run through one
// batched engine (internal/sweepengine).

// cfNames is the wire vocabulary of CFKind (matching the CLI's -cf
// flag values).
var cfNames = map[CFKind]string{
	GaussianCF:    "gaussian",
	ExponentialCF: "exp",
	MeasuredCF:    "measured",
}

// ParseCFKind maps a wire name ("gaussian", "exp", "measured") to its
// CFKind.
func ParseCFKind(s string) (CFKind, error) {
	for k, name := range cfNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("roughsim: unknown correlation function %q", s)
}

// String returns the wire name of the kind.
func (k CFKind) String() string {
	if s, ok := cfNames[k]; ok {
		return s
	}
	return fmt.Sprintf("cf(%d)", int(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k CFKind) MarshalJSON() ([]byte, error) {
	s, ok := cfNames[k]
	if !ok {
		return nil, fmt.Errorf("roughsim: cannot marshal CF kind %d", int(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON accepts a wire name. Decode errors name the request
// field ("cf") so an API 400 points at the offending input.
func (k *CFKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf(`field "cf": want a correlation-function name string: %w`, err)
	}
	v, err := ParseCFKind(s)
	if err != nil {
		return fmt.Errorf(`field "cf": unknown correlation function %q (want "gaussian", "exp" or "measured")`, s)
	}
	*k = v
	return nil
}

// SweepConfig is the full description of a K(f) sweep: material stack,
// surface process, discretization accuracy and the frequency list. It
// is the request body of the roughsimd API and the config echoed into
// every SweepResult.
type SweepConfig struct {
	Stack Stack       `json:"stack"`
	Spec  SurfaceSpec `json:"surface"`
	Acc   Accuracy    `json:"accuracy"`
	Freqs []float64   `json:"freqs_hz"`
}

// WithDefaults fills the zero-valued parts: a zero Stack becomes the
// paper's copper/SiO₂ stack, and the Accuracy defaults match
// NewSimulation's.
func (c SweepConfig) WithDefaults() SweepConfig {
	if c.Stack == (Stack{}) {
		c.Stack = CopperSiO2()
	}
	c.Acc = c.Acc.withDefaults()
	return c
}

// Validate checks the parts NewSimulation does not: the frequency list
// must be non-empty, finite and positive.
func (c SweepConfig) Validate() error {
	if len(c.Freqs) == 0 {
		return resilience.Errorf(resilience.KindInvalidInput, "roughsim.SweepConfig",
			"sweep needs at least one frequency")
	}
	for i, f := range c.Freqs {
		if !(f > 0) || f != f || f > 1e15 {
			return resilience.Errorf(resilience.KindInvalidInput, "roughsim.SweepConfig",
				"frequency %d out of domain: %g Hz", i, f)
		}
	}
	return nil
}

// keySchemaVersion tags the canonical encoding; bump it whenever the
// meaning or order of the encoded fields changes, so stale disk-tier
// entries can never be misread as current results.
const keySchemaVersion = 1

// KeyAt returns the content address of the K(f) record this config
// produces at frequency f: the SHA-256 of the canonical binary encoding
// of every result-determining parameter (floats as IEEE-754 bits — see
// rescache.Enc) plus the frequency. Workers is deliberately excluded
// (an execution detail), and defaults are applied first so an explicit
// grid of 16 and an elided one share a key.
func (c SweepConfig) KeyAt(f float64) rescache.Key {
	e := c.WithDefaults().encodeBase()
	e.Float64(f)
	return e.Sum()
}

// Key returns the content address of the whole sweep — the canonical
// encoding of the frequency-independent config plus the full frequency
// list. It single-flights identical concurrent sweep jobs in roughsimd.
func (c SweepConfig) Key() rescache.Key {
	c = c.WithDefaults()
	e := c.encodeBase()
	e.Float64s(c.Freqs)
	return e.Sum()
}

// ckptTag domain-separates checkpoint keys from whole-sweep keys: a
// node-column checkpoint must never be confused with a finished sweep
// result, even for hypothetical colliding encodings.
const ckptTag = 0x636b7074 // "ckpt"

// CheckpointKey returns the content address of one per-node checkpoint
// column of this sweep: the whole-sweep encoding (config + full
// frequency list) plus the collocation node index. Any change to the
// config or the frequency list changes every checkpoint key, so a
// resumed sweep can only ever load checkpoints from an identical
// request.
func (c SweepConfig) CheckpointKey(node int) rescache.Key {
	c = c.WithDefaults()
	e := c.encodeBase()
	e.Float64s(c.Freqs)
	e.Uint64(ckptTag)
	e.Int(node)
	return e.Sum()
}

// encodeBase canonically encodes every frequency-independent,
// result-determining field (see KeyAt).
func (c SweepConfig) encodeBase() *rescache.Enc {
	e := rescache.NewEnc()
	e.Uint64(keySchemaVersion)
	e.Float64(c.Stack.EpsR).Float64(c.Stack.Rho)
	e.Int(int(c.Spec.Corr))
	e.Float64(c.Spec.Sigma).Float64(c.Spec.Eta).Float64(c.Spec.Eta2).Float64(c.Spec.EtaY)
	e.Int(c.Acc.GridPerSide).Float64(c.Acc.PatchOverEta).Int(c.Acc.StochasticDim)
	return e
}

// SweepPoint is one frequency's record: the SWM mean loss factor next
// to the analytic baselines, in SI units. Non-finite fields (a NaN
// KEmpirical from an out-of-domain formula, a poisoned K from a partial
// Monte-Carlo result) marshal as JSON null instead of failing the whole
// payload — encoding/json rejects NaN/±Inf outright, which would turn
// one bad point into an undeliverable /v1/sweeps result.
type SweepPoint struct {
	FreqHz     float64 `json:"freq_hz"`
	SkinDepthM float64 `json:"skin_depth_m"`
	KSWM       float64 `json:"k_swm"`
	KSPM2      float64 `json:"k_spm2"`
	KEmpirical float64 `json:"k_empirical"`
}

// jsonFloat marshals finite values exactly like float64 (byte-identical
// formatting) and non-finite values as null; null unmarshals to NaN.
type jsonFloat float64

func (v jsonFloat) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(f)
}

func (v *jsonFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*v = jsonFloat(math.NaN())
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*v = jsonFloat(f)
	return nil
}

// sweepPointWire is the JSON shape of SweepPoint with non-finite-safe
// fields. Field order (hence output bytes for finite values) matches
// the plain struct exactly.
type sweepPointWire struct {
	FreqHz     jsonFloat `json:"freq_hz"`
	SkinDepthM jsonFloat `json:"skin_depth_m"`
	KSWM       jsonFloat `json:"k_swm"`
	KSPM2      jsonFloat `json:"k_spm2"`
	KEmpirical jsonFloat `json:"k_empirical"`
}

// MarshalJSON encodes the point with non-finite fields as null.
func (p SweepPoint) MarshalJSON() ([]byte, error) {
	return json.Marshal(sweepPointWire{
		FreqHz:     jsonFloat(p.FreqHz),
		SkinDepthM: jsonFloat(p.SkinDepthM),
		KSWM:       jsonFloat(p.KSWM),
		KSPM2:      jsonFloat(p.KSPM2),
		KEmpirical: jsonFloat(p.KEmpirical),
	})
}

// UnmarshalJSON accepts both plain numbers and the null encoding of
// failed fields (which decode as NaN).
func (p *SweepPoint) UnmarshalJSON(b []byte) error {
	var w sweepPointWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*p = SweepPoint{
		FreqHz:     float64(w.FreqHz),
		SkinDepthM: float64(w.SkinDepthM),
		KSWM:       float64(w.KSWM),
		KSPM2:      float64(w.KSPM2),
		KEmpirical: float64(w.KEmpirical),
	}
	return nil
}

// SweepResult is the machine-readable outcome of a sweep — the record
// schema shared by `roughsim -json` and the roughsimd result endpoint.
type SweepResult struct {
	Config SweepConfig  `json:"config"`
	Points []SweepPoint `json:"points"`
}

// RunSweep executes the configured sweep directly (no cache, no queue
// — the CLI path) through the batched sweep engine, which reuses
// surfaces and tables across frequencies and interpolates each node's
// K over broadband sweeps (see internal/sweepengine).
func RunSweep(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sim, err := NewSimulation(cfg.Stack, cfg.Spec, cfg.Acc)
	if err != nil {
		return nil, err
	}
	return sim.RunSweepBatched(ctx, cfg.Freqs)
}

// TableCache is a shared Green's-function table cache: simulations
// attached to the same cache (WithTableCache) build each frequency's
// tables exactly once across sweeps, points and — in roughsimd —
// concurrent jobs. It is bounded (LRU) and safe for concurrent use.
type TableCache struct {
	c *mom.TableCache
}

// NewTableCache builds a cache holding up to capacity table sets
// (a service-sized default when capacity ≤ 0), publishing tables.*
// telemetry to m when non-nil.
func NewTableCache(capacity int, m *telemetry.Registry) *TableCache {
	return &TableCache{c: mom.NewTableCache(capacity, m)}
}

// Len returns the number of cached table sets.
func (t *TableCache) Len() int { return t.c.Len() }

// Builds returns how many table sets the cache has constructed.
func (t *TableCache) Builds() int64 { return t.c.Builds() }

// WithTableCache attaches a shared table cache to the simulation's
// solver. Call it before the first solve; it returns the receiver for
// chaining.
func (s *Simulation) WithTableCache(tc *TableCache) *Simulation {
	if tc != nil {
		s.solver.SetTableCache(tc.c)
	}
	return s
}

// engine builds the batched sweep engine over this simulation's solver
// and surface process.
func (s *Simulation) engine() *sweepengine.Engine {
	return &sweepengine.Engine{
		Solver:  s.solver,
		Synth:   s.kl.Synthesize,
		Dim:     s.dim,
		Order:   1,
		Workers: s.acc.Workers,
		Metrics: s.metrics,
	}
}

// CollocationValues evaluates K at every SSCM collocation node for
// every frequency through the exact per-frequency path (K
// interpolation is disabled by pinning one anchor per frequency), so
// vals[i][j] is the solver's K at freqs[i], node j of
// sscm.Nodes(StochasticDim(), order). This is the surrogate.Source
// contract: surrogate fitting and validation must consume exact
// solves, never another interpolant.
func (s *Simulation) CollocationValues(ctx context.Context, freqs []float64, order int) ([][]float64, error) {
	eng := s.engine()
	eng.Order = order
	eng.Anchors = len(freqs) // anchors == freqs disables the broadband path
	res, err := eng.Run(ctx, freqs)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// SweepPoints computes the SweepPoint records for freqs through the
// batched sweep engine: collocation surfaces are synthesized once per
// sweep, Green's-function tables come from the (shareable) table cache,
// and broadband sweeps solve only at a few anchor frequencies,
// interpolating each node's K in between (see internal/sweepengine).
// progress, when non-nil, receives monotone (done, total) updates in
// frequency units. ckpt, when non-nil, persists each completed
// collocation-node column as the sweep progresses and is consulted
// before solving, so a sweep resumed after a crash re-solves only the
// nodes that never completed; the resumed result is bitwise identical
// to an uninterrupted run.
func (s *Simulation) SweepPoints(ctx context.Context, freqs []float64, progress func(done, total int), ckpt sweepengine.Checkpoint) ([]SweepPoint, error) {
	cfg := SweepConfig{Stack: s.stack, Spec: s.spec, Acc: s.acc, Freqs: freqs}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := s.engine()
	eng.Progress = progress
	eng.Checkpoint = ckpt
	res, err := eng.Run(ctx, freqs)
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, len(freqs))
	for i, f := range freqs {
		pts[i] = SweepPoint{
			FreqHz:     f,
			SkinDepthM: s.stack.SkinDepth(f),
			KSWM:       res.Mean[i],
			KSPM2:      s.SPM2LossFactor(f),
			KEmpirical: s.EmpiricalLossFactor(f),
		}
	}
	return pts, nil
}

// PlanSweepColumns enumerates the independent column units of a sweep
// over freqs — the distributed tier's work decomposition. See
// sweepengine.ColumnPlan.
func (s *Simulation) PlanSweepColumns(freqs []float64) (*sweepengine.ColumnPlan, error) {
	return s.engine().PlanColumns(freqs)
}

// SweepColumn computes one column unit of the sweep over freqs: the K
// column of collocation node over the sweep's solve frequencies (the
// anchors on a broadband sweep). The column is bitwise identical to the
// one a full engine run would checkpoint, so a remotely computed column
// fed back through the Checkpoint medium preserves single-process
// results exactly.
func (s *Simulation) SweepColumn(ctx context.Context, freqs []float64, node int) ([]float64, error) {
	return s.engine().Column(ctx, freqs, node)
}

// RunSweepBatched computes the SweepResult over freqs through the
// batched sweep engine. For narrow or short sweeps (where the engine's
// exact path runs) the K values are bitwise identical to one
// first-order SSCM run per frequency; for broadband sweeps the K
// interpolated between exact anchor solves agrees to within solver
// tolerance at a fraction of the wall-clock.
func (s *Simulation) RunSweepBatched(ctx context.Context, freqs []float64) (*SweepResult, error) {
	pts, err := s.SweepPoints(ctx, freqs, nil, nil)
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		Config: SweepConfig{Stack: s.stack, Spec: s.spec, Acc: s.acc, Freqs: freqs},
		Points: pts,
	}, nil
}
