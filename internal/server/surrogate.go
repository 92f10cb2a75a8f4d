package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"roughsim"
	"roughsim/internal/journal"
	"roughsim/internal/rescache"
	"roughsim/internal/surrogate"
	"roughsim/internal/telemetry"
)

// This file is the surrogate fast path of roughsimd: admitted K(f)
// models are served from the registry in microseconds, and everything
// else — building, rejected, out of band, cold — falls back to the
// exact sweep tier, transparently enqueueing the exact computation so
// a later identical query gets the exact answer from cache.
//
//	POST   /v1/surrogates        submit a roughsim.SurrogateConfig; 202 + build job
//	GET    /v1/surrogates        list admission records (+ in-flight builds)
//	GET    /v1/surrogates/{key}  one admission record
//	DELETE /v1/surrogates/{key}  evict from memory and disk
//	GET    /k?key=…&f=…          closed-form E[K], Var[K] (admitted), or fallback

// kPayload is the GET /k success body (the fast path and the
// exact-cache fallback share it).
type kPayload struct {
	Key       string  `json:"key"`
	FreqHz    float64 `json:"freq_hz"`
	KSWM      float64 `json:"k_swm"`
	Variance  float64 `json:"variance,omitempty"`
	Source    string  `json:"source"` // "surrogate" | "exact-cache"
	MaxRelErr float64 `json:"max_rel_err,omitempty"`
}

// kFallbackPayload is the GET /k 202 body: the exact computation was
// enqueued; poll the job, then re-query.
type kFallbackPayload struct {
	Key    string `json:"key"`
	Reason string `json:"reason"`
	Job    any    `json:"job"`
}

func (s *Server) fallbackCounter(reason string) *telemetry.Counter {
	return s.metrics.CounterL("surrogate.fallback", telemetry.L("reason", reason))
}

// surrogateSource adapts the memoized Simulation for cfg to
// surrogate.Source (KL modes are built at most once per solver config,
// shared with the sweep tier).
func (s *Server) surrogateSource(cfg roughsim.SurrogateConfig) (surrogate.Source, error) {
	return s.sims.Sim(roughsim.SweepConfig{Stack: cfg.Stack, Spec: cfg.Spec, Acc: cfg.Acc, Freqs: []float64{cfg.FMinHz}})
}

// handleSurrogateSubmit queues the fit → validate → admit pipeline for
// the posted config. Identical concurrent submissions share one build
// (registry single-flight); an already-resolved key returns its record
// without queueing.
func (s *Server) handleSurrogateSubmit(w http.ResponseWriter, r *http.Request) {
	var cfg roughsim.SurrogateConfig
	if !decodeBody(w, r, &cfg) {
		return
	}
	cfg = cfg.WithDefaults()
	spec, err := cfg.FitSpec()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := validate(roughsim.SweepConfig{Stack: cfg.Stack, Spec: cfg.Spec, Acc: cfg.Acc, Freqs: []float64{cfg.FMinHz, cfg.FMaxHz}}); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if rec, ok := s.surrogates.Peek(spec.Key); ok && rec.Status != surrogate.StatusBuilding {
		writeJSON(w, http.StatusOK, rec)
		return
	}
	job, err := s.queue.Submit(func(ctx context.Context, progress func(done, total int)) (any, error) {
		progress(0, 1)
		// Simulation construction (KL modes) happens on the worker, not
		// the request path.
		src, err := s.surrogateSource(cfg)
		if err != nil {
			return nil, err
		}
		rec, err := s.surrogates.GetOrBuild(ctx, src, spec)
		if err != nil {
			return nil, err
		}
		progress(1, 1)
		return rec, nil
	})
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, acceptedPayload{Key: spec.Key.String(), Job: s.status(job)})
}

// handleSurrogateList serves every admission record the registry holds.
func (s *Server) handleSurrogateList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.surrogates.List())
}

func (s *Server) surrogateKey(w http.ResponseWriter, r *http.Request) (rescache.Key, bool) {
	key, err := rescache.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return rescache.Key{}, false
	}
	return key, true
}

func (s *Server) handleSurrogateGet(w http.ResponseWriter, r *http.Request) {
	key, ok := s.surrogateKey(w, r)
	if !ok {
		return
	}
	rec, ok := s.surrogates.Peek(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no surrogate %s", key))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleSurrogateEvict(w http.ResponseWriter, r *http.Request) {
	key, ok := s.surrogateKey(w, r)
	if !ok {
		return
	}
	if !s.surrogates.Evict(key) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no surrogate %s", key))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"evicted": key.String()})
}

// handleK is the low-latency query endpoint. The hot path — an
// admitted in-band model — is a registry lookup plus a closed-form
// evaluation, no queue, no solver, no allocation beyond the response.
// Every other case falls back to the exact tier: a cached exact point
// is served directly, anything else transparently enqueues the exact
// single-frequency sweep and returns 202 with the job to poll.
func (s *Server) handleK(w http.ResponseWriter, r *http.Request) {
	key, err := rescache.ParseKey(r.URL.Query().Get("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Shard routing: the owning shard holds the admitted surrogate and
	// the warm exact-point cache for this key.
	if s.routeAway(w, r, key.String()) {
		return
	}
	// The exact sweep's frequency domain (finite, > 0, ≤ 1e15 Hz) bounds
	// every query, so a bad f is a 400 whatever the key's record says.
	f, err := strconv.ParseFloat(r.URL.Query().Get("f"), 64)
	if err == nil {
		err = roughsim.SweepConfig{Freqs: []float64{f}}.Validate()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid frequency %q", r.URL.Query().Get("f")))
		return
	}

	rec, ok := s.surrogates.Get(key)
	if !ok {
		s.fallbackCounter("unknown").Inc()
		writeError(w, http.StatusNotFound, fmt.Errorf("no surrogate %s (submit it via POST /v1/surrogates)", key))
		return
	}
	if rec.Status == surrogate.StatusAdmitted && rec.Model.InBand(f) {
		start := time.Now()
		mean, merr := rec.Model.Mean(f)
		variance, verr := rec.Model.Variance(f)
		if merr == nil && verr == nil {
			s.surrogates.ObserveEval(time.Since(start).Seconds())
			writeJSON(w, http.StatusOK, kPayload{
				Key: rec.Key, FreqHz: f, KSWM: mean, Variance: variance,
				Source: "surrogate", MaxRelErr: rec.MaxRelErr,
			})
			return
		}
		writeError(w, http.StatusInternalServerError, errors.Join(merr, verr))
		return
	}
	s.fallbackK(w, rec, f)
}

// fallbackK serves GET /k for a non-servable record: exact cache hit
// when the point is already known, otherwise enqueue the exact
// single-frequency sweep.
func (s *Server) fallbackK(w http.ResponseWriter, rec *surrogate.Record, f float64) {
	reason := string(rec.Status)
	if rec.Status == surrogate.StatusAdmitted {
		reason = "out_of_band"
	}
	s.fallbackCounter(reason).Inc()

	var cfg roughsim.SurrogateConfig
	if err := json.Unmarshal(rec.Spec.Meta, &cfg); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("surrogate %s has no usable config for fallback: %w", rec.Key, err))
		return
	}
	sweep := roughsim.SweepConfig{Stack: cfg.Stack, Spec: cfg.Spec, Acc: cfg.Acc, Freqs: []float64{f}}.WithDefaults()
	if v, ok := s.cache.Get(sweep.KeyAt(f)); ok {
		pt := v.(roughsim.SweepPoint)
		writeJSON(w, http.StatusOK, kPayload{Key: rec.Key, FreqHz: f, KSWM: pt.KSWM, Source: "exact-cache"})
		return
	}
	// The cache read above is the fast path an open breaker preserves;
	// only the exact-solve enqueue below sits behind the gate. Cost 1
	// keeps single-point fallbacks admitted under queue pressure.
	if retry, err := s.admit(1); err != nil {
		writeRetryError(w, http.StatusTooManyRequests, retry, err)
		return
	}
	job, err := s.submitDurable(journal.OpSubmitted, sweep.Key(), sweep, s.runSweep(sweep))
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, kFallbackPayload{Key: rec.Key, Reason: reason, Job: s.status(job)})
}
