package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"roughsim"
	"roughsim/internal/jobs"
	"roughsim/internal/journal"
	"roughsim/internal/rescache"
	"roughsim/internal/sparams"
	"roughsim/internal/surrogate"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// This file is the S-parameter service tier of roughsimd: a geometry +
// band request becomes a journaled job that resolves K(f) — through an
// admitted surrogate when one covers the band, through the cached,
// checkpointed exact sweep chain otherwise — cascades the
// causality-corrected line model to two-port S-parameters, gates the
// result (passivity, causality), and admits the Touchstone artifact to
// a content-addressed store.
//
//	POST /v1/sparams             submit a roughsim.SParamConfig;
//	                             200 + artifact on a store hit, else 202 + job
//	GET  /v1/sparams/{id}        artifact by content address (64-hex key;
//	                             JSON, or raw .s2p with ?format=s2p /
//	                             Accept: application/x-touchstone), or job
//	                             status by job ID
//	GET  /v1/sparams/{id}/stream SSE progress of a generation job
//
// Identical requests share one content address, so a re-POST after the
// artifact landed is a pure store read — zero solver executions — on
// this process or any restart sharing the disk tier.

func (s *Server) sparamsRequestCounter(outcome string) *telemetry.Counter {
	return s.metrics.CounterL("sparams.requests", telemetry.L("outcome", outcome))
}

func (s *Server) handleSParamsSubmit(w http.ResponseWriter, r *http.Request) {
	var cfg roughsim.SParamConfig
	if !decodeBody(w, r, &cfg) {
		return
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		s.sparamsRequestCounter("invalid").Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The K-resolution sweep behind the artifact obeys the same service
	// limits as a directly submitted sweep.
	if err := validate(cfg.KSweep()); err != nil {
		s.sparamsRequestCounter("invalid").Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := cfg.Key()
	// Shard routing: the owning shard holds the artifact store entry and
	// the warm K caches for this address.
	if s.routeAway(w, r, key.String()) {
		return
	}
	if art, ok := s.artifact(key); ok {
		s.sparamsRequestCounter("hit").Inc()
		writeJSON(w, http.StatusOK, art)
		return
	}
	// An identical request already generating: share its job instead of
	// queueing a duplicate.
	if job, ok := s.liveJob(journal.OpSparamsSubmitted, key); ok {
		s.sparamsRequestCounter("joined").Inc()
		writeJSON(w, http.StatusAccepted, acceptedPayload{Key: key.String(), Job: s.status(job)})
		return
	}
	if retry, err := s.admit(cfg.Points); err != nil {
		writeRetryError(w, http.StatusTooManyRequests, retry, err)
		return
	}
	job, err := s.submitDurable(journal.OpSparamsSubmitted, key, cfg, s.runSParams(cfg, key))
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.sparamsRequestCounter("accepted").Inc()
	writeJSON(w, http.StatusAccepted, acceptedPayload{Key: key.String(), Job: s.status(job)})
}

// handleSParamsGet serves an artifact by its 64-hex content address
// (JSON by default, the raw .s2p body under format/Accept negotiation)
// or, for any other id, the generation job's status.
func (s *Server) handleSParamsGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	key, err := rescache.ParseKey(id)
	if err != nil {
		// Not a content address: treat as a job ID.
		s.handleStatus(w, r)
		return
	}
	art, ok := s.artifact(key)
	if !ok {
		if job, live := s.liveJob(journal.OpSparamsSubmitted, key); live {
			writeJSON(w, http.StatusAccepted, acceptedPayload{Key: key.String(), Job: s.status(job)})
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("no S-parameter artifact %s (submit it via POST /v1/sparams)", key))
		return
	}
	if wantsTouchstone(r) {
		w.Header().Set("Content-Type", "application/x-touchstone")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", "sparams-"+key.String()[:12]+".s2p"))
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, art.Touchstone)
		return
	}
	writeJSON(w, http.StatusOK, art)
}

// wantsTouchstone reports whether the client asked for the raw .s2p
// body (?format=s2p, or a Touchstone Accept header).
func wantsTouchstone(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f == "s2p" || f == "touchstone" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-touchstone")
}

// artifact reads the store (memory tier, then disk).
func (s *Server) artifact(key rescache.Key) (*sparams.Artifact, bool) {
	v, ok := s.sparArts.Get(key)
	if !ok {
		return nil, false
	}
	// A disk entry reading JSON null decodes to a nil artifact.
	art, ok := v.(*sparams.Artifact)
	return art, ok && art != nil
}

// runSParams is the generation job body: resolve → correct → cascade →
// validate → persist. Progress counts the K grid plus one unit for the
// generate/validate tail.
func (s *Server) runSParams(cfg roughsim.SParamConfig, key rescache.Key) jobs.Runner {
	return func(ctx context.Context, progress func(done, total int)) (any, error) {
		s.journalStarted(ctx)
		grid := cfg.Grid()
		total := len(grid) + 1
		progress(0, total)
		// Replay/retry fast path: the artifact may already be durable.
		if art, ok := s.artifact(key); ok {
			progress(total, total)
			return art, nil
		}
		art, err := sparams.Generate(ctx, cfg.Request(), s.kResolver(cfg, func(done int) {
			progress(min(done, len(grid)), total)
		}), s.metrics)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(cfg)
		if err != nil {
			return nil, fmt.Errorf("server: encode artifact config: %w", err)
		}
		art.Config = raw
		// Chaos point BEFORE the store write: "crash at the n-th artifact
		// persist" leaves the K points cached but the artifact absent —
		// exactly the torn state replay must finish from.
		s.chaos.Crash("sparams.artifact", s.sparSeq.Add(1))
		_, span := trace.StartSpan(ctx, "sparams.persist")
		s.sparArts.Put(key, art)
		span.End()
		progress(total, total)
		return art, nil
	}
}

// kResolver resolves K(f) for one artifact: an admitted surrogate whose
// physics matches and whose band covers the grid evaluates in
// microseconds; otherwise the exact sweep chain runs with all its
// machinery (result cache, checkpoints, cluster dispatch) behind it.
func (s *Server) kResolver(cfg roughsim.SParamConfig, onProgress func(done int)) sparams.Resolver {
	return func(ctx context.Context, freqs []float64) (sparams.Resolution, error) {
		if res, ok := s.surrogateResolve(cfg, freqs); ok {
			s.metrics.CounterL("sparams.k_path", telemetry.L("path", "surrogate")).Inc()
			onProgress(len(freqs))
			return res, nil
		}
		s.metrics.CounterL("sparams.k_path", telemetry.L("path", "exact")).Inc()
		sweep := roughsim.SweepConfig{Stack: cfg.Stack, Spec: cfg.Spec, Acc: cfg.Acc, Freqs: freqs}.WithDefaults()
		result, err := s.computeSweep(ctx, sweep, func(done, total int) { onProgress(done) })
		if err != nil {
			return sparams.Resolution{}, err
		}
		ks := make([]float64, len(result.Points))
		for i, p := range result.Points {
			ks[i] = p.KSWM
		}
		return sparams.Resolution{K: ks, Source: "exact"}, nil
	}
}

// surrogateResolve scans the registry for an admitted model fitted for
// this request's physics whose band covers the whole grid.
func (s *Server) surrogateResolve(cfg roughsim.SParamConfig, freqs []float64) (sparams.Resolution, bool) {
	physics := (roughsim.SweepConfig{Stack: cfg.Stack, Spec: cfg.Spec, Acc: cfg.Acc}).WithDefaults().KeyAt(1)
	for _, rec := range s.surrogates.List() {
		if rec.Status != surrogate.StatusAdmitted || rec.Model == nil {
			continue
		}
		if !rec.Model.InBand(freqs[0]) || !rec.Model.InBand(freqs[len(freqs)-1]) {
			continue
		}
		var scfg roughsim.SurrogateConfig
		if json.Unmarshal(rec.Spec.Meta, &scfg) != nil {
			continue
		}
		if (roughsim.SweepConfig{Stack: scfg.Stack, Spec: scfg.Spec, Acc: scfg.Acc}).WithDefaults().KeyAt(1) != physics {
			continue
		}
		ks := make([]float64, len(freqs))
		ok := true
		for i, f := range freqs {
			k, err := rec.Model.Mean(f)
			if err != nil {
				ok = false
				break
			}
			ks[i] = k
		}
		if !ok {
			continue
		}
		return sparams.Resolution{K: ks, Source: "surrogate", MaxRelErr: rec.MaxRelErr}, true
	}
	return sparams.Resolution{}, false
}
