// Package server is the HTTP tier of roughsimd: sweep jobs are
// submitted to a bounded queue, executed by a fixed worker pool, and
// their per-frequency K(f) records served from a content-addressed
// result cache, so identical work is computed once across requests,
// restarts (with a disk tier) and concurrent submissions
// (single-flight).
//
// API (all JSON):
//
//	POST /v1/sweeps            submit a roughsim.SweepConfig; 202 + job info
//	GET  /v1/sweeps/{id}       job status + progress (404 once 4096 jobs
//	                           have finished after it)
//	GET  /v1/sweeps/{id}/result  the roughsim.SweepResult (when succeeded)
//	GET  /v1/sweeps/{id}/stream  SSE progress events until terminal
//	DELETE /v1/sweeps/{id}     cancel a queued or running job
//	POST /v1/campaigns         submit a roughsim.CampaignConfig (a parameter
//	                           grid); 202 + aggregate, idempotent by content ID
//	GET  /v1/campaigns         list campaign aggregates
//	GET  /v1/campaigns/{id}    aggregate + per-cell detail
//	DELETE /v1/campaigns/{id}  cancel a running campaign / forget a terminal one
//	GET  /v1/campaigns/{id}/events  SSE aggregate progress until terminal
//	GET  /v1/campaigns/{id}/result  combined artifact (JSON; CSV with
//	                           ?format=csv or Accept: text/csv)
//	POST /v1/sparams           submit a roughsim.SParamConfig; 200 + artifact
//	                           on a store hit, else 202 + generation job
//	GET  /v1/sparams/{id}      artifact by content address (JSON; raw .s2p
//	                           with ?format=s2p or Accept:
//	                           application/x-touchstone) or job status
//	GET  /v1/sparams/{id}/stream  SSE progress of a generation job
//	POST /v1/surrogates        fit + validate + admit a broadband K(f) model
//	GET  /v1/surrogates        list surrogate admission records
//	GET  /v1/surrogates/{key}  one admission record
//	DELETE /v1/surrogates/{key}  evict a surrogate (memory + disk)
//	GET  /k?key=…&f=…          closed-form K query (sub-ms on admitted models;
//	                           falls back to the exact sweep tier otherwise)
//	GET  /metrics              telemetry snapshot (JSON; Prometheus text
//	                           on ?format=prometheus or a scraper Accept)
//	GET  /healthz              liveness + readiness facets (journal/cache
//	                           directory writability; 503 when degraded)
//	GET  /debug/trace/{id}     full span tree of a job's trace
//	GET  /debug/traces         per-stage rollups of recent traces
//	GET  /debug/pprof/...      stdlib profiler (only with EnablePprof)
//
// The record schema of /result is exactly what `roughsim -json` emits,
// so CLI and service outputs are diffable; /result carries the job's
// trace ID in an X-Trace-ID header instead of in the body.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"roughsim"
	"roughsim/internal/campaign"
	"roughsim/internal/cluster"
	"roughsim/internal/jobs"
	"roughsim/internal/journal"
	"roughsim/internal/memo"
	"roughsim/internal/rescache"
	"roughsim/internal/resilience"
	"roughsim/internal/sparams"
	"roughsim/internal/surrogate"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// Config sizes the service tier. Zero values select the defaults noted
// on each field.
type Config struct {
	Workers    int           // queue worker pool (default 2)
	QueueDepth int           // bounded FIFO capacity (default 64)
	JobTimeout time.Duration // per-job deadline (default none)
	CacheSize  int           // memory-tier entries (default 4096)
	CacheDir   string        // disk tier directory ("" disables)
	// SurrogateCap bounds the memory tier of the surrogate registry
	// (admission records; default 64).
	SurrogateCap int
	// SurrogateDir enables the surrogate registry's persistent tier
	// ("" disables): admitted models survive restarts.
	SurrogateDir string
	// Metrics receives every tier's telemetry; default a fresh registry.
	Metrics *telemetry.Registry
	// TraceCapacity bounds the ring of retained job traces (default
	// trace.DefaultRecorderCap).
	TraceCapacity int
	// JournalPath enables the write-ahead job journal ("" disables):
	// every accepted sweep is durably recorded before its 202, and a
	// restart against the same path re-enqueues unfinished jobs under
	// their original IDs.
	JournalPath string
	// MaxAttempts bounds how many times a transiently failing job runs
	// before it fails permanently (default 3; 1 disables retries).
	MaxAttempts int
	// CampaignCells caps the sweep cells one campaign keeps in flight
	// (default Workers−1, floor 1), so batch campaigns cannot starve
	// interactive sweeps of the worker pool.
	CampaignCells int
	// MaxCampaignCells bounds the expanded cell count of an accepted
	// campaign (default 512).
	MaxCampaignCells int
	// Chaos, when non-nil, injects deterministic faults (crash points)
	// for resilience testing. Never set it in production.
	Chaos *resilience.Injector
	// Cluster wires the distributed compute plane (see ClusterConfig);
	// the zero value keeps the server single-process.
	Cluster ClusterConfig
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiler exposes stacks and heap contents.
	EnablePprof bool
	// Log receives the structured request log (key=value via slog).
	// Default discards, so library/test use stays silent.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.CampaignCells <= 0 {
		c.CampaignCells = c.Workers - 1
		if c.CampaignCells < 1 {
			c.CampaignCells = 1
		}
	}
	if c.MaxCampaignCells <= 0 {
		c.MaxCampaignCells = 512
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server wires the queue, cache and metrics behind an http.Handler.
type Server struct {
	cfg     Config
	queue   *jobs.Queue
	cache   *rescache.Cache
	metrics *telemetry.Registry
	tracer  *trace.Recorder
	log     *slog.Logger
	reqID   atomic.Int64
	mux     *http.ServeMux
	http    *http.Server

	// surrogates is the content-addressed registry of broadband K(f)
	// models behind POST /v1/surrogates and the GET /k fast path.
	surrogates *surrogate.Registry

	// tables is the shared Green's-function table cache: every
	// simulation the server builds attaches to it, so concurrent sweeps
	// at overlapping frequency grids build each table exactly once.
	tables *roughsim.TableCache

	// sims memoizes constructed simulations (KL modes are expensive),
	// each attached to tables.
	sims *cluster.Columns

	// flights single-flights identical concurrent sweep jobs by the
	// whole-sweep content address; it keeps no result (capacity 0):
	// finished points live in the result cache.
	flights *memo.LRU[rescache.Key, *roughsim.SweepResult]

	// journal is the write-ahead job journal (nil when disabled); see
	// durable.go for the submit/replay protocol.
	journal *journal.Journal

	// ckpts holds in-flight sweeps' per-node checkpoint columns —
	// deliberately a separate cache from the result cache: its disk tier
	// stores []float64 columns under its own codec, so a column can
	// never be misdecoded as a SweepPoint (or quarantined as one).
	ckpts *rescache.Cache

	// ckptCfgs remembers, per job, the residual sweep config whose
	// checkpoint keys the job may have written, so the terminal observer
	// can purge them.
	ckptMu   sync.Mutex
	ckptCfgs map[string]roughsim.SweepConfig
	ckptSeq  atomic.Uint64 // server-wide checkpoint-save ordinal (chaos occurrence key)
	// ckptWriteMu serializes checkpoint persistence so the save ordinal
	// is meaningful: "crash at the n-th save" then always leaves exactly
	// n-1 durable columns, independent of engine worker interleaving.
	ckptWriteMu sync.Mutex

	// brk is the exact-solve circuit breaker; chaos the fault injector.
	brk   *breaker
	chaos *resilience.Injector
	// backoff is the between-attempt schedule of transiently failed
	// jobs (see Config.MaxAttempts).
	backoff resilience.Backoff

	// camps is the campaign engine (batch parameter studies fanning out
	// through the same queue under their own concurrency cap).
	camps *campaign.Engine
	// campCellSeq orders campaign cell completions server-wide (the
	// campaign.cell chaos occurrence key).
	campCellSeq atomic.Uint64

	// live is the registry of durable jobs — sweeps and S-parameter
	// generations submitted or replayed through the durable path — from
	// submission to terminal, and the one place that decides whether a
	// job's lifecycle is journaled (see durable.go). liveByKey indexes
	// the same jobs by what they compute, so an identical S-parameter
	// request joins the live job instead of queueing a duplicate.
	liveMu    sync.Mutex
	live      map[string]liveKey
	liveByKey map[liveKey]string

	// leases is the coordinator-side claim/renew/complete ledger of the
	// distributed compute plane (nil unless Role is coordinator); ring
	// the consistent-hash shard router (nil unless peers are configured).
	leases *jobs.LeaseTable
	ring   *cluster.Ring

	// sparArts is the content-addressed store of validated S-parameter
	// artifacts (POST /v1/sparams); sparSeq orders artifact persists
	// server-wide (the sparams.artifact chaos occurrence key).
	sparArts *rescache.Cache
	sparSeq  atomic.Uint64
}

// jsonCodec (de)serializes values of type T for a store's disk tier.
// encoding/json prints float64s in their shortest round-trip form, so
// persisted values reload bit-exactly.
func jsonCodec[T any]() rescache.Codec {
	return rescache.Codec{
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (any, error) {
			var v T
			if err := json.Unmarshal(b, &v); err != nil {
				return nil, err
			}
			return v, nil
		},
	}
}

// newStore builds one content-addressed store: a memory tier always,
// plus a disk tier under CacheDir/sub when CacheDir is set.
func newStore(cfg Config, sub string, codec rescache.Codec) (*rescache.Cache, error) {
	opt := rescache.Options{Metrics: cfg.Metrics}
	if cfg.CacheDir != "" {
		opt.Dir = filepath.Join(cfg.CacheDir, sub)
		opt.Codec = codec
	}
	return rescache.New(cfg.CacheSize, opt)
}

// New builds the server (starting its worker pool).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Cluster.validate(); err != nil {
		return nil, err
	}
	cache, err := newStore(cfg, "", jsonCodec[roughsim.SweepPoint]())
	if err != nil {
		return nil, err
	}
	// The checkpoint store always exists (in-process retries resume from
	// it); its disk tier is what crash recovery needs.
	ckpts, err := newStore(cfg, "checkpoints", jsonCodec[[]float64]())
	if err != nil {
		return nil, err
	}
	// On disk, admitted artifacts survive restarts and crash replays find
	// pre-crash artifacts.
	sparArts, err := newStore(cfg, "sparams", jsonCodec[*sparams.Artifact]())
	if err != nil {
		return nil, err
	}
	queue, err := jobs.NewQueue(cfg.Workers, cfg.QueueDepth, cfg.JobTimeout, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	tables := roughsim.NewTableCache(cfg.Metrics)
	s := &Server{
		cfg:        cfg,
		queue:      queue,
		cache:      cache,
		metrics:    cfg.Metrics,
		tracer:     trace.NewRecorder(cfg.TraceCapacity).WithSink(spanSink(cfg.Metrics)),
		log:        cfg.Log,
		mux:        http.NewServeMux(),
		tables:     tables,
		surrogates: surrogate.NewRegistry(cfg.SurrogateCap, cfg.SurrogateDir, cfg.Metrics),
		sims:       cluster.NewColumns(cfg.Metrics, tables),
		flights: memo.NewLRU[rescache.Key, *roughsim.SweepResult](0, memo.Hooks{
			Shared: cfg.Metrics.Counter("cache.singleflight_shared").Inc,
		}),
		ckpts:     ckpts,
		ckptCfgs:  map[string]roughsim.SweepConfig{},
		brk:       newBreaker(cfg.Metrics),
		chaos:     cfg.Chaos,
		backoff:   resilience.Backoff{Base: 250 * time.Millisecond, Max: 30 * time.Second, Jitter: 0.2},
		live:      map[string]liveKey{},
		liveByKey: map[liveKey]string{},
		sparArts:  sparArts,
	}
	queue.SetTracer(s.tracer)
	// The observer (journal terminal records, breaker outcomes,
	// checkpoint purge) must be live before replay re-enqueues anything.
	queue.SetObserver(s.observeTerminal)
	// The campaign engine fans cells out through the same queue; it must
	// exist before journal replay resumes pending campaigns.
	s.camps = campaign.NewEngine(campaign.Options{
		Runner:        cellRunner{s},
		MaxConcurrent: cfg.CampaignCells,
		Metrics:       cfg.Metrics,
		Tracer:        s.tracer,
		Hooks: campaign.Hooks{
			CellDone: s.campaignCellDone,
			Terminal: s.campaignTerminal,
		},
	})
	// The compute plane (lease table, cluster endpoints, shard ring) must
	// exist before journal replay re-enqueues jobs: a replayed sweep may
	// reach the dispatcher as soon as a queue worker picks it up.
	s.initCluster()
	if cfg.JournalPath != "" {
		jnl, rep, err := journal.Open(cfg.JournalPath, cfg.Metrics)
		if err != nil {
			queue.Drain(context.Background())
			return nil, fmt.Errorf("server: open journal: %w", err)
		}
		s.journal = jnl
		s.replayPending(rep)
	}
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCampaignSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleCampaignList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignStatus)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCampaignDelete)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleCampaignEvents)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleCampaignResult)
	s.mux.HandleFunc("POST /v1/sparams", s.handleSParamsSubmit)
	s.mux.HandleFunc("GET /v1/sparams/{id}", s.handleSParamsGet)
	s.mux.HandleFunc("GET /v1/sparams/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/surrogates", s.handleSurrogateSubmit)
	s.mux.HandleFunc("GET /v1/surrogates", s.handleSurrogateList)
	s.mux.HandleFunc("GET /v1/surrogates/{key}", s.handleSurrogateGet)
	s.mux.HandleFunc("DELETE /v1/surrogates/{key}", s.handleSurrogateEvict)
	s.mux.HandleFunc("GET /k", s.handleK)
	s.mux.Handle("GET /metrics", cfg.Metrics.Handler())
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.http = &http.Server{
		Handler: s.instrument(s.mux),
		// Slow-loris / abandoned-connection hardening. No global
		// WriteTimeout: /stream is legitimately long-lived — its writes
		// are bounded per event instead (see handleStream).
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	return s, nil
}

// Handler returns the API handler (also useful under a test server).
func (s *Server) Handler() http.Handler { return s.http.Handler }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown drains gracefully: the queue stops accepting work and
// finishes (or, past ctx, cancels) in-flight jobs, then the HTTP
// listener closes idle connections and waits for handlers.
func (s *Server) Shutdown(ctx context.Context) error {
	qerr := s.queue.Drain(ctx)
	herr := s.http.Shutdown(ctx)
	// Stop the lease expiry scanner after the drain: in-flight sweeps may
	// still be collecting remote columns until the drain completes.
	s.leases.Close()
	// The journal closes only after the drain: terminal records for jobs
	// the drain completed must land before the file does.
	if s.journal != nil {
		if jerr := s.journal.Close(); jerr != nil && qerr == nil && herr == nil {
			return jerr
		}
	}
	if qerr != nil {
		return qerr
	}
	return herr
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Unwrap lets http.NewResponseController reach the connection through
// the wrapper (per-event write deadlines on /stream).
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// flushWriter adds Flush only when the wrapped writer supports it, so
// handleStream's Flusher check still reflects the real connection.
type flushWriter struct {
	*statusWriter
	fl http.Flusher
}

func (fw *flushWriter) Flush() { fw.fl.Flush() }

// instrument counts requests and writes one structured log line per
// request, scoped by a monotonically increasing request ID.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Counter("server.requests").Inc()
		id := s.reqID.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		var out http.ResponseWriter = sw
		if fl, ok := w.(http.Flusher); ok {
			out = &flushWriter{statusWriter: sw, fl: fl}
		}
		next.ServeHTTP(out, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.log.Info("request",
			"req_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"duration", time.Since(start).Round(time.Microsecond).String(),
		)
	})
}

// statusPayload is the job-status JSON: the queue's Info plus the
// compact per-stage trace rollup (omitted when tracing is off).
type statusPayload struct {
	jobs.Info
	Trace *trace.StageSummary `json:"trace,omitempty"`
}

// acceptedPayload is the 202 body of a content-addressed submission (an
// S-parameter artifact, a surrogate build): the address the result
// lands under plus the job to poll.
type acceptedPayload struct {
	Key string        `json:"key"`
	Job statusPayload `json:"job"`
}

func (s *Server) status(j *jobs.Job) statusPayload {
	return statusPayload{Info: j.Snapshot(), Trace: j.Trace().Stages()}
}

// runSweep is the job body: the whole sweep executes as one planned
// unit. Identical concurrent jobs are single-flighted at sweep
// granularity, already-cached points are served from the result cache,
// and only the missing frequencies go to the batched engine — which
// shares collocation surfaces and Green's-function tables across them
// (and, through the server-wide table cache, across jobs).
func (s *Server) runSweep(cfg roughsim.SweepConfig) jobs.Runner {
	return func(ctx context.Context, progress func(done, total int)) (any, error) {
		s.journalStarted(ctx)
		total := len(cfg.Freqs)
		progress(0, total)
		res, o, err := s.flights.Do(ctx, cfg.Key(), func() (*roughsim.SweepResult, error) {
			return s.computeSweep(ctx, cfg, progress)
		})
		if err != nil {
			return nil, err
		}
		if o == memo.Shared {
			progress(total, total)
		}
		return res, nil
	}
}

// computeSweep resolves each frequency from the result cache and runs
// the batched engine over the rest, writing fresh points back through
// both cache tiers.
func (s *Server) computeSweep(ctx context.Context, cfg roughsim.SweepConfig, progress func(done, total int)) (*roughsim.SweepResult, error) {
	total := len(cfg.Freqs)
	points := make([]roughsim.SweepPoint, total)
	missing := make([]int, 0, total)
	for i, f := range cfg.Freqs {
		if v, ok := s.cache.Get(cfg.KeyAt(f)); ok {
			points[i] = v.(roughsim.SweepPoint)
		} else {
			missing = append(missing, i)
		}
	}
	cached := total - len(missing)
	progress(cached, total)
	if len(missing) > 0 {
		sim, err := s.sims.Sim(cfg)
		if err != nil {
			return nil, err
		}
		mf := make([]float64, len(missing))
		for k, idx := range missing {
			mf[k] = cfg.Freqs[idx]
		}
		// Checkpoints key on the residual sweep the engine actually
		// executes (Freqs = mf): column lengths and keys then match on
		// resume if and only if the same residual work repeats.
		ckptCfg := cfg
		ckptCfg.Freqs = mf
		var jobID string
		if meta, ok := jobs.MetaFrom(ctx); ok {
			jobID = meta.JobID
		}
		// With live cluster workers, fan the missing columns out first:
		// every column that comes back lands in the checkpoint store, so
		// the engine run below loads it as a checkpoint hit and solves
		// only what the workers never delivered.
		if s.dispatchable() {
			if derr := s.dispatchColumns(ctx, jobID, ckptCfg, sim); derr != nil {
				return nil, fmt.Errorf("server: sweep: %w", derr)
			}
		}
		pts, err := sim.SweepPoints(ctx, mf, func(done, mt int) {
			if mt > 0 {
				progress(cached+done*len(missing)/mt, total)
			}
		}, s.checkpointStore(jobID, ckptCfg))
		if err != nil {
			return nil, fmt.Errorf("server: sweep: %w", err)
		}
		for k, idx := range missing {
			s.metrics.Counter("sweep.points_computed").Inc()
			s.cache.Put(cfg.KeyAt(mf[k]), pts[k])
			points[idx] = pts[k]
		}
	}
	progress(total, total)
	return &roughsim.SweepResult{Config: cfg, Points: points}, nil
}

// The service limits guard against pathological requests.
const (
	maxGrid  = 64  // largest accepted GridPerSide
	maxDim   = 32  // largest accepted StochasticDim
	maxFreqs = 256 // longest accepted frequency list
)

// validate applies the service limits on top of SweepConfig.Validate.
func validate(cfg roughsim.SweepConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Acc.GridPerSide > maxGrid {
		return fmt.Errorf("grid %d exceeds the service limit %d", cfg.Acc.GridPerSide, maxGrid)
	}
	if cfg.Acc.StochasticDim > maxDim {
		return fmt.Errorf("dim %d exceeds the service limit %d", cfg.Acc.StochasticDim, maxDim)
	}
	if len(cfg.Freqs) > maxFreqs {
		return fmt.Errorf("%d frequencies exceed the service limit %d", len(cfg.Freqs), maxFreqs)
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var cfg roughsim.SweepConfig
	if !decodeBody(w, r, &cfg) {
		return
	}
	cfg = cfg.WithDefaults()
	if err := validate(cfg); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Shard routing: identical sweeps must land on the shard whose
	// caches are warm for them (307 preserves method and body).
	if s.routeAway(w, r, cfg.Key().String()) {
		return
	}
	if retry, err := s.admit(len(cfg.Freqs)); err != nil {
		writeRetryError(w, http.StatusTooManyRequests, retry, err)
		return
	}
	job, err := s.submitDurable(journal.OpSubmitted, cfg.Key(), cfg, s.runSweep(cfg))
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(job))
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, s.status(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.queue.Cancel(j.ID)
	writeJSON(w, http.StatusOK, s.status(j))
}

// handleTrace serves the full span tree of one job's trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.tracer.Get(r.PathValue("id"))
	if tr == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no trace for job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, tr.Summary())
}

// handleTraces serves the per-stage rollups of recent traces, newest
// first (?n= bounds the count).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	sums := s.tracer.Recent(n)
	if sums == nil {
		sums = []*trace.StageSummary{}
	}
	writeJSON(w, http.StatusOK, sums)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	info := j.Snapshot()
	if !info.Status.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; result not ready", info.ID, info.Status))
		return
	}
	v, err := j.Result()
	if err != nil {
		status := http.StatusInternalServerError
		if resilience.Classify(err) == resilience.KindInvalidInput {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, err)
		return
	}
	// The result body stays byte-diffable with `roughsim -json`; the
	// trace travels out of band.
	if id := j.Trace().ID(); id != "" {
		w.Header().Set("X-Trace-ID", id)
	}
	writeJSON(w, http.StatusOK, v)
}

// handleStream serves a job's progress as Server-Sent Events: one
// "progress" event per change of progress or status, then a final
// "done" event with the terminal status.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.stream(w, r, j.ID, j.Changed, func() (any, any, bool) {
		info := j.Snapshot()
		return info, [2]any{info.Done, info.Status}, info.Status.Terminal()
	}, func() any { return s.status(j) })
}

// stream is the one SSE loop, shared by jobs and campaigns: snapshot
// returns the progress payload, the comparable mark whose change is
// worth an event, and whether the resource is terminal; changed returns
// the broadcast channel closed at the resource's next change; final is
// the "done" event payload.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, id string,
	changed func() <-chan struct{}, snapshot func() (v, mark any, terminal bool), final func() any) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// The stream is long-lived by design, so the server has no global
	// write timeout; instead each event write gets its own 30 s deadline
	// — a client that stops reading stalls one write, times out, and the
	// stream tears down instead of pinning the handler forever. Deadline
	// errors are ignored: test recorders don't implement the controller.
	rc := http.NewResponseController(w)
	defer rc.SetWriteDeadline(time.Time{})

	// emit reports write failures so a disconnected client tears the
	// stream down immediately instead of waiting for the context branch
	// of the select below to win.
	emit := func(event string, v any) error {
		b, _ := json.Marshal(v)
		rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}
	// closed accounts a write that failed because the client went away.
	closed := func(err error) {
		s.metrics.Counter("stream.client_gone").Inc()
		s.log.Warn("stream write failed", "job", id, "err", err)
	}
	// Event-driven: the handler sleeps on the broadcast channel and wakes
	// only on actual state changes — no polling tick. Subscribing before
	// snapshotting makes missed updates impossible: any change after the
	// snapshot closes the channel we are about to select on. The first
	// snapshot always differs from the nil mark, so it is always sent.
	var last any
	for {
		ch := changed()
		v, mark, terminal := snapshot()
		if mark != last {
			if err := emit("progress", v); err != nil {
				closed(err)
				return
			}
			last = mark
			continue // drain further changes before sleeping
		}
		if terminal {
			if err := emit("done", final()); err != nil {
				closed(err)
			}
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
