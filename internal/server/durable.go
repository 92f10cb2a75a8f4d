package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"roughsim"
	"roughsim/internal/jobs"
	"roughsim/internal/journal"
	"roughsim/internal/rescache"
	"roughsim/internal/resilience"
	"roughsim/internal/sscm"
	"roughsim/internal/sweepengine"
)

// This file is the durability and overload tier of roughsimd — the one
// durable-job spine sweeps, S-parameter generations and campaigns share:
//
//   - a durable job is journaled (WAL) before the 202 leaves the server,
//     and unfinished jobs and campaigns are resumed — under their
//     original IDs, so client-held status URLs survive — when the daemon
//     reboots against the same journal (one replay table, keyed by the
//     submission op);
//   - the live registry is the one place that decides whether a job's
//     lifecycle is journaled: only the durable submit and replay paths
//     fill it, so campaign cells and surrogate builds never write records;
//   - completed collocation-node columns are checkpointed through a
//     content-addressed cache as the sweep runs, so a crashed sweep
//     resumes without re-solving finished work (bitwise identically);
//   - a queue-pressure admission gate and an outcome-driven circuit
//     breaker shed exact-solve load with 429/503 + Retry-After while
//     the surrogate/cache fast path keeps serving.

// liveKey identifies what a durable job computes: its submission op and
// content address.
type liveKey struct {
	op  journal.Op
	key rescache.Key
}

func (s *Server) submitOptions(id string, attempt int) jobs.SubmitOptions {
	return jobs.SubmitOptions{
		ID:          id,
		Attempt:     attempt,
		MaxAttempts: s.cfg.MaxAttempts,
		Backoff:     s.backoff,
	}
}

// decodeBody decodes a JSON request body into v — 1 MiB cap, unknown
// fields rejected — and writes the 413/400 itself when that fails.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// journalSubmit durably records one submission, config embedded, before
// the work it describes starts (a no-op without a journal).
func (s *Server) journalSubmit(op journal.Op, id, key string, cfg any) error {
	if s.journal == nil {
		return nil
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("server: encode %s config for journal: %w", op, err)
	}
	if err := s.journal.Append(journal.Record{Op: op, JobID: id, Key: key, Config: raw}); err != nil {
		return fmt.Errorf("server: journal %s: %w", op, err)
	}
	return nil
}

// submitDurable journals, then enqueues, one durable job under op. The
// journal append is durable (fsynced) before the queue sees the job, so
// an acknowledged 202 always survives a crash: either the job completes
// and a terminal record follows, or a restart replays it. A submission
// the queue then refuses is closed out in the journal immediately.
func (s *Server) submitDurable(op journal.Op, key rescache.Key, cfg any, run jobs.Runner) (*jobs.Job, error) {
	id := jobs.NewID()
	if err := s.journalSubmit(op, id, key.String(), cfg); err != nil {
		return nil, err
	}
	job, err := s.enqueue(id, 0, liveKey{op, key}, run)
	if err != nil && s.journal != nil {
		s.journal.Append(journal.Record{
			Op: journal.OpCanceled, JobID: id,
			Error: "submission rejected: " + err.Error(),
		})
	}
	return job, err
}

// enqueue registers a durable job as live and submits it under id with
// attempt attempts already spent. Registration precedes the submit: the
// job's started record, written by a worker, must find it.
func (s *Server) enqueue(id string, attempt int, lk liveKey, run jobs.Runner) (*jobs.Job, error) {
	s.liveMu.Lock()
	s.live[id] = lk
	s.liveByKey[lk] = id
	s.liveMu.Unlock()
	job, err := s.queue.SubmitOpts(run, s.submitOptions(id, attempt))
	if err != nil {
		s.untrack(id)
	}
	return job, err
}

// untrack drops a job from the live registry (no-op for other jobs).
func (s *Server) untrack(id string) {
	s.liveMu.Lock()
	if lk, ok := s.live[id]; ok {
		delete(s.live, id)
		if s.liveByKey[lk] == id {
			delete(s.liveByKey, lk)
		}
	}
	s.liveMu.Unlock()
}

// liveJob returns the live durable job computing key under op, if any.
func (s *Server) liveJob(op journal.Op, key rescache.Key) (*jobs.Job, bool) {
	s.liveMu.Lock()
	id, ok := s.liveByKey[liveKey{op, key}]
	s.liveMu.Unlock()
	if !ok {
		return nil, false
	}
	return s.queue.Get(id)
}

// journalJob appends one lifecycle record of a running or finishing job
// — started, anchor-done, lease granted/expired, terminal — if and only
// if the job is live in the durable registry.
func (s *Server) journalJob(rec journal.Record) {
	if s.journal == nil {
		return
	}
	s.liveMu.Lock()
	_, ok := s.live[rec.JobID]
	s.liveMu.Unlock()
	if ok {
		s.journal.Append(rec)
	}
}

// writeSubmitError maps a queue submission failure to its status: a
// full queue is overload (429 + Retry-After), a draining one an outage.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeRetryError(w, http.StatusTooManyRequests, s.drainEstimate(s.queue.Depth()), err)
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// replayer resumes one kind of journaled submission; counter counts the
// ones that do.
type replayer struct {
	counter string
	resume  func(s *Server, p journal.Pending) error
}

// replayers is the replay table, keyed by submission op.
var replayers = map[journal.Op]replayer{
	journal.OpSubmitted:         {"journal.jobs_replayed", replaySweep},
	journal.OpSparamsSubmitted:  {"journal.jobs_replayed", replaySParams},
	journal.OpCampaignSubmitted: {"journal.campaigns_replayed", replayCampaign},
}

// decodeConfig decodes a journaled config. One that no longer decodes
// is invalid input: replaying it again could never succeed.
func decodeConfig[C any](raw json.RawMessage) (C, error) {
	var cfg C
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return cfg, resilience.Errorf(resilience.KindInvalidInput, "undecodable config", "%v", err)
	}
	return cfg, nil
}

func replaySweep(s *Server, p journal.Pending) error {
	cfg, err := decodeConfig[roughsim.SweepConfig](p.Config)
	if err != nil {
		return err
	}
	cfg = cfg.WithDefaults()
	_, err = s.enqueue(p.JobID, p.Attempts, liveKey{p.Op, cfg.Key()}, s.runSweep(cfg))
	return err
}

// replaySParams needs no idempotence of its own: the runner's store
// re-check completes the job without computing anything if the
// artifact landed before the crash.
func replaySParams(s *Server, p journal.Pending) error {
	cfg, err := decodeConfig[roughsim.SParamConfig](p.Config)
	if err != nil {
		return err
	}
	cfg = cfg.WithDefaults()
	key := cfg.Key()
	_, err = s.enqueue(p.JobID, p.Attempts, liveKey{p.Op, key}, s.runSParams(cfg, key))
	return err
}

func replayCampaign(s *Server, p journal.Pending) error {
	cfg, err := decodeConfig[roughsim.CampaignConfig](p.Config)
	if err != nil {
		return err
	}
	c, _, err := s.camps.Start(cfg)
	if err != nil {
		return err
	}
	if c.ID != p.JobID {
		// The content-address schema changed underneath the journal:
		// close out the orphaned record so it cannot replay forever — the
		// campaign continues under its recomputed ID.
		s.journal.Append(journal.Record{
			Op: journal.OpCanceled, JobID: p.JobID,
			Error: "replay: campaign key schema changed; resumed as " + c.ID,
		})
	}
	return nil
}

// replayPending resumes everything a journal replay surfaced — jobs
// under their original IDs and spent attempt counts, then campaigns
// under their original campaign IDs — closing out each record that
// cannot resume as failed. Jobs go first because a replayed job that
// finds the queue full is closed as failed, while campaign cells wait
// and retry. Called from New before the listener is up, so replayed
// work races nothing.
func (s *Server) replayPending(pending []journal.Pending) {
	campaignLast := func(p journal.Pending) int {
		if p.Op == journal.OpCampaignSubmitted {
			return 1
		}
		return 0
	}
	slices.SortStableFunc(pending, func(a, b journal.Pending) int { return campaignLast(a) - campaignLast(b) })
	for _, p := range pending {
		r := replayers[p.Op]
		if err := r.resume(s, p); err != nil {
			s.log.Warn("journal replay: not resumed", "op", p.Op, "id", p.JobID, "err", err)
			rec, _ := s.terminalRecord(p.JobID, journal.OpFailed, fmt.Errorf("replay: %w", err))
			s.journal.Append(rec)
			continue
		}
		s.metrics.Counter(r.counter).Inc()
		s.log.Info("journal replay: resumed", "op", p.Op, "id", p.JobID,
			"attempts_spent", p.Attempts)
	}
}

// journalStarted records the worker pickup of the job running under ctx
// (advances the attempt count a future replay seeds the job with).
func (s *Server) journalStarted(ctx context.Context) {
	if meta, ok := jobs.MetaFrom(ctx); ok {
		s.journalJob(journal.Record{Op: journal.OpStarted, JobID: meta.JobID, Attempt: meta.Attempt})
	}
}

// terminalRecord maps the outcome op (completed, failed or canceled) of
// a job or campaign to the record that closes it out in the journal:
// err's message, and for a failure its resilience kind, ride along. A
// cancellation produced by the shutdown drain is a shutdown artifact,
// not an outcome: ok is false and the caller journals nothing, so a
// restart resumes the work.
func (s *Server) terminalRecord(id string, op journal.Op, err error) (rec journal.Record, ok bool) {
	if op == journal.OpCanceled && s.queue.Draining() {
		return rec, false
	}
	rec = journal.Record{Op: op, JobID: id}
	if err != nil {
		rec.Error = err.Error()
		if op == journal.OpFailed {
			rec.Kind = resilience.Classify(err).String()
		}
	}
	return rec, true
}

// observeTerminal is the queue's terminal-job observer: it funnels
// every real outcome into the journal (so replay drops finished jobs),
// the live registry and checkpoint cleanup, and every outcome that says
// something about the exact-solve tier's health into the circuit
// breaker: not a cancellation, and not a failure classified invalid
// input, which describes the request.
func (s *Server) observeTerminal(j *jobs.Job) {
	op, err := journal.OpCompleted, error(nil)
	switch j.Snapshot().Status {
	case jobs.StatusFailed:
		op = journal.OpFailed
		_, err = j.Result()
	case jobs.StatusCanceled:
		op = journal.OpCanceled
	}
	rec, ok := s.terminalRecord(j.ID, op, err)
	if !ok {
		return
	}
	if op != journal.OpCanceled && resilience.Classify(err) != resilience.KindInvalidInput {
		s.brk.Record(op == journal.OpCompleted)
	}
	s.journalJob(rec)
	s.untrack(j.ID)
	s.purgeCheckpoints(j.ID)
}

// ckptStore adapts the checkpoint cache to sweepengine.Checkpoint for
// one job's engine run. cfg.Freqs is exactly the frequency list the
// engine executes (the cache-missing subset), so checkpoint keys — and
// column lengths — can only match an identical residual sweep.
type ckptStore struct {
	s   *Server
	cfg roughsim.SweepConfig
}

// checkpointStore builds the Checkpoint for one engine run and records
// its key-config so the job's terminal observer can purge consumed
// checkpoints. Returns a nil interface when checkpointing is disabled.
func (s *Server) checkpointStore(jobID string, cfg roughsim.SweepConfig) sweepengine.Checkpoint {
	if s.ckpts == nil {
		return nil
	}
	if jobID != "" {
		s.ckptMu.Lock()
		s.ckptCfgs[jobID] = cfg
		s.ckptMu.Unlock()
	}
	return &ckptStore{s: s, cfg: cfg}
}

func (c *ckptStore) Load(node int) ([]float64, bool) {
	v, ok := c.s.ckpts.Get(c.cfg.CheckpointKey(node))
	if !ok {
		return nil, false
	}
	col, ok := v.([]float64)
	return col, ok
}

func (c *ckptStore) Save(node int, col []float64) {
	// Saves are serialized (engine workers save concurrently otherwise)
	// and the chaos point sits BEFORE the write: "crash at the n-th
	// checkpoint save" then deterministically leaves exactly n-1 columns
	// durable — the torn state the resume path must tolerate.
	c.s.ckptWriteMu.Lock()
	defer c.s.ckptWriteMu.Unlock()
	n := c.s.ckptSeq.Add(1)
	c.s.chaos.Crash("sweep.checkpoint", n)
	c.s.ckpts.Put(c.cfg.CheckpointKey(node), col)
}

// purgeCheckpoints deletes every checkpoint column a finished job may
// have persisted — its final result is in the result cache now, so the
// columns are consumed; leaving them would grow the disk tier with
// history instead of in-flight work.
func (s *Server) purgeCheckpoints(jobID string) {
	if s.ckpts == nil {
		return
	}
	s.ckptMu.Lock()
	cfg, ok := s.ckptCfgs[jobID]
	delete(s.ckptCfgs, jobID)
	s.ckptMu.Unlock()
	if !ok {
		return
	}
	nodes, err := sscm.Nodes(cfg.Acc.StochasticDim, 1)
	if err != nil {
		return
	}
	for node := range nodes {
		s.ckpts.Delete(cfg.CheckpointKey(node))
	}
}

// errBreakerOpen sheds new exact-solve work while the breaker is open.
var errBreakerOpen = errors.New("circuit breaker open: exact-solve tier is failing; retry after cooldown")

// admit is the overload gate in front of the queue: under high queue
// pressure only cheap work (a couple of frequencies — the GET /k
// fallback shape) is still admitted, and an open circuit breaker
// refuses all new exact-solve work. The returned retry is the
// Retry-After hint; err is non-nil when the request must be shed.
func (s *Server) admit(cost int) (retry time.Duration, err error) {
	if wait, ok := s.brk.Allow(); !ok {
		return wait, errBreakerOpen
	}
	depth, capacity := s.queue.Depth(), s.queue.Cap()
	if depth >= capacity {
		return s.drainEstimate(depth), fmt.Errorf("queue full (%d jobs)", depth)
	}
	const cheapSweepCost = 2 // single-point /k fallbacks and probes stay admitted
	if 4*depth >= 3*capacity && cost > cheapSweepCost {
		s.metrics.Counter("server.admission_shed").Inc()
		return s.drainEstimate(depth), fmt.Errorf(
			"queue under pressure (%d/%d jobs): only short sweeps admitted; retry later", depth, capacity)
	}
	return 0, nil
}

// drainEstimate guesses how long the backlog needs to clear enough to
// retry — deliberately coarse (a second per queued job per worker,
// floor 1s): Retry-After is a politeness hint, not a promise.
func (s *Server) drainEstimate(depth int) time.Duration {
	w := s.cfg.Workers
	if w <= 0 {
		w = 1
	}
	d := time.Duration(depth/w) * time.Second
	if d < time.Second {
		d = time.Second
	}
	return d
}

// writeRetryError writes an overload rejection with a Retry-After hint
// (whole seconds, rounded up, floor 1).
func writeRetryError(w http.ResponseWriter, status int, retry time.Duration, err error) {
	secs := int64((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeError(w, status, err)
}

// writeDecodeError maps a request-body decode failure to its status:
// 413 when the MaxBytesReader limit tripped, 400 otherwise — naming the
// offending field when the decoder knows it, so a client can fix the
// request instead of bisecting it.
func writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
		return
	}
	var ute *json.UnmarshalTypeError
	if errors.As(err, &ute) && ute.Field != "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"decode request: field %q: want %s, got %s", ute.Field, ute.Type, ute.Value))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
}
