package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"roughsim"
	"roughsim/internal/campaign"
	"roughsim/internal/jobs"
	"roughsim/internal/journal"
	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
)

// durableConfig is the smallest crash-safe server: journal + disk cache
// tiers under dir.
func durableConfig(dir string, m *telemetry.Registry) Config {
	return Config{
		Workers:     1,
		QueueDepth:  4,
		CacheDir:    filepath.Join(dir, "cache"),
		JournalPath: filepath.Join(dir, "journal.wal"),
		Metrics:     m,
	}
}

// TestOversizedBodyIs413: a body past the MaxBytesReader limit is a
// payload problem (413), not a syntax problem (400) — on both decode
// paths.
func TestOversizedBodyIs413(t *testing.T) {
	ts := startServer(t, Config{Workers: 1, QueueDepth: 2})
	defer ts.shutdown(t)

	// Valid-but-huge JSON (leading whitespace is legal) so the decoder
	// reads past the byte limit instead of failing on syntax first.
	huge := append(bytes.Repeat([]byte(" "), 1<<20+1), []byte("{}")...)
	for _, path := range []string{"/v1/sweeps", "/v1/surrogates"} {
		resp, err := ts.client.Post(ts.base+path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with oversized body = %d, want 413", path, resp.StatusCode)
		}
	}
	// Malformed-but-small bodies still map to 400.
	resp, err := ts.client.Post(ts.base+"/v1/sweeps", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}
}

// TestQueueFullIs429WithRetryAfter: overload is a client-retryable
// condition — 429 plus a Retry-After hint, not a bare 503.
func TestQueueFullIs429WithRetryAfter(t *testing.T) {
	ts := startServer(t, Config{Workers: 1, QueueDepth: 2})
	defer ts.shutdown(t)

	// One job occupies the worker, two fill the queue channel.
	block := make(chan struct{})
	defer close(block)
	blocker := func(ctx context.Context, _ func(int, int)) (any, error) {
		select {
		case <-block:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if _, err := ts.srv.queue.Submit(blocker); err != nil {
		t.Fatalf("setup submit: %v", err)
	}
	// Wait for the worker to take it off the channel, then fill the channel.
	waitFor(t, time.Second, func() bool { return ts.srv.queue.Depth() == 0 })
	for i := 0; i < 2; i++ {
		if _, err := ts.srv.queue.Submit(blocker); err != nil {
			t.Fatalf("setup submit %d: %v", i, err)
		}
	}
	waitFor(t, time.Second, func() bool { return ts.srv.queue.Depth() >= 2 })

	req, _ := http.NewRequest("POST", ts.base+"/v1/sweeps", bytes.NewReader(mustJSON(t, tinyConfig(5e9))))
	resp, err := ts.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit against a full queue = %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
}

// TestBreakerTripsShedsAndRecovers drives the circuit breaker through
// its whole lifecycle: closed → open on persistent failures (shedding
// with Retry-After), half-open after the cooldown, closed again on a
// healthy probe — with the state gauge tracking every transition.
func TestBreakerTripsShedsAndRecovers(t *testing.T) {
	m := telemetry.NewRegistry()
	b := newBreaker(m)
	b.cooldown = 30 * time.Millisecond

	if _, ok := b.Allow(); !ok {
		t.Fatal("fresh breaker refused work")
	}
	for i := 0; i < breakerMinSamples-1; i++ {
		b.Record(false)
	}
	if b.State() != breakerClosed {
		t.Fatalf("state after %d failures = %v, want closed below the sample floor", breakerMinSamples-1, b.State())
	}
	b.Record(false)
	if b.State() != breakerOpen {
		t.Fatalf("state after %d/%d failures = %v, want open", breakerMinSamples, breakerMinSamples, b.State())
	}
	if m.Counter("breaker.trips").Value() != 1 {
		t.Fatalf("trips = %d, want 1", m.Counter("breaker.trips").Value())
	}
	retry, ok := b.Allow()
	if ok || retry <= 0 {
		t.Fatalf("open breaker admitted work (retry=%v ok=%v)", retry, ok)
	}
	if m.Counter("breaker.sheds").Value() != 1 {
		t.Fatalf("sheds = %d, want 1", m.Counter("breaker.sheds").Value())
	}
	if g := m.Gauge("breaker.state").Value(); g != breakerOpen {
		t.Fatalf("breaker.state gauge = %v, want %v", g, breakerOpen)
	}

	time.Sleep(40 * time.Millisecond)
	if _, ok := b.Allow(); !ok {
		t.Fatal("breaker past cooldown refused the probe")
	}
	if b.State() != breakerHalfOpen {
		t.Fatalf("state after probe admit = %v, want half-open", b.State())
	}
	b.Record(true)
	if b.State() != breakerClosed {
		t.Fatalf("state after healthy probe = %v, want closed", b.State())
	}

	// A failed probe reopens immediately.
	for i := 0; i < breakerMinSamples; i++ {
		b.Record(false)
	}
	time.Sleep(40 * time.Millisecond)
	b.Allow()
	b.Record(false)
	if b.State() != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
}

// TestInvalidInputFailuresLeaveBreakerClosed: jobs that fail with an
// invalid-input error describe their request, not the exact-solve
// tier's health, so a run of them — here sweeps of a surface the grid
// cannot resolve (core.CheckResolution) — past the breaker's sample
// floor leaves it closed, and a valid sweep is still admitted.
func TestInvalidInputFailuresLeaveBreakerClosed(t *testing.T) {
	ts := startServer(t, Config{Workers: 1, QueueDepth: 4})
	defer ts.shutdown(t)

	for i := 0; i < breakerMinSamples+1; i++ {
		cfg := tinyConfig(float64(5+i) * 1e9)
		cfg.Spec.Sigma = 10e-6 // σ/η = 10: curvature rivals the ½ jump term
		code, body := ts.do(t, "POST", "/v1/sweeps", cfg)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
		var info jobs.Info
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); !info.Status.Terminal(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish: %+v", info.ID, info)
			}
			_, body = ts.do(t, "GET", "/v1/sweeps/"+info.ID, nil)
			if err := json.Unmarshal(body, &info); err != nil {
				t.Fatal(err)
			}
		}
		if info.Status != jobs.StatusFailed || !strings.Contains(info.Error, "under-resolved") {
			t.Fatalf("job %d ended %s (%s), want an under-resolved failure", i, info.Status, info.Error)
		}
	}
	if st := ts.srv.brk.State(); st != breakerClosed {
		t.Fatalf("breaker state %v after invalid-input failures, want closed", st)
	}
	if n := ts.metrics.Counter("breaker.trips").Value(); n != 0 {
		t.Fatalf("breaker.trips = %d, want 0", n)
	}
	if code, body := ts.do(t, "POST", "/v1/sweeps", tinyConfig(5e9)); code != http.StatusAccepted {
		t.Fatalf("valid sweep after invalid-input failures: %d %s", code, body)
	}
}

// TestBreakerOpenSheds429: an open breaker turns POST /v1/sweeps into
// 429 + Retry-After while /healthz and the rest of the read plane keep
// serving.
func TestBreakerOpenSheds429(t *testing.T) {
	ts := startServer(t, Config{Workers: 1, QueueDepth: 4})
	defer ts.shutdown(t)

	ts.srv.brk.mu.Lock()
	ts.srv.brk.openedAt = time.Now()
	ts.srv.brk.setStateLocked(breakerOpen)
	ts.srv.brk.mu.Unlock()

	req, _ := http.NewRequest("POST", ts.base+"/v1/sweeps", bytes.NewReader(mustJSON(t, tinyConfig(5e9))))
	resp, err := ts.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit behind open breaker = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if code, _ := ts.do(t, "GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz behind open breaker = %d, want 200", code)
	}
}

// TestJournalReplayAcrossRestart: a job journaled but orphaned by an
// ungraceful drain is re-enqueued — under its original ID — by the next
// server against the same journal, and completes.
func TestJournalReplayAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	dir := t.TempDir()

	m1 := telemetry.NewRegistry()
	ts1 := startServer(t, durableConfig(dir, m1))

	// Occupy the single worker so the journaled submission stays queued.
	block := make(chan struct{})
	ts1.srv.queue.Submit(func(ctx context.Context, _ func(int, int)) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	code, body := ts1.do(t, "POST", "/v1/sweeps", tinyConfig(5e9))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info jobs.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	// Ungraceful stop: the drain context is already expired, so queued
	// work is cancelled — a shutdown artifact the observer must NOT
	// journal as terminal.
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	cancel()
	close(block)
	ts1.srv.Shutdown(expired)
	<-ts1.serveErr

	m2 := telemetry.NewRegistry()
	ts2 := startServer(t, durableConfig(dir, m2))
	if got := m2.Counter("journal.jobs_replayed").Value(); got != 1 {
		t.Fatalf("jobs_replayed = %d, want 1", got)
	}
	res := ts2.waitResult(t, info.ID) // original ID survives the restart
	var sr roughsim.SweepResult
	if err := json.Unmarshal(res, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 1 || !(sr.Points[0].KSWM > 0) {
		t.Fatalf("replayed result malformed: %s", res)
	}
	ts2.shutdown(t)

	// A third boot sees a completed journal: nothing replays.
	m3 := telemetry.NewRegistry()
	ts3 := startServer(t, durableConfig(dir, m3))
	if got := m3.Counter("journal.jobs_replayed").Value(); got != 0 {
		t.Fatalf("clean journal replayed %d jobs, want 0", got)
	}
	ts3.shutdown(t)
}

// TestDrainedRetryWaiterReplays: a job waiting out its retry backoff
// when the server drains is abandoned without a terminal record, so the
// next boot replays it under its original ID.
func TestDrainedRetryWaiterReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	dir := t.TempDir()

	m1 := telemetry.NewRegistry()
	cfg1 := durableConfig(dir, m1)
	cfg1.MaxAttempts = 2
	ts1 := startServer(t, cfg1)
	ts1.srv.backoff.Base = time.Hour
	sweep := tinyConfig(5e9).WithDefaults()
	job, err := ts1.srv.submitDurable(journal.OpSubmitted, sweep.Key(), sweep,
		func(context.Context, func(int, int)) (any, error) {
			return nil, resilience.Errorf(resilience.KindConvergence, "test.solve", "transient")
		})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if info := job.Snapshot(); info.Status == jobs.StatusQueued && info.Attempt == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never waited for retry")
		}
		time.Sleep(time.Millisecond)
	}
	ts1.shutdown(t) // the hour-long backoff must not hold the drain
	if got := m1.Counter("jobs.dropped_at_shutdown").Value(); got != 1 {
		t.Fatalf("dropped_at_shutdown = %d, want 1", got)
	}

	m2 := telemetry.NewRegistry()
	ts2 := startServer(t, durableConfig(dir, m2))
	if got := m2.Counter("journal.jobs_replayed").Value(); got != 1 {
		t.Fatalf("jobs_replayed = %d, want 1", got)
	}
	res := ts2.waitResult(t, job.ID)
	var sr roughsim.SweepResult
	if err := json.Unmarshal(res, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 1 || !(sr.Points[0].KSWM > 0) {
		t.Fatalf("replayed result malformed: %s", res)
	}
	ts2.shutdown(t)
}

// TestReplayUndecodableConfigs: a journaled submission whose config no
// longer decodes must not wedge boot. Replay closes it with its
// terminal record, classified invalid input, so the next boot replays
// nothing.
func TestReplayUndecodableConfigs(t *testing.T) {
	cases := []struct {
		op       journal.Op
		terminal journal.Op
	}{
		{journal.OpSubmitted, journal.OpFailed},
		{journal.OpSparamsSubmitted, journal.OpFailed},
		{journal.OpCampaignSubmitted, journal.OpFailed},
	}
	for _, tc := range cases {
		t.Run(string(tc.op), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir, telemetry.NewRegistry())
			jnl, _, err := journal.Open(cfg.JournalPath, telemetry.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			// A JSON array decodes into none of the config structs.
			if err := jnl.Append(journal.Record{
				Op: tc.op, JobID: "undecodable", Config: json.RawMessage(`[1,2,3]`),
			}); err != nil {
				t.Fatal(err)
			}
			jnl.Close()

			startServer(t, cfg).shutdown(t)
			recs, err := journal.ReadAll(cfg.JournalPath)
			if err != nil {
				t.Fatal(err)
			}
			var closed bool
			for _, r := range recs {
				if r.JobID == "undecodable" && r.Op == tc.terminal {
					closed = true
					if r.Kind != resilience.KindInvalidInput.String() {
						t.Fatalf("%s record kind = %q, want %q", r.Op, r.Kind, resilience.KindInvalidInput)
					}
				}
			}
			if !closed {
				t.Fatalf("no %s record closes the undecodable submission: %+v", tc.terminal, recs)
			}

			m := telemetry.NewRegistry()
			cfg.Metrics = m
			startServer(t, cfg).shutdown(t)
			if n := m.Counter("journal.jobs_replayed").Value() + m.Counter("journal.campaigns_replayed").Value(); n != 0 {
				t.Fatalf("second boot replayed %d records, want 0", n)
			}
		})
	}
}

// lockedBuffer is an io.Writer safe for the concurrent writes of a
// server's logger.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestReplayResumesJobsBeforeCampaigns: a journal holding a pending
// campaign ahead of a pending sweep replays the sweep first. A replayed
// job that finds the queue full is closed as failed, while campaign
// cells wait and retry, so jobs must reach the queue first. The journal
// also carries the anchor-done, lease-* and campaign-cell-done records
// older daemons wrote; both still resume under their journaled IDs.
func TestReplayResumesJobsBeforeCampaigns(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, telemetry.NewRegistry())
	camp := roughsim.CampaignConfig{
		Cells: []roughsim.SurfaceSpec{{Corr: roughsim.GaussianCF, Sigma: 0, Eta: 1e-6}},
		Freqs: []float64{1e9},
	}.WithDefaults()
	campID, err := camp.ID()
	if err != nil {
		t.Fatal(err)
	}
	sweep := tinyConfig(5e9)
	jnl, _, err := journal.Open(cfg.JournalPath, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []journal.Record{
		{Op: journal.OpCampaignSubmitted, JobID: campID, Key: campID, Config: mustJSON(t, camp)},
		{Op: "campaign-cell-done", JobID: campID},
		{Op: journal.OpSubmitted, JobID: "replayed-sweep", Key: sweep.Key().String(), Config: mustJSON(t, sweep)},
		{Op: "lease-granted", JobID: "replayed-sweep", Key: "col-0"},
		{Op: "lease-expired", JobID: "replayed-sweep", Key: "col-0"},
		{Op: "anchor-done", JobID: "replayed-sweep"},
		{Op: "anchor-done", JobID: campID},
	} {
		if err := jnl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	jnl.Close()

	var logs lockedBuffer
	cfg.Log = slog.New(slog.NewTextHandler(&logs, nil))
	m := telemetry.NewRegistry()
	cfg.Metrics = m
	ts := startServer(t, cfg)
	replayed := logs.String() // replay runs inside New
	if _, ok := ts.srv.queue.Get("replayed-sweep"); !ok {
		t.Fatal("replayed sweep not in the queue under its journaled ID")
	}
	ts.shutdown(t)
	if j, c := m.Counter("journal.jobs_replayed").Value(), m.Counter("journal.campaigns_replayed").Value(); j != 1 || c != 1 {
		t.Fatalf("replayed %d jobs and %d campaigns, want 1 and 1", j, c)
	}
	sweepAt := strings.Index(replayed, "id=replayed-sweep")
	campAt := strings.Index(replayed, "id="+campID)
	if sweepAt < 0 || campAt < 0 || sweepAt > campAt {
		t.Fatalf("replay log does not resume the sweep before the campaign:\n%s", replayed)
	}
}

// replayOpsOnly reads the journal at path and fails t for every record
// replay does not read: the journal may hold only submission, started
// and terminal records.
func replayOpsOnly(t *testing.T, path string) []journal.Record {
	t.Helper()
	recs, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		switch r.Op {
		case journal.OpSubmitted, journal.OpSparamsSubmitted, journal.OpCampaignSubmitted,
			journal.OpStarted, journal.OpCompleted, journal.OpFailed, journal.OpCanceled:
		default:
			t.Errorf("journal holds op %q for %s, which replay never reads", r.Op, r.JobID)
		}
	}
	return recs
}

// TestJournalRecordsOnlyDurableJobs: campaign cells and surrogate builds
// are queue jobs the journal never sees submitted, so no record may
// name them — every record belongs to a campaign or to a job submitted
// under submitted or sparams-submitted. And a durable sweep that saves
// checkpoints and a campaign whose cell finishes journal only the
// records replay reads.
func TestJournalRecordsOnlyDurableJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	dir := t.TempDir()
	m := telemetry.NewRegistry()
	cfg := durableConfig(dir, m)
	ts := startServer(t, cfg)

	ts.submitAndWait(t, tinyConfig(6e9))
	if saves := m.Counter("sweep.checkpoint_saves").Value(); saves == 0 {
		t.Fatal("durable sweep saved no checkpoints")
	}

	sweep := tinyConfig()
	camp := roughsim.CampaignConfig{Acc: sweep.Acc, Cells: []roughsim.SurfaceSpec{sweep.Spec}, Freqs: []float64{5e9}}
	code, body := ts.do(t, "POST", "/v1/campaigns", camp)
	if code != http.StatusAccepted {
		t.Fatalf("campaign submit: %d %s", code, body)
	}
	var agg campaign.Aggregate
	if err := json.Unmarshal(body, &agg); err != nil {
		t.Fatal(err)
	}
	if agg = waitCampaign(t, ts.base, agg.ID); agg.Status != campaign.StatusSucceeded {
		t.Fatalf("campaign ended %s: %s", agg.Status, agg.Error)
	}

	code, body = ts.do(t, "POST", "/v1/surrogates", tinySurrogateConfig())
	if code != http.StatusAccepted {
		t.Fatalf("surrogate submit: %d %s", code, body)
	}
	var build struct {
		Job jobs.Info `json:"job"`
	}
	if err := json.Unmarshal(body, &build); err != nil {
		t.Fatal(err)
	}
	ts.waitResult(t, build.Job.ID)
	ts.shutdown(t)

	recs := replayOpsOnly(t, cfg.JournalPath)
	owners := map[string]bool{agg.ID: true}
	for _, r := range recs {
		if r.Op == journal.OpSubmitted || r.Op == journal.OpSparamsSubmitted {
			owners[r.JobID] = true
		}
	}
	for _, r := range recs {
		if !owners[r.JobID] {
			t.Errorf("%s record for job %s, which the journal never saw submitted", r.Op, r.JobID)
		}
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCheckpointPurgeAfterSuccess: a completed job leaves no checkpoint
// columns behind (they are consumed into the result cache).
func TestCheckpointPurgeAfterSuccess(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	dir := t.TempDir()
	m := telemetry.NewRegistry()
	ts := startServer(t, durableConfig(dir, m))
	defer ts.shutdown(t)

	ts.submitAndWait(t, tinyConfig(5e9))
	if saves := m.Counter("sweep.checkpoint_saves").Value(); saves == 0 {
		t.Fatal("sweep saved no checkpoints")
	}
	// The purge runs in the terminal observer, which may still be
	// finishing when the status first reads terminal — poll briefly.
	ckptGone := func() bool {
		files, err := filepath.Glob(filepath.Join(dir, "cache", "checkpoints", "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files) == 0
	}
	waitFor(t, 2*time.Second, ckptGone)
	waitFor(t, 2*time.Second, func() bool {
		ts.srv.ckptMu.Lock()
		defer ts.srv.ckptMu.Unlock()
		return len(ts.srv.ckptCfgs) == 0
	})
}
