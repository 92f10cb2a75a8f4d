package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"roughsim"
	"roughsim/internal/jobs"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// tinyConfig is a sweep small enough to solve in well under a second:
// an 8×8 grid with a 2-dimensional KL truncation means two collocation
// solves of a 128×128 system (the ±ξ₂ pair; the other three nodes are
// rigid shifts) plus one flat reference.
func tinyConfig(freqs ...float64) roughsim.SweepConfig {
	return roughsim.SweepConfig{
		Spec:  roughsim.SurfaceSpec{Corr: roughsim.GaussianCF, Sigma: 0.4e-6, Eta: 1e-6},
		Acc:   roughsim.Accuracy{GridPerSide: 8, StochasticDim: 2},
		Freqs: freqs,
	}
}

type testServer struct {
	srv      *Server
	base     string
	client   *http.Client
	metrics  *telemetry.Registry
	serveErr chan error
}

func startServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	return &testServer{
		srv:      srv,
		base:     "http://" + l.Addr().String(),
		client:   &http.Client{},
		metrics:  cfg.Metrics,
		serveErr: errc,
	}
}

func (ts *testServer) shutdown(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-ts.serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
	ts.client.CloseIdleConnections()
}

func (ts *testServer) do(t *testing.T, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// submitAndWait submits cfg and polls until the job is terminal,
// returning the raw /result body.
func (ts *testServer) submitAndWait(t *testing.T, cfg roughsim.SweepConfig) []byte {
	t.Helper()
	code, body := ts.do(t, "POST", "/v1/sweeps", cfg)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info jobs.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return ts.waitResult(t, info.ID)
}

func (ts *testServer) waitResult(t *testing.T, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := ts.do(t, "GET", "/v1/sweeps/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		var info jobs.Info
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Status.Terminal() {
			if info.Status != jobs.StatusSucceeded {
				t.Fatalf("job %s ended %s: %s", id, info.Status, info.Error)
			}
			code, res := ts.do(t, "GET", "/v1/sweeps/"+id+"/result", nil)
			if code != http.StatusOK {
				t.Fatalf("result: %d %s", code, res)
			}
			return res
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, info)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndToEndSingleFlightCacheAndDrain is the acceptance test of the
// service tier: the same sweep submitted twice concurrently and once
// more after completion must cost exactly one solver execution (the
// single-flight + cache behavior, observed via /metrics), return
// byte-identical results all three times, and the server must drain
// gracefully with no goroutine leaks.
func TestEndToEndSingleFlightCacheAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	baseline := runtime.NumGoroutine()
	ts := startServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 64})
	cfg := tinyConfig(5e9)

	// Two concurrent identical submissions.
	var wg sync.WaitGroup
	results := make([][]byte, 3)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = ts.submitAndWait(t, cfg)
		}(i)
	}
	wg.Wait()
	// One more after completion: must be a pure cache hit.
	results[2] = ts.submitAndWait(t, cfg)

	for i := 1; i < 3; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("result %d differs:\n%s\nvs\n%s", i, results[0], results[i])
		}
	}
	var res roughsim.SweepResult
	if err := json.Unmarshal(results[0], &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || !(res.Points[0].KSWM > 1) {
		t.Fatalf("suspicious sweep result: %+v", res)
	}

	// Exactly one solver execution across all three jobs.
	code, body := ts.do(t, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["sweep.points_computed"]; got != 1 {
		t.Fatalf("points_computed = %d, want 1 (metrics: %s)", got, body)
	}
	if got := snap.Counters["cache.hits"] + snap.Counters["cache.singleflight_shared"]; got < 2 {
		t.Fatalf("cache sharing = %d, want ≥ 2 (metrics: %s)", got, body)
	}
	if got := snap.Counters["queue.jobs_completed"]; got != 3 {
		t.Fatalf("jobs_completed = %d, want 3", got)
	}
	if snap.Counters["solve.count"] == 0 || snap.Histograms["solve.seconds"].Count == 0 {
		t.Fatalf("solver telemetry missing: %s", body)
	}

	// Graceful drain; submissions now shed with 503.
	ts.shutdown(t)
	// No goroutine leaks: the worker pool, SSE tickers and HTTP
	// machinery must all unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCanceledSweepSparesJoinedTwin: cancelling a sweep does not cancel
// an identical sweep that joined its single-flight run. The twin runs
// the sweep itself and succeeds.
func TestCanceledSweepSparesJoinedTwin(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	ts := startServer(t, Config{Workers: 2})
	defer ts.shutdown(t)
	cfg := tinyConfig(1e9, 2e9, 3e9, 4e9, 5e9, 6e9, 7e9, 8e9)
	cfg.Acc = roughsim.Accuracy{GridPerSide: 24, StochasticDim: 16}
	submit := func() string {
		code, body := ts.do(t, "POST", "/v1/sweeps", cfg)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, body)
		}
		var info jobs.Info
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		return info.ID
	}
	first := submit()
	second := submit()
	shared := ts.metrics.Counter("cache.singleflight_shared")
	waitFor(t, 10*time.Second, func() bool { return shared.Value() == 1 })
	if code, body := ts.do(t, "DELETE", "/v1/sweeps/"+first, nil); code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body)
	}
	j, _ := ts.srv.queue.Get(first)
	waitFor(t, 10*time.Second, func() bool { return j.Snapshot().Status.Terminal() })
	if info := j.Snapshot(); info.Status != jobs.StatusCanceled {
		t.Fatalf("cancelled job ended %s (%s), want canceled", info.Status, info.Error)
	}
	var res roughsim.SweepResult
	if err := json.Unmarshal(ts.waitResult(t, second), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(cfg.Freqs) {
		t.Fatalf("twin returned %d points, want %d", len(res.Points), len(cfg.Freqs))
	}
}

func TestSubmitValidation(t *testing.T) {
	ts := startServer(t, Config{})
	defer ts.shutdown(t)
	cases := []struct {
		name string
		body string
	}{
		{"empty freqs", `{"surface":{"cf":"gaussian","sigma":1e-6,"eta":1e-6},"freqs_hz":[]}`},
		{"negative freq", `{"surface":{"cf":"gaussian","sigma":1e-6,"eta":1e-6},"freqs_hz":[-1]}`},
		{"bad cf", `{"surface":{"cf":"fractal","sigma":1e-6,"eta":1e-6},"freqs_hz":[1e9]}`},
		{"unknown field", `{"surfaces":{},"freqs_hz":[1e9]}`},
		{"grid above limit", `{"surface":{"cf":"gaussian","sigma":1e-6,"eta":1e-6},"accuracy":{"grid":1000},"freqs_hz":[1e9]}`},
		{"dim above limit", `{"surface":{"cf":"gaussian","sigma":1e-6,"eta":1e-6},"accuracy":{"dim":1000},"freqs_hz":[1e9]}`},
		{"not json", `{{{`},
	}
	for _, c := range cases {
		req, _ := http.NewRequest("POST", ts.base+"/v1/sweeps", strings.NewReader(c.body))
		resp, err := ts.client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
}

// TestServiceLimitBoundaries pins the service limits at their edges:
// grid 64, dim 32 and 256 frequencies pass, one more of each is
// rejected with the limit named.
func TestServiceLimitBoundaries(t *testing.T) {
	freqs := func(n int) []float64 {
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = float64(i+1) * 1e8
		}
		return fs
	}
	for _, tc := range []struct {
		name  string
		edit  func(*roughsim.SweepConfig, int)
		limit int
	}{
		{"grid", func(c *roughsim.SweepConfig, n int) { c.Acc.GridPerSide = n }, 64},
		{"dim", func(c *roughsim.SweepConfig, n int) { c.Acc.StochasticDim = n }, 32},
		{"freqs", func(c *roughsim.SweepConfig, n int) { c.Freqs = freqs(n) }, 256},
	} {
		at, over := tinyConfig(5e9), tinyConfig(5e9)
		tc.edit(&at, tc.limit)
		tc.edit(&over, tc.limit+1)
		if err := validate(at); err != nil {
			t.Errorf("%s %d: %v, want accepted", tc.name, tc.limit, err)
		}
		want := fmt.Sprintf("service limit %d", tc.limit)
		if err := validate(over); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s %d: err %v, want one naming %q", tc.name, tc.limit+1, err, want)
		}
	}
}

func TestUnknownJobAndPrematureResult(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	ts := startServer(t, Config{})
	defer ts.shutdown(t)
	if code, _ := ts.do(t, "GET", "/v1/sweeps/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", code)
	}
	if code, _ := ts.do(t, "GET", "/v1/sweeps/nope/result", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job result = %d", code)
	}
	if code, _ := ts.do(t, "DELETE", "/v1/sweeps/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job cancel = %d", code)
	}
	// A freshly submitted job's result is a 409 until it terminates.
	code, body := ts.do(t, "POST", "/v1/sweeps", tinyConfig(5e9))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info jobs.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if code, _ := ts.do(t, "GET", "/v1/sweeps/"+info.ID+"/result", nil); code != http.StatusOK && code != http.StatusConflict {
		t.Fatalf("early result = %d, want 200 or 409", code)
	}
	ts.waitResult(t, info.ID)
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	ts := startServer(t, Config{})
	defer ts.shutdown(t)
	code, body := ts.do(t, "GET", "/healthz", nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body = ts.do(t, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if snap.Counters["server.requests"] < 1 {
		t.Fatalf("request counter missing: %s", body)
	}
}

func TestDiskTierSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	dir := t.TempDir()
	cfg := tinyConfig(5e9)

	m1 := telemetry.NewRegistry()
	ts1 := startServer(t, Config{CacheDir: dir, Metrics: m1})
	first := ts1.submitAndWait(t, cfg)
	ts1.shutdown(t)

	// A fresh server process (fresh memory tier) must serve the same
	// record from disk without running the solver.
	m2 := telemetry.NewRegistry()
	ts2 := startServer(t, Config{CacheDir: dir, Metrics: m2})
	second := ts2.submitAndWait(t, cfg)
	ts2.shutdown(t)

	if !bytes.Equal(first, second) {
		t.Fatalf("disk-tier result differs:\n%s\nvs\n%s", first, second)
	}
	if got := m2.Counter("sweep.points_computed").Value(); got != 0 {
		t.Fatalf("restart recomputed %d points, want 0", got)
	}
	if got := m2.Counter("cache.disk_hits").Value(); got != 1 {
		t.Fatalf("disk_hits = %d, want 1", got)
	}
}

func TestStreamEmitsTerminalEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	ts := startServer(t, Config{})
	defer ts.shutdown(t)
	code, body := ts.do(t, "POST", "/v1/sweeps", tinyConfig(5e9, 6e9))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info jobs.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.client.Get(ts.base + "/v1/sweeps/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var sawDone bool
	var lastData string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
		if line == "event: done" {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatalf("no done event; last data %q", lastData)
	}
	var final jobs.Info
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != jobs.StatusSucceeded || final.Done != 2 || final.Total != 2 {
		t.Fatalf("final stream snapshot: %+v", final)
	}
}

func TestShutdownShedsNewSubmissions(t *testing.T) {
	ts := startServer(t, Config{})
	ts.shutdown(t)
	// The listener is closed after drain, so reach the handler directly.
	req, _ := http.NewRequest("POST", "/v1/sweeps", bytes.NewReader(mustJSON(t, tinyConfig(5e9))))
	rec := newRecorder()
	ts.srv.Handler().ServeHTTP(rec, req)
	if rec.status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %d, want 503", rec.status)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recorder is a minimal ResponseWriter (httptest.NewRecorder also
// works, but this keeps the Flusher assertion in handleStream honest
// about what it needs).
type recorder struct {
	status int
	header http.Header
	buf    bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(b)
}

// TestStreamManyClientsEventDriven fans many SSE clients onto one
// controlled job: every client must observe the terminal event with the
// final progress, and the handlers sleep on the job's broadcast channel
// between changes (run under -race by scripts/verify.sh).
func TestStreamManyClientsEventDriven(t *testing.T) {
	ts := startServer(t, Config{})
	defer ts.shutdown(t)
	step := make(chan struct{})
	j, err := ts.srv.queue.Submit(func(ctx context.Context, progress func(int, int)) (any, error) {
		progress(0, 3)
		for i := 1; i <= 3; i++ {
			select {
			case <-step:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			progress(i, 3)
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 25
	finals := make([]jobs.Info, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := ts.client.Get(ts.base + "/v1/sweeps/" + j.ID + "/stream")
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			var lastData string
			sawDone := false
			for sc.Scan() {
				line := sc.Text()
				if strings.HasPrefix(line, "data: ") {
					lastData = strings.TrimPrefix(line, "data: ")
				}
				if line == "event: done" {
					sawDone = true
				}
			}
			if !sawDone {
				errs[c] = fmt.Errorf("stream ended without done event (last %q)", lastData)
				return
			}
			errs[c] = json.Unmarshal([]byte(lastData), &finals[c])
		}(c)
	}
	time.Sleep(50 * time.Millisecond) // let clients attach mid-run
	for i := 0; i < 3; i++ {
		step <- struct{}{}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	for c := range errs {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if finals[c].Status != jobs.StatusSucceeded || finals[c].Done != 3 || finals[c].Total != 3 {
			t.Fatalf("client %d final snapshot: %+v", c, finals[c])
		}
	}
}

// spanNames flattens a span subtree into the set of span names.
func spanNames(s *trace.SpanSummary, into map[string]bool) {
	if s == nil {
		return
	}
	into[s.Name] = true
	for _, c := range s.Children {
		spanNames(c, into)
	}
}

// TestTraceEndToEnd runs concurrent sweeps through the full HTTP tier
// and checks the observability surface: nested span trees at
// /debug/trace/{id}, stage rollups + queue wait in job status, the
// X-Trace-ID result header, recent-trace listing, and the stage
// histograms in the Prometheus exposition.
func TestTraceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	ts := startServer(t, Config{Workers: 2})
	defer ts.shutdown(t)

	cfgs := []roughsim.SweepConfig{tinyConfig(5e9, 8e9), tinyConfig(6e9)}
	ids := make([]string, len(cfgs))
	for i := range cfgs {
		code, body := ts.do(t, "POST", "/v1/sweeps", cfgs[i])
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, body)
		}
		var info jobs.Info
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	for _, id := range ids {
		ts.waitResult(t, id)
	}

	for _, id := range ids {
		code, body := ts.do(t, "GET", "/debug/trace/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("trace %s: %d %s", id, code, body)
		}
		var sum trace.Summary
		if err := json.Unmarshal(body, &sum); err != nil {
			t.Fatal(err)
		}
		if sum.ID != id || sum.Spans == nil || sum.Spans.Name != "job" || sum.Spans.InProgress {
			t.Fatalf("trace root: %+v", sum)
		}
		var run *trace.SpanSummary
		rootKids := map[string]bool{}
		for _, c := range sum.Spans.Children {
			rootKids[c.Name] = true
			if c.Name == "job.run" {
				run = c
			}
		}
		if !rootKids["queue.wait"] || run == nil {
			t.Fatalf("root children: %v", rootKids)
		}
		nested := map[string]bool{}
		spanNames(run, nested)
		for _, want := range []string{"sweep.synthesize", "mom.assemble", "mom.solve"} {
			if !nested[want] {
				t.Fatalf("span %q missing under job.run: %v", want, nested)
			}
		}

		// The status payload carries the compact rollup and queue wait.
		code, body = ts.do(t, "GET", "/v1/sweeps/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		var st struct {
			jobs.Info
			Trace *trace.StageSummary `json:"trace"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.QueueWaitSeconds <= 0 {
			t.Fatalf("queue_wait_seconds missing from status: %s", body)
		}
		if st.Trace == nil || st.Trace.ID != id {
			t.Fatalf("status trace rollup: %s", body)
		}
		stages := map[string]bool{}
		for _, sg := range st.Trace.Stages {
			stages[sg.Name] = true
		}
		if !stages["queue.wait"] || !stages["job.run"] || !stages["mom.solve"] {
			t.Fatalf("rollup stages: %v", stages)
		}
	}

	// /result carries the trace out of band.
	resp, err := ts.client.Get(ts.base + "/v1/sweeps/" + ids[0] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-ID"); got != ids[0] {
		t.Fatalf("X-Trace-ID = %q, want %q", got, ids[0])
	}

	// Recent traces, newest first.
	code, body := ts.do(t, "GET", "/debug/traces?n=10", nil)
	if code != http.StatusOK {
		t.Fatalf("traces: %d %s", code, body)
	}
	var recent []trace.StageSummary
	if err := json.Unmarshal(body, &recent); err != nil {
		t.Fatal(err)
	}
	if len(recent) < 2 {
		t.Fatalf("recent traces = %d, want ≥ 2", len(recent))
	}

	// The Prometheus exposition includes the per-stage histograms the CI
	// smoke test scrapes for.
	code, body = ts.do(t, "GET", "/metrics?format=prometheus", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE queue_wait_seconds histogram",
		"# TYPE sweep_stage_seconds histogram",
		`sweep_stage_seconds_bucket{stage="mom.solve",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestPprofIsOptIn: the profiler mounts only when asked for.
func TestPprofIsOptIn(t *testing.T) {
	ts := startServer(t, Config{EnablePprof: true})
	code, body := ts.do(t, "GET", "/debug/pprof/", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "profile") {
		t.Fatalf("pprof index: %d %s", code, body)
	}
	ts.shutdown(t)

	ts = startServer(t, Config{})
	defer ts.shutdown(t)
	if code, _ := ts.do(t, "GET", "/debug/pprof/", nil); code != http.StatusNotFound {
		t.Fatalf("pprof mounted without opt-in: %d", code)
	}
}
