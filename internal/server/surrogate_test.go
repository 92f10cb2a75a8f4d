package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"roughsim"
	"roughsim/internal/journal"
	"roughsim/internal/sscm"
	"roughsim/internal/surrogate"
	"roughsim/internal/telemetry"
)

func tinySurrogateConfig() roughsim.SurrogateConfig {
	sweep := tinyConfig()
	return roughsim.SurrogateConfig{
		Spec:    sweep.Spec,
		Acc:     sweep.Acc,
		FMinHz:  4e9,
		FMaxHz:  6e9,
		Anchors: 6,
	}
}

// kPath builds a GET /k query (the %g form of a frequency contains
// '+', which must be URL-escaped).
func kPath(key string, f float64) string {
	q := url.Values{}
	q.Set("key", key)
	q.Set("f", fmt.Sprintf("%g", f))
	return "/k?" + q.Encode()
}

// awaitAdmission polls the surrogate record until it leaves building.
func (ts *testServer) awaitAdmission(t *testing.T, key string) surrogate.Record {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		code, body := ts.do(t, "GET", "/v1/surrogates/"+key, nil)
		// 404 is the window between job submission and the worker
		// registering the build; keep polling.
		if code == http.StatusOK {
			var rec surrogate.Record
			if err := json.Unmarshal(body, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Status != surrogate.StatusBuilding {
				return rec
			}
		} else if code != http.StatusNotFound {
			t.Fatalf("surrogate status: %d %s", code, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("surrogate %s still building", key)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSurrogateE2E is the acceptance path: POST a surrogate build,
// await admission, then GET /k and check the closed-form answer
// against the exact sweep of the same configuration.
func TestSurrogateE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("fits through the exact solver")
	}
	ts := startServer(t, Config{Workers: 2, SurrogateDir: t.TempDir()})
	defer ts.shutdown(t)

	cfg := tinySurrogateConfig()
	code, body := ts.do(t, "POST", "/v1/surrogates", cfg)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var sub struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Key != cfg.Key().String() {
		t.Fatalf("submitted key %s, config key %s", sub.Key, cfg.Key())
	}

	rec := ts.awaitAdmission(t, sub.Key)
	if rec.Status != surrogate.StatusAdmitted {
		t.Fatalf("status %s: %s", rec.Status, rec.Reason)
	}
	if rec.MaxRelErr > 1e-3 {
		t.Fatalf("admitted with max rel err %g", rec.MaxRelErr)
	}

	// The fast path must agree with the exact sweep at an off-anchor
	// frequency to the admission tolerance.
	f := 5.13e9
	code, body = ts.do(t, "GET", kPath(sub.Key, f), nil)
	if code != http.StatusOK {
		t.Fatalf("GET /k: %d %s", code, body)
	}
	var got struct {
		KSWM     float64 `json:"k_swm"`
		Variance float64 `json:"variance"`
		Source   string  `json:"source"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Source != "surrogate" {
		t.Fatalf("source = %q", got.Source)
	}

	sweep := tinyConfig(f)
	var exact roughsim.SweepResult
	if err := json.Unmarshal(ts.submitAndWait(t, sweep), &exact); err != nil {
		t.Fatal(err)
	}
	want := exact.Points[0].KSWM
	if rel := math.Abs(got.KSWM-want) / want; rel > 1e-3 {
		t.Fatalf("surrogate K = %.8g, exact %.8g (rel %g)", got.KSWM, want, rel)
	}
	if got.Variance < 0 {
		t.Fatalf("variance %g", got.Variance)
	}

	// Counters: the in-band query above was a hit; out-of-band falls
	// back (202, exact job enqueued) and is labeled.
	code, body = ts.do(t, "GET", kPath(sub.Key, 9e9), nil)
	if code != http.StatusAccepted {
		t.Fatalf("out-of-band /k: %d %s", code, body)
	}
	var fb struct {
		Reason string `json:"reason"`
		Job    struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	if err := json.Unmarshal(body, &fb); err != nil {
		t.Fatal(err)
	}
	if fb.Reason != "out_of_band" || fb.Job.ID == "" {
		t.Fatalf("fallback = %+v", fb)
	}
	ts.waitResult(t, fb.Job.ID)
	// Now the exact point is cached: the same query serves directly.
	code, body = ts.do(t, "GET", kPath(sub.Key, 9e9), nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"exact-cache"`) {
		t.Fatalf("cached fallback /k: %d %s", code, body)
	}

	snap := ts.metrics.Snapshot()
	if hits := snap.Counters[`surrogate.requests{outcome="hit"}`]; hits < 3 {
		t.Fatalf("hit counter = %d, want ≥ 3", hits)
	}
	if fbc := snap.Counters[`surrogate.fallback{reason="out_of_band"}`]; fbc != 2 {
		t.Fatalf("out_of_band fallback counter = %d, want 2", fbc)
	}

	// Listing shows the admitted record; eviction removes it and /k
	// goes 404.
	code, body = ts.do(t, "GET", "/v1/surrogates", nil)
	if code != http.StatusOK || !strings.Contains(string(body), sub.Key) {
		t.Fatalf("list: %d %s", code, body)
	}
	if code, body = ts.do(t, "DELETE", "/v1/surrogates/"+sub.Key, nil); code != http.StatusOK {
		t.Fatalf("evict: %d %s", code, body)
	}
	if code, _ = ts.do(t, "GET", kPath(sub.Key, f), nil); code != http.StatusNotFound {
		t.Fatalf("post-evict /k: %d", code)
	}

	// A resubmission of the same config reuses the admission pipeline
	// cleanly (fresh build, deterministic verdict). Await it so shutdown
	// never races a fit in flight.
	code, body = ts.do(t, "POST", "/v1/surrogates", cfg)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("resubmit: %d %s", code, body)
	}
	if rec := ts.awaitAdmission(t, sub.Key); rec.Status != surrogate.StatusAdmitted {
		t.Fatalf("resubmit status %s: %s", rec.Status, rec.Reason)
	}
}

// TestSurrogatePersistenceAcrossRestart proves admitted models survive
// a server restart via the registry's disk tier: the second server
// serves GET /k without any build job.
func TestSurrogatePersistenceAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("fits through the exact solver")
	}
	dir := t.TempDir()
	cfg := tinySurrogateConfig()

	ts := startServer(t, Config{Workers: 2, SurrogateDir: dir})
	code, body := ts.do(t, "POST", "/v1/surrogates", cfg)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	rec := ts.awaitAdmission(t, cfg.Key().String())
	if rec.Status != surrogate.StatusAdmitted {
		t.Fatalf("status %s: %s", rec.Status, rec.Reason)
	}
	ts.shutdown(t)

	ts2 := startServer(t, Config{Workers: 1, SurrogateDir: dir})
	defer ts2.shutdown(t)
	code, body = ts2.do(t, "GET", kPath(cfg.Key().String(), 5e9), nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"surrogate"`) {
		t.Fatalf("restarted /k: %d %s", code, body)
	}
}

// TestSurrogateFastPathPlumbing covers the request-path behavior that
// needs no solver, so it runs under -race -short: bad requests,
// unknown keys and the fallback counter labels.
func TestSurrogateFastPathPlumbing(t *testing.T) {
	ts := startServer(t, Config{Workers: 1})
	defer ts.shutdown(t)

	for _, path := range []string{
		"/k?key=nothex&f=5e9",
		"/k?key=" + tinySurrogateConfig().Key().String() + "&f=-1",
		"/k?key=" + tinySurrogateConfig().Key().String(),
	} {
		if code, body := ts.do(t, "GET", path, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s", path, code, body)
		}
	}
	key := tinySurrogateConfig().Key().String()
	if code, _ := ts.do(t, "GET", "/k?key="+key+"&f=5e9", nil); code != http.StatusNotFound {
		t.Fatalf("unknown key served: %d", code)
	}
	if code, _ := ts.do(t, "GET", "/v1/surrogates/"+key, nil); code != http.StatusNotFound {
		t.Fatal("unknown surrogate record served")
	}
	if code, _ := ts.do(t, "DELETE", "/v1/surrogates/"+key, nil); code != http.StatusNotFound {
		t.Fatal("unknown surrogate evicted")
	}
	if code, body := ts.do(t, "GET", "/v1/surrogates", nil); code != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("empty list: %d %s", code, body)
	}

	// Invalid configs are rejected before any job is queued.
	bad := tinySurrogateConfig()
	bad.FMaxHz = bad.FMinHz / 2
	if code, _ := ts.do(t, "POST", "/v1/surrogates", bad); code != http.StatusBadRequest {
		t.Fatal("inverted band accepted")
	}
	huge := tinySurrogateConfig()
	huge.Acc.GridPerSide = 4096
	if code, _ := ts.do(t, "POST", "/v1/surrogates", huge); code != http.StatusBadRequest {
		t.Fatal("grid limit not applied")
	}

	snap := ts.metrics.Snapshot()
	if c := snap.Counters[`surrogate.fallback{reason="unknown"}`]; c != 1 {
		t.Fatalf("unknown fallback counter = %d", c)
	}
	if c := snap.Counters[`surrogate.requests{outcome="miss"}`]; c < 1 {
		t.Fatalf("miss counter = %d", c)
	}
}

// unitSource is a surrogate.Source whose K is 1 at every node and
// frequency: it admits a model without running the solver.
type unitSource struct{ dim int }

func (u unitSource) StochasticDim() int { return u.dim }

func (u unitSource) CollocationValues(_ context.Context, freqs []float64, order int) ([][]float64, error) {
	nodes, err := sscm.Nodes(u.dim, order)
	if err != nil {
		return nil, err
	}
	vals := make([][]float64, len(freqs))
	for i := range vals {
		vals[i] = make([]float64, len(nodes))
		for j := range vals[i] {
			vals[i][j] = 1
		}
	}
	return vals, nil
}

// TestKRejectsOutOfDomainFrequency: GET /k checks f against the exact
// sweep's frequency domain (finite, > 0, ≤ 1e15 Hz) whatever the key's
// record says. On an admitted surrogate's key an out-of-domain f would
// otherwise fall back out of band to an exact sweep that cannot run;
// it is a 400 that journals and queues nothing.
func TestKRejectsOutOfDomainFrequency(t *testing.T) {
	m := telemetry.NewRegistry()
	cfg := durableConfig(t.TempDir(), m)
	ts := startServer(t, cfg)
	defer ts.shutdown(t)

	sc := tinySurrogateConfig()
	spec, err := sc.FitSpec()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ts.srv.surrogates.GetOrBuild(context.Background(), unitSource{dim: sc.Acc.StochasticDim}, spec)
	if err != nil || rec.Status != surrogate.StatusAdmitted {
		t.Fatalf("unit surrogate: %v (err %v)", rec, err)
	}
	key := spec.Key.String()
	if code, body := ts.do(t, "GET", kPath(key, 5e9), nil); code != http.StatusOK {
		t.Fatalf("in-band /k: %d %s", code, body)
	}
	for _, f := range []string{"1e300", "2e15", "Inf"} {
		if code, body := ts.do(t, "GET", "/k?key="+key+"&f="+f, nil); code != http.StatusBadRequest {
			t.Errorf("f=%s: %d %s, want 400", f, code, body)
		}
	}
	if n := m.Counter("queue.jobs_submitted").Value(); n != 0 {
		t.Fatalf("out-of-domain queries queued %d jobs", n)
	}
	recs, err := journal.ReadAll(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("out-of-domain queries journaled %+v", recs)
	}
}
