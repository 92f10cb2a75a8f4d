package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"roughsim/internal/surrogate"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// traceStages fetches /debug/trace/{id} and indexes its stage rollup.
func (ts *testServer) traceStages(t *testing.T, id string) (*trace.Summary, map[string]trace.StageTotal) {
	t.Helper()
	code, body := ts.do(t, "GET", "/debug/trace/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("trace %s: %d %s", id, code, body)
	}
	var sum trace.Summary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	stages := map[string]trace.StageTotal{}
	for _, st := range sum.Stages {
		stages[st.Name] = st
	}
	return &sum, stages
}

// metricsSnapshot fetches /metrics as JSON.
func (ts *testServer) metricsSnapshot(t *testing.T) telemetry.Snapshot {
	t.Helper()
	code, body := ts.do(t, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSpansAreTheOneClock runs one small sweep on a fresh server: every
// histogram the span table maps must hold exactly the spans of the
// job's trace — the same count, and the same total within 1 ns.
func TestSpansAreTheOneClock(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	ts := startServer(t, Config{Workers: 1})
	defer ts.shutdown(t)
	code, body := ts.do(t, "POST", "/v1/sweeps", tinyConfig(5e9, 8e9))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st statusPayload
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	ts.waitResult(t, st.ID)
	_, stages := ts.traceStages(t, st.ID)
	snap := ts.metricsSnapshot(t)

	for span, names := range spanHistograms {
		want := stages[span]
		for _, name := range names {
			key := name
			if name == stageSeconds {
				key = fmt.Sprintf("%s{stage=%q}", name, span)
			}
			h := snap.Histograms[key]
			if h.Count != want.Count || math.Abs(h.Sum-want.Seconds) > 1e-9 {
				t.Errorf("%s: histogram count %d sum %.12gs, trace %s count %d sum %.12gs",
					key, h.Count, h.Sum, span, want.Count, want.Seconds)
			}
		}
	}
	for _, span := range []string{"sweep.synthesize", "sweep.exact", "flat.reference", "mom.solve", "tables.build"} {
		if stages[span].Count == 0 {
			t.Errorf("the sweep ran no %s span: %v", span, stages)
		}
	}
}

// TestSurrogateBuildTimedOnce: a surrogate build's trace holds exactly
// one surrogate.model_fit span, and surrogate.fit_seconds counts one
// observation per build. The sweep engine's nested per-frequency
// projection spans (surrogate.fit) feed only the stage histogram.
func TestSurrogateBuildTimedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("fits through the exact solver")
	}
	ts := startServer(t, Config{Workers: 1})
	defer ts.shutdown(t)
	cfg := tinySurrogateConfig()
	key := cfg.Key().String()

	for build := int64(1); build <= 2; build++ {
		code, body := ts.do(t, "POST", "/v1/surrogates", cfg)
		if code != http.StatusAccepted {
			t.Fatalf("build %d submit: %d %s", build, code, body)
		}
		var acc acceptedPayload
		if err := json.Unmarshal(body, &acc); err != nil {
			t.Fatal(err)
		}
		ts.waitResult(t, acc.Job.ID)
		if rec := ts.awaitAdmission(t, key); rec.Status != surrogate.StatusAdmitted {
			t.Fatalf("build %d status %s: %s", build, rec.Status, rec.Reason)
		}

		sum, stages := ts.traceStages(t, acc.Job.ID)
		inTree := map[string]bool{}
		spanNames(sum.Spans, inTree)
		if stages["surrogate.model_fit"].Count != 1 || !inTree["surrogate.model_fit"] {
			t.Fatalf("build %d: model_fit spans %+v, want exactly 1", build, stages["surrogate.model_fit"])
		}
		snap := ts.metricsSnapshot(t)
		if got := snap.Histograms["surrogate.fit_seconds"].Count; got != build {
			t.Fatalf("after build %d: surrogate.fit_seconds count %d", build, got)
		}
		if got := snap.Histograms["surrogate.validate_seconds"].Count; got != build {
			t.Fatalf("after build %d: surrogate.validate_seconds count %d", build, got)
		}
		if stages["surrogate.fit"].Count == 0 {
			t.Fatalf("build %d: no nested projection span: %v", build, stages)
		}

		if code, body := ts.do(t, "DELETE", "/v1/surrogates/"+key, nil); code != http.StatusOK {
			t.Fatalf("evict: %d %s", code, body)
		}
	}
}
