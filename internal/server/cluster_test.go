package server

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"roughsim"
	"roughsim/internal/cluster"
	"roughsim/internal/telemetry"
)

// startWorker runs an in-process cluster worker against the test
// coordinator and blocks until the coordinator has seen it (the
// cluster.workers gauge), so subsequent submissions dispatch remotely
// deterministically.
func startWorker(t *testing.T, ts *testServer, id string) {
	t.Helper()
	wm := telemetry.NewRegistry()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: ts.base,
		ID:          id,
		Poll:        10 * time.Millisecond,
		Grace:       5 * time.Second,
		Metrics:     wm,
		Solve:       cluster.NewColumns(wm, nil).Solve,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("worker did not drain")
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for ts.metrics.Gauge("cluster.workers").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never saw the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterInProcessWorkerBitwise is the in-process acceptance test
// of the compute plane: a coordinator with one live worker must receive
// every column remotely (zero local node solves) and the result must be
// byte-identical to a plain single-process server's, for a one-point
// sweep and for a broadband one whose columns cover the anchors.
func TestClusterInProcessWorkerBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	band := make([]float64, 16) // the campaign-g8 benchmark's band
	for i := range band {
		band[i] = 4e9 + 2e9*float64(i)/15
	}
	for _, tc := range []struct {
		name      string
		cfg       roughsim.SweepConfig
		broadband bool
	}{
		{"narrow", tinyConfig(5e9), false},
		{"broadband", tinyConfig(band...), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: plain single-process server.
			ref := startServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 64})
			want := ref.submitAndWait(t, tc.cfg)
			ref.shutdown(t)

			ts := startServer(t, Config{
				Workers: 2, QueueDepth: 8, CacheSize: 64,
				Cluster: ClusterConfig{Role: RoleCoordinator, LeaseTTL: 5 * time.Second},
			})
			defer ts.shutdown(t)
			startWorker(t, ts, "w-inproc")

			got := ts.submitAndWait(t, tc.cfg)
			if !bytes.Equal(want, got) {
				t.Fatalf("distributed result differs from single-process:\n%s\nvs\n%s", got, want)
			}
			if interp := ts.metrics.Counter("sweep.interp_freqs").Value() > 0; interp != tc.broadband {
				t.Fatalf("sweep took the broadband path: %v, want %v", interp, tc.broadband)
			}
			if solves := ts.metrics.Counter("sweep.node_solves").Value(); solves != 0 {
				t.Fatalf("coordinator solved %d nodes locally; all columns should be remote", solves)
			}
			if hits := ts.metrics.Counter("sweep.checkpoint_hits").Value(); hits == 0 {
				t.Fatal("engine never loaded the remote columns as checkpoint hits")
			}
			remote := ts.metrics.Counter("lease.columns_remote").Value()
			if remote == 0 {
				t.Fatal("no column was accounted as remotely computed")
			}
			if completes := ts.metrics.CounterL("lease.completes", telemetry.L("worker", "w-inproc")).Value(); completes != remote {
				t.Fatalf("lease.completes{worker=w-inproc} = %d, want %d", completes, remote)
			}
		})
	}
}

// Stale lease operations must answer 409 and claims with no pending
// work 204 — the wire contract behind idempotent discard.
func TestClusterEndpointStatuses(t *testing.T) {
	ts := startServer(t, Config{
		Workers: 1, QueueDepth: 4, CacheSize: 16,
		Cluster: ClusterConfig{Role: RoleCoordinator},
	})
	defer ts.shutdown(t)

	code, _ := ts.do(t, "POST", cluster.ClaimPath, cluster.ClaimRequest{Worker: "w"})
	if code != http.StatusNoContent {
		t.Fatalf("idle claim: %d, want 204", code)
	}
	code, _ = ts.do(t, "POST", cluster.RenewPath, cluster.RenewRequest{TaskID: "nope", Token: "t"})
	if code != http.StatusConflict {
		t.Fatalf("stale renew: %d, want 409", code)
	}
	code, _ = ts.do(t, "POST", cluster.CompletePath, cluster.CompleteRequest{
		TaskID: "nope", Token: "t", Worker: "w", Column: []float64{1},
	})
	if code != http.StatusConflict {
		t.Fatalf("stale complete: %d, want 409", code)
	}
	if stale := ts.metrics.Counter("lease.stale_results").Value(); stale != 1 {
		t.Fatalf("lease.stale_results = %d, want 1", stale)
	}
	code, _ = ts.do(t, "POST", cluster.LeavePath, cluster.LeaveRequest{Worker: "w"})
	if code != http.StatusNoContent {
		t.Fatalf("leave: %d, want 204", code)
	}
	code, _ = ts.do(t, "POST", cluster.ClaimPath, cluster.ClaimRequest{})
	if code != http.StatusBadRequest {
		t.Fatalf("anonymous claim: %d, want 400", code)
	}
}

// A plain single-process server must not expose the cluster endpoints.
func TestClusterEndpointsAbsentWhenSingle(t *testing.T) {
	ts := startServer(t, Config{Workers: 1, QueueDepth: 4, CacheSize: 16})
	defer ts.shutdown(t)
	code, _ := ts.do(t, "POST", cluster.ClaimPath, cluster.ClaimRequest{Worker: "w"})
	if code != http.StatusNotFound {
		t.Fatalf("claim on single-process server: %d, want 404", code)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := New(Config{Cluster: ClusterConfig{Role: "worker"}}); err == nil {
		t.Fatal("server.New accepted role worker (workers run no HTTP server)")
	}
	if _, err := New(Config{Cluster: ClusterConfig{Peers: []string{"http://a", "http://b"}}}); err == nil {
		t.Fatal("peers without SelfURL accepted")
	}
}

// Submissions and /k queries whose content address another shard owns
// must 307 there with the path preserved; owned keys serve locally.
func TestShardRouting(t *testing.T) {
	self, other := "http://self.invalid", "http://other.invalid"
	ring := cluster.NewRing([]string{self, other})

	// Find one sweep config owned by each shard; Key() applies the same
	// defaults handleSubmit does, so test and server agree on ownership.
	var mine, theirs *roughsim.SweepConfig
	for f := 1; f < 200 && (mine == nil || theirs == nil); f++ {
		cfg := tinyConfig(float64(f) * 1e9)
		switch ring.Owner(cfg.Key().String()) {
		case self:
			if mine == nil {
				mine = &cfg
			}
		case other:
			if theirs == nil {
				theirs = &cfg
			}
		}
	}
	if mine == nil || theirs == nil {
		t.Fatal("could not find configs on both shards")
	}

	ts := startServer(t, Config{
		Workers: 1, QueueDepth: 4, CacheSize: 16,
		Cluster: ClusterConfig{SelfURL: self, Peers: []string{self, other}},
	})
	defer ts.shutdown(t)
	// Do not follow redirects: the other shard does not exist.
	ts.client.CheckRedirect = func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}

	req, err := http.NewRequest(http.MethodPost, ts.base+"/v1/sweeps", bytes.NewReader(mustJSON(t, theirs)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("foreign submit: %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, other+"/v1/sweeps") {
		t.Fatalf("redirect location %q, want prefix %s/v1/sweeps", loc, other)
	}

	// A key this shard owns is served locally (202, job accepted).
	if code, body := ts.do(t, "POST", "/v1/sweeps", mine); code != http.StatusAccepted {
		t.Fatalf("owned submit: %d %s, want 202", code, body)
	}

	// /k routes by the surrogate key before any registry lookup.
	foreignKey := theirs.Key().String()
	if code, _ := ts.do(t, "GET", "/k?key="+foreignKey+"&f=5e9", nil); code != http.StatusTemporaryRedirect {
		t.Fatalf("foreign /k: %d, want 307", code)
	}
	if routed := ts.metrics.CounterL("cluster.routed", telemetry.L("to", other)).Value(); routed != 2 {
		t.Fatalf("cluster.routed{to=%s} = %d, want 2", other, routed)
	}
}
