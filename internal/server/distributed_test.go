package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"roughsim/internal/cluster"
	"roughsim/internal/jobs"
	"roughsim/internal/telemetry"
)

// The distributed chaos drill: the test binary re-executes itself as a
// real coordinator daemon and two real worker daemons (three separate
// OS processes talking HTTP), then kills one worker with SIGKILL while
// it holds a column lease. The contract under test is the acceptance
// criterion of the distributed compute plane:
//
//   - the killed worker's lease expires and its column re-queues to the
//     surviving worker — the job completes under its original ID;
//   - the final result is byte-identical to a plain single-process
//     server's for the same sweep;
//   - the loss is visible in telemetry (lease.expired, lease.requeued).

// TestDistributedCoordinatorProcess is not a test: it is the
// coordinator daemon, run only when re-executed by the drill below.
func TestDistributedCoordinatorProcess(t *testing.T) {
	if os.Getenv("ROUGHSIMD_DIST_COORD") != "1" {
		t.Skip("helper process for TestDistributedKillWorkerMidSweep")
	}
	cfg := durableConfig(os.Getenv("ROUGHSIMD_DIST_DIR"), telemetry.NewRegistry())
	cfg.Workers = 2
	cfg.Cluster = ClusterConfig{Role: RoleCoordinator, LeaseTTL: 2 * time.Second}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("DIST_ADDR %s\n", l.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	select {
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("coordinator drain: %v", err)
		}
	case err := <-errc:
		t.Fatalf("coordinator serve: %v", err)
	}
}

// TestDistributedWorkerProcess is not a test: it is the worker daemon.
// ROUGHSIMD_DIST_DELAY stretches each solve so the parent can kill the
// process while it provably holds a lease (it prints CLAIMED first).
func TestDistributedWorkerProcess(t *testing.T) {
	id := os.Getenv("ROUGHSIMD_DIST_WORKER")
	if id == "" {
		t.Skip("helper process for TestDistributedKillWorkerMidSweep")
	}
	m := telemetry.NewRegistry()
	solve := cluster.NewColumns(m, nil).Solve
	if d, err := time.ParseDuration(os.Getenv("ROUGHSIMD_DIST_DELAY")); err == nil && d > 0 {
		inner := solve
		solve = func(ctx context.Context, task cluster.Task) ([]float64, error) {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return inner(ctx, task)
		}
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: os.Getenv("ROUGHSIMD_DIST_COORD_URL"),
		ID:          id,
		Poll:        20 * time.Millisecond,
		Grace:       10 * time.Second,
		Metrics:     m,
		Solve:       solve,
		OnClaim:     func(task cluster.Task) { fmt.Printf("CLAIMED node=%d\n", task.Node) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	w.Run(ctx)
}

// distProc is one spawned helper daemon plus the lines it prints.
type distProc struct {
	cmd   *exec.Cmd
	lines chan string
}

// spawnDist re-executes the test binary as helper `run` with env, and
// streams its stdout lines.
func spawnDist(t *testing.T, run string, env ...string) *distProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run="+run+"$", "-test.v")
	cmd.Env = append(os.Environ(), env...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &distProc{cmd: cmd, lines: make(chan string, 64)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default: // keep draining so the helper never blocks on a full pipe
			}
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return p
}

// waitLine blocks until a stdout line with the prefix arrives and
// returns the remainder.
func (p *distProc) waitLine(t *testing.T, prefix string, timeout time.Duration) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("helper exited before printing %q", prefix)
			}
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSpace(rest)
			}
		case <-deadline:
			t.Fatalf("no %q line within %v", prefix, timeout)
		}
	}
}

// sumCounterPrefix sums every series of one counter family across its
// labels (snapshot keys are `name` or `name{k="v"}`).
func sumCounterPrefix(counters map[string]int64, name string) int64 {
	var n int64
	for k, v := range counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return n
}

// distGauges scrapes /metrics gauges.
func distGauges(t *testing.T, base string) map[string]float64 {
	t.Helper()
	code, _, body := httpJSON(t, "GET", base+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	var snap struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Gauges
}

// TestDistributedKillWorkerMidSweep is the multi-process drill.
func TestDistributedKillWorkerMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons and runs solvers")
	}
	dir := t.TempDir()
	sweepBody := mustJSON(t, tinyConfig(5e9))

	coord := spawnDist(t, "TestDistributedCoordinatorProcess",
		"ROUGHSIMD_DIST_COORD=1", "ROUGHSIMD_DIST_DIR="+dir)
	base := "http://" + coord.waitLine(t, "DIST_ADDR ", 30*time.Second)

	// Worker B first, alone, with solves stretched far past the lease
	// TTL: it will claim the first column and sit on it until killed.
	victim := spawnDist(t, "TestDistributedWorkerProcess",
		"ROUGHSIMD_DIST_WORKER=w-victim",
		"ROUGHSIMD_DIST_COORD_URL="+base,
		"ROUGHSIMD_DIST_DELAY=10m")
	deadline := time.Now().Add(20 * time.Second)
	for distGauges(t, base)["cluster.workers"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never saw the victim worker")
		}
		time.Sleep(20 * time.Millisecond)
	}

	code, _, body := httpJSON(t, "POST", base+"/v1/sweeps", sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info jobs.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	// The victim provably holds a lease; the survivor joins, then the
	// victim dies mid-solve — kill -9, no drain, no Leave.
	victim.waitLine(t, "CLAIMED ", 30*time.Second)
	survivor := spawnDist(t, "TestDistributedWorkerProcess",
		"ROUGHSIMD_DIST_WORKER=w-survivor",
		"ROUGHSIMD_DIST_COORD_URL="+base)
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.cmd.Wait()

	// The job must still complete under its original ID: the victim's
	// lease expires (TTL 2s), its column re-queues, the survivor solves
	// it. Telemetry must show exactly that loss path.
	res := waitSucceeded(t, base, info.ID)
	counters := scrapeCounters(t, base)
	if got := sumCounterPrefix(counters, "lease.expired"); got < 1 {
		t.Errorf("lease.expired = %d, want ≥ 1 (the killed worker's lease)", got)
	}
	if got := counters["lease.requeued"]; got < 1 {
		t.Errorf("lease.requeued = %d, want ≥ 1", got)
	}
	if got := counters["lease.columns_remote"]; got < 1 {
		t.Errorf("lease.columns_remote = %d, want ≥ 1", got)
	}
	if got := counters[`lease.completes{worker="w-victim"}`]; got != 0 {
		t.Errorf("the killed worker completed %d columns, want 0", got)
	}

	// Drain the survivor and the coordinator gracefully.
	survivor.cmd.Process.Signal(syscall.SIGTERM)
	if err := survivor.cmd.Wait(); err != nil {
		t.Fatalf("survivor did not drain cleanly: %v", err)
	}
	coord.cmd.Process.Signal(syscall.SIGTERM)
	if err := coord.cmd.Wait(); err != nil {
		t.Fatalf("coordinator did not drain cleanly: %v", err)
	}

	// Byte-identical to a plain single-process run of the same sweep.
	ref := startServer(t, Config{Workers: 2, QueueDepth: 8, CacheSize: 64})
	defer ref.shutdown(t)
	want := ref.submitAndWait(t, tinyConfig(5e9))
	if !bytes.Equal(res, want) {
		t.Fatalf("distributed result differs from single-process:\ndistributed: %s\nreference:   %s", res, want)
	}
}
