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

	"roughsim"
	"roughsim/internal/jobs"
	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
)

// The chaos harness: the test binary re-executes itself as a miniature
// roughsimd (TestChaosHelperProcess), the parent kills it — via the
// deterministic crash injector, indistinguishable from kill -9 — in the
// middle of a sweep, restarts it against the same journal and cache
// dirs, and asserts the contract of this whole subsystem:
//
//   - the job resumes under its original ID and completes;
//   - checkpointed collocation nodes are NOT re-solved (solver
//     invocation counters prove it);
//   - the resumed result is bitwise identical to an uninterrupted run.

// chaosSweep is the workload: one frequency, 2 stochastic dims → two
// collocation columns that need a solve (the ±ξ₂ pair; the center node
// is flat and the ±ξ₁ pair are rigid shifts, K ≡ 1). Checkpoint saves
// are serialized server-side, so "crash at save #2" leaves exactly one
// durable column no matter how the engine schedules its workers.
func chaosSweep() roughsim.SweepConfig {
	return tinyConfig(5e9)
}

// TestChaosHelperProcess is not a test: it is the daemon half of the
// chaos harness, run only when re-executed by TestChaosKillAndResume.
func TestChaosHelperProcess(t *testing.T) {
	if os.Getenv("ROUGHSIMD_CHAOS_HELPER") != "1" {
		t.Skip("helper process for TestChaosKillAndResume")
	}
	cfg := durableConfig(os.Getenv("ROUGHSIMD_CHAOS_DIR"), telemetry.NewRegistry())
	if spec := os.Getenv("ROUGHSIMD_CHAOS_SPEC"); spec != "" {
		fs, err := resilience.ParseCrashSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = resilience.NewInjector(fs)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The parent scrapes this line for the address.
	fmt.Printf("CHAOS_ADDR %s\n", l.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	select {
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("helper drain: %v", err)
		}
	case err := <-errc:
		t.Fatalf("helper serve: %v", err)
	}
}

// spawnHelper re-executes the test binary as the daemon and returns the
// command plus the address it listens on.
func spawnHelper(t *testing.T, dir, chaosSpec string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestChaosHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		"ROUGHSIMD_CHAOS_HELPER=1",
		"ROUGHSIMD_CHAOS_DIR="+dir,
		"ROUGHSIMD_CHAOS_SPEC="+chaosSpec,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	addrc := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "CHAOS_ADDR "); ok {
				addrc <- a
			}
			// Keep draining so the helper never blocks on a full pipe.
		}
	}()
	select {
	case addr := <-addrc:
		return cmd, addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("helper never reported its address")
		return nil, ""
	}
}

// testHTTPClient bounds every test request: http.DefaultClient has no
// timeout, so a wedged helper process would hang the whole test run
// instead of failing one request.
var testHTTPClient = &http.Client{Timeout: 60 * time.Second}

func httpJSON(t *testing.T, method, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testHTTPClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// waitSucceeded polls a job until terminal and returns its /result body.
func waitSucceeded(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _, body := httpJSON(t, "GET", base+"/v1/sweeps/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("status %s: %d %s", id, code, body)
		}
		var info jobs.Info
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Status.Terminal() {
			if info.Status != jobs.StatusSucceeded {
				t.Fatalf("job %s ended %s: %s", id, info.Status, info.Error)
			}
			code, _, res := httpJSON(t, "GET", base+"/v1/sweeps/"+id+"/result", nil)
			if code != http.StatusOK {
				t.Fatalf("result %s: %d %s", id, code, res)
			}
			return res
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal in time", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func scrapeCounters(t *testing.T, base string) map[string]int64 {
	t.Helper()
	code, _, body := httpJSON(t, "GET", base+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

func stopHelper(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("helper did not drain cleanly: %v", err)
	}
}

// TestChaosKillAndResume is the end-to-end crash drill.
func TestChaosKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons and runs solvers")
	}
	dir := t.TempDir()
	sweepBody := mustJSON(t, chaosSweep())

	// Phase 1: daemon armed to die at the 2nd checkpoint save.
	cmd1, addr1 := spawnHelper(t, dir, "sweep.checkpoint:2")
	base1 := "http://" + addr1
	code, _, body := httpJSON(t, "POST", base1+"/v1/sweeps", sweepBody)
	if code != http.StatusAccepted {
		cmd1.Process.Kill()
		t.Fatalf("submit: %d %s", code, body)
	}
	var info jobs.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	err := cmd1.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 137 {
		t.Fatalf("helper exit = %v, want chaos crash status 137", err)
	}

	// Phase 2: restart against the same journal + cache. The job must
	// resume under its original ID, skip the one durable column, and
	// re-solve only the other one.
	cmd2, addr2 := spawnHelper(t, dir, "")
	base2 := "http://" + addr2
	res := waitSucceeded(t, base2, info.ID)
	counters := scrapeCounters(t, base2)
	if got := counters["journal.jobs_replayed"]; got != 1 {
		t.Errorf("jobs_replayed = %d, want 1", got)
	}
	if got := counters["sweep.checkpoint_hits"]; got != 1 {
		t.Errorf("checkpoint_hits = %d, want 1 (one column survived the crash)", got)
	}
	if got := counters["sweep.node_solves"]; got != 1 {
		t.Errorf("node_solves = %d, want 1 (checkpointed column must not re-solve)", got)
	}
	stopHelper(t, cmd2)

	// Phase 3: uninterrupted reference run in a pristine environment;
	// the resumed result must match it byte for byte.
	refDir := t.TempDir()
	cmd3, addr3 := spawnHelper(t, refDir, "")
	base3 := "http://" + addr3
	code, _, body = httpJSON(t, "POST", base3+"/v1/sweeps", sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: %d %s", code, body)
	}
	var refInfo jobs.Info
	if err := json.Unmarshal(body, &refInfo); err != nil {
		t.Fatal(err)
	}
	ref := waitSucceeded(t, base3, refInfo.ID)
	stopHelper(t, cmd3)
	if !bytes.Equal(res, ref) {
		t.Fatalf("resumed result differs from uninterrupted run:\nresumed:  %s\nreference: %s", res, ref)
	}
}
