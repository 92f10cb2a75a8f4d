package resilience

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestBackoffZeroValueIsImmediate(t *testing.T) {
	var b Backoff
	if d := b.Delay(1, 42); d != 0 {
		t.Fatalf("zero backoff delays %v", d)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 60 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 60, 60} // ms, factor 2, capped
	for i, w := range want {
		if d := b.Delay(i+1, 7); d != w*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Jitter: 0.5}
	seen := map[time.Duration]bool{}
	for attempt := 1; attempt <= 4; attempt++ {
		for key := uint64(0); key < 8; key++ {
			d1 := b.Delay(attempt, key)
			d2 := b.Delay(attempt, key)
			if d1 != d2 {
				t.Fatalf("jitter not deterministic: %v vs %v", d1, d2)
			}
			nominal := float64(100*time.Millisecond) * pow2(attempt-1)
			lo, hi := time.Duration(0.5*nominal), time.Duration(1.5*nominal)
			if d1 < lo || d1 > hi {
				t.Fatalf("delay(%d, %d) = %v outside [%v, %v]", attempt, key, d1, lo, hi)
			}
			seen[d1] = true
		}
	}
	if len(seen) < 8 {
		t.Fatalf("jitter produced only %d distinct delays over 32 (attempt, key) pairs", len(seen))
	}
}

func pow2(n int) float64 {
	f := 1.0
	for i := 0; i < n; i++ {
		f *= 2
	}
	return f
}

// Sleep waits out d when ctx outlives it, and returns ctx's error as
// soon as ctx ends first.
func TestSleepElapsesOrEndsWithContext(t *testing.T) {
	start := time.Now()
	if err := Sleep(context.Background(), 20*time.Millisecond); err != nil {
		t.Fatalf("uninterrupted sleep: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("sleep returned after %v, want ≥ 20ms", elapsed)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start = time.Now()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sleep returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v to end the sleep", elapsed)
	}
}

// A wait cut short must stop its timer. An hour-long timer left running
// per canceled wait stays live, memory and all, until it fires, so a
// long retry or backpressure episode would pile them up. (That holds
// under the timer semantics of go.mod's go 1.22 line; from go 1.23 the
// collector reclaims unreferenced timers and this test cannot fail.)
func TestSleepLeavesNoTimerBehind(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const waits = 10000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range waits {
		if Sleep(ctx, time.Hour) == nil {
			t.Fatal("sleep outlived its canceled context")
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// A live timer holds a few hundred bytes, so 10000 of them hold
	// megabytes; stopped ones hold nothing.
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > waits*64 {
		t.Fatalf("heap grew %d bytes across %d canceled sleeps; timers are not stopped", grown, waits)
	}
}

func TestPermanentComplementOfRetryable(t *testing.T) {
	if !Retryable(KindConvergence) || !Retryable(KindNumerical) {
		t.Fatal("convergence and numerical failures must be retryable")
	}
	for _, k := range []Kind{KindUnknown, KindSingular, KindInvalidInput, KindPanic, KindCanceled} {
		if Retryable(k) {
			t.Fatalf("kind %v must be permanent", k)
		}
	}
}

// The process-level chaos point fires only for Exit specs and is
// deterministic in its occurrence key.
func TestInjectorCrash(t *testing.T) {
	exits := []int{}
	realExit := osExit
	osExit = func(code int) { exits = append(exits, code) }
	defer func() { osExit = realExit }()

	spec, err := ParseCrashSpec("sweep.checkpoint:2")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(spec)
	inj.Crash("sweep.checkpoint", 1)
	inj.Crash("other.op", 2)
	if len(exits) != 0 {
		t.Fatalf("crash fired early: %v", exits)
	}
	inj.Crash("sweep.checkpoint", 2)
	if len(exits) != 1 || exits[0] != crashStatus {
		t.Fatalf("exits = %v, want one exit with status %d", exits, crashStatus)
	}

	// Error-kind specs must never exit the process.
	errInj := NewInjector(FaultSpec{Op: "x", Fraction: 1, Kind: KindConvergence})
	errInj.Crash("x", 1)
	if len(exits) != 1 {
		t.Fatal("non-Exit spec crashed the process")
	}
	// Nil injector: free no-op.
	var nilInj *Injector
	nilInj.Crash("x", 1)
}

func TestParseCrashSpecRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "op", "op:", ":3", "op:0", "op:-1", "op:x"} {
		if _, err := ParseCrashSpec(s); err == nil {
			t.Fatalf("ParseCrashSpec(%q) accepted", s)
		}
	}
}
