package resilience

import (
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
