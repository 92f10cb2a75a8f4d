package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"roughsim/internal/cmplxmat"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Kind
	}{
		{nil, KindUnknown},
		{errors.New("plain"), KindUnknown},
		{cmplxmat.ErrNoConvergence, KindConvergence},
		{fmt.Errorf("stage: %w", cmplxmat.ErrNoConvergence), KindConvergence},
		{cmplxmat.ErrSingular, KindSingular},
		{context.Canceled, KindCanceled},
		{context.DeadlineExceeded, KindCanceled},
		{New(KindNumerical, "op", errors.New("NaN")), KindNumerical},
		{fmt.Errorf("wrap: %w", Errorf(KindInvalidInput, "op", "bad L")), KindInvalidInput},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestErrorUnwrapChain(t *testing.T) {
	base := errors.New("base")
	e := New(KindConvergence, "mom.solve", fmt.Errorf("stage gmres: %w", base))
	if !errors.Is(e, base) {
		t.Fatal("errors.Is through resilience.Error failed")
	}
	var re *Error
	if !errors.As(fmt.Errorf("outer: %w", e), &re) || re.Kind != KindConvergence || re.Op != "mom.solve" {
		t.Fatalf("errors.As failed: %+v", re)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindUnknown:      "unknown",
		KindConvergence:  "convergence",
		KindSingular:     "singular",
		KindInvalidInput: "invalid-input",
		KindNumerical:    "numerical",
		KindPanic:        "panic",
		KindCanceled:     "canceled",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var inj *Injector
	if f := inj.Fault("any", 3); f != nil {
		t.Fatal("nil injector must inject nothing")
	}
	if inj.Matches("any", 3) {
		t.Fatal("nil injector must match nothing")
	}
}

func TestInjectorKeysFirstMatchWins(t *testing.T) {
	inj := NewInjector(
		FaultSpec{Op: "op", Keys: []uint64{5}, Panic: true},
		FaultSpec{Op: "op", Fraction: 1, Kind: KindConvergence},
	)
	f := inj.Fault("op", 5)
	if f == nil || !f.Panic {
		t.Fatalf("key-listed spec must win over the blanket fraction: %+v", f)
	}
	f = inj.Fault("op", 6)
	if f == nil || f.Panic || f.Kind != KindConvergence {
		t.Fatalf("non-listed key must fall through to the fraction spec: %+v", f)
	}
	if inj.Fault("other", 5) != nil {
		t.Fatal("op mismatch must not inject")
	}
}

func TestInjectorFractionDeterministicAndUniform(t *testing.T) {
	inj := NewInjector(FaultSpec{Op: "mc.sample", Fraction: 0.1, Kind: KindConvergence})
	const n = 10000
	hits := 0
	for i := uint64(0); i < n; i++ {
		a := inj.Fault("mc.sample", i)
		b := inj.Fault("mc.sample", i)
		if (a == nil) != (b == nil) {
			t.Fatalf("injection not deterministic at key %d", i)
		}
		if a != nil {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.1) > 0.02 {
		t.Fatalf("hit fraction %g, want ≈ 0.1", frac)
	}
}

func TestInjectedFaultIsError(t *testing.T) {
	inj := NewInjector(FaultSpec{Op: "op", Fraction: 1, Kind: KindSingular})
	f := inj.Fault("op", 0)
	if f == nil {
		t.Fatal("expected fault")
	}
	var err error = f
	if Classify(err) != KindSingular {
		t.Fatalf("injected fault classified as %v", Classify(err))
	}
}

func TestPolicyExecuteFallbackOrder(t *testing.T) {
	var ran []string
	stages := []Stage{
		{Name: "a", Run: func(ctx context.Context) error { ran = append(ran, "a"); return cmplxmat.ErrNoConvergence }},
		{Name: "b", Run: func(ctx context.Context) error { ran = append(ran, "b"); return cmplxmat.ErrNoConvergence }},
		{Name: "c", Run: func(ctx context.Context) error { ran = append(ran, "c"); return nil }},
		{Name: "d", Run: func(ctx context.Context) error { t.Fatal("stage after winner must not run"); return nil }},
	}
	rep, err := Execute(context.Background(), "test", nil, 0, stages)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Winner != "c" || rep.Failed() != 2 {
		t.Fatalf("report: %+v", rep)
	}
	if len(ran) != 3 || ran[0] != "a" || ran[1] != "b" || ran[2] != "c" {
		t.Fatalf("stage order: %v", ran)
	}
	if len(rep.Attempts) != 3 || rep.Attempts[0].Kind != KindConvergence || rep.Attempts[2].Err != nil {
		t.Fatalf("attempts: %+v", rep.Attempts)
	}
}

func TestPolicyExecuteAllFail(t *testing.T) {
	stages := []Stage{
		{Name: "a", Run: func(ctx context.Context) error { return cmplxmat.ErrNoConvergence }},
		{Name: "b", Run: func(ctx context.Context) error { return cmplxmat.ErrSingular }},
	}
	rep, err := Execute(context.Background(), "test", nil, 0, stages)
	if err == nil || rep.Winner != "" {
		t.Fatal("expected failure when every stage fails")
	}
	if Classify(err) != KindSingular {
		t.Fatalf("final error should classify as the last failure: %v", err)
	}
	if !errors.Is(err, cmplxmat.ErrSingular) {
		t.Fatal("final error must wrap the last stage error")
	}
	if len(rep.Attempts) != 2 {
		t.Fatalf("attempts: %+v", rep.Attempts)
	}
}

func TestPolicyExecuteInjection(t *testing.T) {
	inj := NewInjector(FaultSpec{Op: "a", Fraction: 1, Kind: KindConvergence})
	calls := 0
	stages := []Stage{
		{Name: "a", Run: func(ctx context.Context) error { calls++; return nil }},
		{Name: "b", Run: func(ctx context.Context) error { return nil }},
	}
	rep, err := Execute(context.Background(), "test", inj, 42, stages)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatal("injected stage must fail without running")
	}
	if rep.Winner != "b" || !rep.Attempts[0].Injected {
		t.Fatalf("report: %+v", rep)
	}
}

func TestPolicyExecuteCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stages := []Stage{
		{Name: "a", Run: func(ctx context.Context) error { t.Fatal("must not run"); return nil }},
	}
	_, err := Execute(ctx, "test", nil, 0, stages)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}
