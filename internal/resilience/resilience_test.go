package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/memo"
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
		{fmt.Errorf("wrap: %w", &memo.PanicError{Value: "boom"}), KindPanic},
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
