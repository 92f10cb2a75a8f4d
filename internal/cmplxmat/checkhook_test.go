package cmplxmat

import (
	"errors"
	"testing"
)

// TestIterCheckAbortsSolvers exercises the IterOpts.Check hook GMRES
// consults: a failing check must abort the solve with the check's
// error, and a passing one must leave convergence untouched.
func TestIterCheckAbortsSolvers(t *testing.T) {
	n := 8
	mv := func(y, x []complex128) {
		for i := range y {
			y[i] = complex(2+float64(i), 0) * x[i]
		}
	}
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(1, 1)
	}
	sentinel := errors.New("drain requested")
	fail := func() error { return sentinel }

	if _, _, err := GMRES(n, mv, b, nil, IterOpts{Tol: 1e-12, Check: fail}); !errors.Is(err, sentinel) {
		t.Fatalf("GMRES with failing check returned %v, want sentinel", err)
	}

	pass := func() error { return nil }
	if _, rr, err := GMRES(n, mv, b, nil, IterOpts{Tol: 1e-12, Check: pass}); err != nil || rr > 1e-12 {
		t.Fatalf("GMRES with passing check: err=%v relres=%g", err, rr)
	}
}
