// Package resilience is the execution-robustness layer shared by the
// solver and the stochastic drivers: a typed classification of the
// failure modes a long stochastic sweep meets in practice (iterative-
// solver non-convergence, singular assemblies, invalid input, NaN/Inf
// contamination, worker panics, cancellation), the retry vocabulary
// (Retryable, Backoff) the job queue uses, and a deterministic
// fault-injection hook so every recovery path can be exercised in tests
// without depending on numerically fragile inputs.
//
// Production surface-integral codes treat iterative breakdown as an
// expected event to recover from, not a fatal error; this package gives
// the rest of the repository one vocabulary for doing the same.
package resilience

import (
	"context"
	"errors"
	"fmt"

	"roughsim/internal/cmplxmat"
	"roughsim/internal/memo"
)

// Kind classifies a failure by its cause.
type Kind int

const (
	// KindUnknown is an unclassified failure.
	KindUnknown Kind = iota
	// KindConvergence: an iterative solver exhausted its budget or a
	// verified residual stayed above tolerance.
	KindConvergence
	// KindSingular: a factorization met a singular (to working
	// precision) matrix.
	KindSingular
	// KindInvalidInput: the caller supplied out-of-domain arguments.
	KindInvalidInput
	// KindNumerical: NaN or Inf contaminated a result.
	KindNumerical
	// KindPanic: a worker panicked and the panic was recovered into an
	// error.
	KindPanic
	// KindCanceled: the context was cancelled or its deadline expired.
	KindCanceled
)

// String returns the short accounting label of the kind.
func (k Kind) String() string {
	switch k {
	case KindConvergence:
		return "convergence"
	case KindSingular:
		return "singular"
	case KindInvalidInput:
		return "invalid-input"
	case KindNumerical:
		return "numerical"
	case KindPanic:
		return "panic"
	case KindCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// ParseKind is the inverse of Kind.String: it decodes the accounting
// label back into the kind, so a classification can cross a process
// boundary (journal records, the distributed tier's wire protocol).
// Unrecognized labels decode as KindUnknown.
func ParseKind(s string) Kind {
	switch s {
	case "convergence":
		return KindConvergence
	case "singular":
		return KindSingular
	case "invalid-input":
		return KindInvalidInput
	case "numerical":
		return KindNumerical
	case "panic":
		return KindPanic
	case "canceled":
		return KindCanceled
	default:
		return KindUnknown
	}
}

// Error is a classified failure. It wraps the underlying cause so that
// errors.Is / errors.As keep working through the classification.
type Error struct {
	Kind Kind
	Op   string // the operation that failed, e.g. "mom.solve"
	Err  error  // underlying cause (may be nil)
}

// New wraps err with a classification. err may be nil.
func New(kind Kind, op string, err error) *Error {
	return &Error{Kind: kind, Op: op, Err: err}
}

// Errorf builds a classified error from a format string.
func Errorf(kind Kind, op, format string, args ...any) *Error {
	return &Error{Kind: kind, Op: op, Err: fmt.Errorf(format, args...)}
}

func (e *Error) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("%s: %s", e.Op, e.Kind)
	}
	return fmt.Sprintf("%s: %s: %v", e.Op, e.Kind, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Classify walks the error chain and returns the failure kind:
// an embedded *Error's kind, a panic shared by memo waiters, context
// cancellation, or the known solver sentinels (cmplxmat.ErrNoConvergence,
// cmplxmat.ErrSingular).
func Classify(err error) Kind {
	if err == nil {
		return KindUnknown
	}
	var re *Error
	if errors.As(err, &re) {
		return re.Kind
	}
	var inj *InjectedFault
	if errors.As(err, &inj) {
		if inj.Panic {
			return KindPanic
		}
		return inj.Kind
	}
	var pe *memo.PanicError
	if errors.As(err, &pe) {
		return KindPanic
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return KindCanceled
	}
	if errors.Is(err, cmplxmat.ErrNoConvergence) {
		return KindConvergence
	}
	if errors.Is(err, cmplxmat.ErrSingular) {
		return KindSingular
	}
	return KindUnknown
}
