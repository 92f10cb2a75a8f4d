package resilience

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// FaultSpec selects a deterministic subset of (op, key) pairs to fail.
// A spec matches an op exactly; within an op it matches the explicit
// Keys plus a pseudo-random (but seed-free, scheduling-independent)
// Fraction of all keys, chosen by hashing (op, key).
type FaultSpec struct {
	Op       string
	Fraction float64  // fraction of keys to fail in [0, 1]
	Keys     []uint64 // explicit keys to fail
	Kind     Kind     // classification of the injected failure
	Panic    bool     // deliver the fault as a panic instead of an error
	// Exit escalates the fault to process level: a match terminates the
	// process immediately with the SIGKILL-like status 137 (no deferred
	// functions, no flushes), simulating a crash/OOM-kill at exactly
	// this point. Delivered only through Injector.Crash — error-path
	// call sites never exit.
	Exit bool
}

func (s *FaultSpec) matches(key uint64) bool {
	for _, k := range s.Keys {
		if k == key {
			return true
		}
	}
	return s.Fraction > 0 && faultHash(s.Op, key) < s.Fraction
}

// Injector deterministically injects failures for testing the recovery
// paths. The zero/nil injector injects nothing, so production call sites
// can consult it unconditionally.
type Injector struct {
	specs []FaultSpec
}

// NewInjector builds an injector from fault specs. Specs are consulted
// in order; the first match for an (op, key) pair wins.
func NewInjector(specs ...FaultSpec) *Injector {
	return &Injector{specs: specs}
}

// InjectedFault is the failure an Injector delivers. It implements
// error so it can flow through ordinary error plumbing.
type InjectedFault struct {
	Op    string
	Key   uint64
	Kind  Kind
	Panic bool
	Exit  bool
}

func (f *InjectedFault) Error() string {
	return fmt.Sprintf("injected %s fault at %s key %d", f.Kind, f.Op, f.Key)
}

// Is matches a fault with the same fields, so errors.Is can name the
// fault a test expects without holding the delivered pointer.
func (f *InjectedFault) Is(target error) bool {
	t, ok := target.(*InjectedFault)
	return ok && *t == *f
}

// Fault returns the fault to deliver for (op, key), or nil. Safe on a
// nil receiver.
func (in *Injector) Fault(op string, key uint64) *InjectedFault {
	if in == nil {
		return nil
	}
	for i := range in.specs {
		s := &in.specs[i]
		if s.Op == op && s.matches(key) {
			return &InjectedFault{Op: op, Key: key, Kind: s.Kind, Panic: s.Panic, Exit: s.Exit}
		}
	}
	return nil
}

// Matches reports whether Fault would deliver for (op, key) — used by
// tests to compute the expected failure accounting independently of
// scheduling.
func (in *Injector) Matches(op string, key uint64) bool {
	return in.Fault(op, key) != nil
}

// osExit is swapped out by tests; production always terminates.
var osExit = os.Exit

// crashStatus mimics the wait status of a SIGKILLed process, so a
// chaos-induced self-crash is indistinguishable from kill -9 to the
// supervisor.
const crashStatus = 137

// Crash consults the injector at a process-level chaos point: when a
// spec with Exit set matches (op, key), the process terminates
// immediately — no deferred functions, no fsync, no graceful drain —
// exactly like a kill -9 at that instruction. Call sites thread a
// monotone occurrence counter as key ("crash at the n-th checkpoint
// write"), which keeps process-level chaos as deterministic as the
// error-level faults. Nil-safe and free when no spec matches, so
// durability-critical paths can consult it unconditionally.
func (in *Injector) Crash(op string, key uint64) {
	if f := in.Fault(op, key); f != nil && f.Exit {
		osExit(crashStatus)
	}
}

// ParseCrashSpec parses the CLI chaos vocabulary "op:n" — crash the
// process at the n-th consultation of the named chaos point (1-based)
// — into a process-exit FaultSpec. Used by roughsimd's -chaos flag and
// the chaos harness scripts.
func ParseCrashSpec(s string) (FaultSpec, error) {
	op, nth, ok := strings.Cut(s, ":")
	if !ok || op == "" {
		return FaultSpec{}, fmt.Errorf("resilience: chaos spec %q: want \"op:n\"", s)
	}
	n, err := strconv.ParseUint(nth, 10, 64)
	if err != nil || n == 0 {
		return FaultSpec{}, fmt.Errorf("resilience: chaos spec %q: occurrence must be a positive integer", s)
	}
	return FaultSpec{Op: op, Keys: []uint64{n}, Exit: true, Kind: KindPanic}, nil
}

// faultHash maps (op, key) to a uniform [0, 1) value: FNV-1a over the op
// mixed with the key through a splitmix64 finalizer. Deterministic
// across platforms and independent of goroutine scheduling.
func faultHash(op string, key uint64) float64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(op); i++ {
		h ^= uint64(op[i])
		h *= 1099511628211
	}
	h ^= key * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}
