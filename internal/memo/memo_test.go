package memo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

type result struct {
	v   int
	o   Outcome
	err error
}

// startBlocked runs Do for key in a goroutine whose computation blocks
// until release is closed, and returns once the computation has begun.
func startBlocked(c *LRU[string, int], key string, release <-chan struct{}, fn func() (int, error)) <-chan result {
	started := make(chan struct{})
	out := make(chan result, 1)
	go func() {
		v, o, err := c.Do(context.Background(), key, func() (int, error) {
			close(started)
			<-release
			return fn()
		})
		out <- result{v, o, err}
	}()
	<-started
	return out
}

// waitFor polls until cond holds: the event it waits on (a caller
// joining a computation) has no channel of its own.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDoOutcomes(t *testing.T) {
	var hits, shared, computed atomic.Int64
	c := NewLRU[string, int](4, Hooks{
		Hit:      func() { hits.Add(1) },
		Shared:   func() { shared.Add(1) },
		Computed: func() { computed.Add(1) },
	})
	release := make(chan struct{})
	leader := startBlocked(c, "k", release, func() (int, error) { return 7, nil })
	joiner := make(chan result, 1)
	go func() {
		v, o, err := c.Do(context.Background(), "k", func() (int, error) { return -1, nil })
		joiner <- result{v, o, err}
	}()
	waitFor(t, func() bool { return shared.Load() == 1 })
	close(release)
	lr, jr := <-leader, <-joiner
	v, o, err := c.Do(context.Background(), "k", func() (int, error) { return -1, nil })

	for _, tc := range []struct {
		name string
		got  result
		want Outcome
	}{
		{"leader", lr, Computed},
		{"joiner", jr, Shared},
		{"later", result{v, o, err}, Hit},
	} {
		if tc.got != (result{7, tc.want, nil}) {
			t.Errorf("%s: got %+v, want value 7 with outcome %d", tc.name, tc.got, tc.want)
		}
	}
	if h, s, n := hits.Load(), shared.Load(), computed.Load(); h != 1 || s != 1 || n != 1 {
		t.Fatalf("hooks hit/shared/computed = %d/%d/%d, want 1/1/1", h, s, n)
	}
}

func TestLRURecencyAndEviction(t *testing.T) {
	var evicted, size int
	c := NewLRU[string, string](2, Hooks{Resized: func(e, n int) { evicted += e; size = n }})
	for _, step := range []struct {
		op, key string
		want    []string // Values after the step, most recent first
		evicted int      // cumulative
	}{
		{"add", "a", []string{"a"}, 0},
		{"add", "b", []string{"b", "a"}, 0},
		{"get", "a", []string{"a", "b"}, 0},
		{"add", "c", []string{"c", "a"}, 1},
		{"do", "b", []string{"b", "c"}, 2},
		{"do", "c", []string{"c", "b"}, 2},
		{"remove", "b", []string{"c"}, 2},
	} {
		switch step.op {
		case "add":
			c.Add(step.key, step.key)
		case "get":
			if v, ok := c.Get(step.key); !ok || v != step.key {
				t.Fatalf("get %s: %q, %v", step.key, v, ok)
			}
		case "do":
			c.Do(context.Background(), step.key, func() (string, error) { return step.key, nil })
		case "remove":
			if !c.Remove(step.key) {
				t.Fatalf("remove %s found nothing", step.key)
			}
		}
		if got := c.Values(); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after %s %s: values %v, want %v", step.op, step.key, got, step.want)
		}
		if evicted != step.evicted || size != len(step.want) || c.Len() != len(step.want) {
			t.Fatalf("after %s %s: evicted %d size %d len %d, want %d and %d",
				step.op, step.key, evicted, size, c.Len(), step.evicted, len(step.want))
		}
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted key still cached")
	}
}

// TestNotCached: a failed computation, and any computation of a
// capacity-0 group, leaves nothing behind, so the next caller computes.
func TestNotCached(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name     string
		capacity int
		err      error
	}{
		{"error", 4, boom},
		{"group", 0, nil},
	} {
		c := NewLRU[string, int](tc.capacity, Hooks{})
		for i := 0; i < 2; i++ {
			_, o, err := c.Do(context.Background(), "k", func() (int, error) { return 1, tc.err })
			if o != Computed || !errors.Is(err, tc.err) {
				t.Fatalf("%s call %d: outcome %d err %v, want a fresh computation", tc.name, i, o, err)
			}
		}
		if c.Len() != 0 {
			t.Fatalf("%s: %d values cached", tc.name, c.Len())
		}
	}
}

// TestStoppedRunRetriedByLiveWaiters: a computation its own caller's
// ctx stopped (context.Canceled or DeadlineExceeded, wrapped) is no
// answer for waiters whose ctx is still live. The leader keeps its
// error; the waiters try again, one of them computing and the other
// sharing that run.
func TestStoppedRunRetriedByLiveWaiters(t *testing.T) {
	for _, stop := range []error{context.Canceled, context.DeadlineExceeded} {
		var shared, computed atomic.Int64
		c := NewLRU[string, int](4, Hooks{
			Shared:   func() { shared.Add(1) },
			Computed: func() { computed.Add(1) },
		})
		release := make(chan struct{})
		leader := startBlocked(c, "k", release, func() (int, error) { return 0, fmt.Errorf("run: %w", stop) })
		retry := make(chan struct{})
		waiters := make(chan result, 2)
		for i := 0; i < 2; i++ {
			go func() {
				v, o, err := c.Do(context.Background(), "k", func() (int, error) {
					<-retry
					return 9, nil
				})
				waiters <- result{v, o, err}
			}()
		}
		waitFor(t, func() bool { return shared.Load() == 2 })
		close(release)
		if r := <-leader; r.o != Computed || !errors.Is(r.err, stop) {
			t.Fatalf("%v: leader %+v, want its own stopped run", stop, r)
		}
		// One waiter runs its fn; the other joins that run.
		waitFor(t, func() bool { return computed.Load() == 2 && shared.Load() == 3 })
		close(retry)
		outcomes := map[Outcome]int{}
		for i := 0; i < 2; i++ {
			r := <-waiters
			if r.v != 9 || r.err != nil {
				t.Fatalf("%v: waiter got %+v, want value 9", stop, r)
			}
			outcomes[r.o]++
		}
		if outcomes[Computed] != 1 || outcomes[Shared] != 1 {
			t.Fatalf("%v: waiter outcomes %v, want one computed and one shared", stop, outcomes)
		}
	}
}

func TestWaiterContextExpiry(t *testing.T) {
	c := NewLRU[string, int](4, Hooks{})
	release := make(chan struct{})
	leader := startBlocked(c, "k", release, func() (int, error) { return 3, nil })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, o, err := c.Do(ctx, "k", func() (int, error) { return -1, nil }); o != Shared || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter: outcome %d err %v", o, err)
	}
	close(release)
	if r := <-leader; r != (result{3, Computed, nil}) {
		t.Fatalf("leader after the waiter left: %+v", r)
	}
	if v, ok := c.Get("k"); !ok || v != 3 {
		t.Fatalf("value not cached after the waiter left: %d, %v", v, ok)
	}
}

func TestPanicReleasesKey(t *testing.T) {
	var shared atomic.Int64
	c := NewLRU[string, int](4, Hooks{Shared: func() { shared.Add(1) }})
	release := make(chan struct{})
	started := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (int, error) { return -1, nil })
		waiter <- err
	}()
	waitFor(t, func() bool { return shared.Load() == 1 })
	close(release)

	if p := <-recovered; p != "boom" {
		t.Fatalf("computing goroutine recovered %v, want the re-raised panic", p)
	}
	var pe *PanicError
	if err := <-waiter; !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("waiter err = %v, want a PanicError carrying the panic value", err)
	}
	if v, o, err := c.Do(context.Background(), "k", func() (int, error) { return 5, nil }); v != 5 || o != Computed || err != nil {
		t.Fatalf("after panic: %d, %d, %v; want a fresh computation", v, o, err)
	}
}
