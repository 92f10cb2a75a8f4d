// Package memo is the one implementation of work sharing in the
// repository: a single-flight LRU. Every cache and single-flight map of
// the service and the solver uses it, so they share one set of
// semantics:
//
//   - one computation per key at a time; concurrent callers wait and
//     share its value and error;
//   - errors are never cached: the next caller recomputes;
//   - a waiter whose ctx ends returns ctx.Err() while the computation
//     goes on for the others (it runs under whatever ctx fn captured);
//   - a computation that ends in context.Canceled or DeadlineExceeded
//     was stopped by its own caller's ctx, which is no answer for a
//     waiter whose ctx is still live: that waiter tries again, joining
//     another caller's computation or running its own fn;
//   - a computation that panics releases its key: waiters get a
//     *PanicError, the panic re-raises in the computing goroutine, and
//     the next caller recomputes.
package memo

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// Outcome says how Do resolved a key.
type Outcome int

const (
	Computed Outcome = iota // this caller ran the computation
	Shared                  // this caller waited on another caller's computation
	Hit                     // the value was already cached
)

// Hooks are metric callbacks; any may be nil. They run outside the lock.
type Hooks struct {
	Hit      func() // Do or Get found the key cached
	Shared   func() // Do joined a running computation, before waiting on it
	Computed func() // Do is about to run the computation
	// Resized follows every insertion or removal with the number of
	// least recently used entries it evicted and the entry count after.
	Resized func(evicted, size int)
}

func run(hook func()) {
	if hook != nil {
		hook()
	}
}

// PanicError is what waiters receive when the computation they joined
// panicked with Value; the computing goroutine carries the stack.
type PanicError struct{ Value any }

func (e *PanicError) Error() string {
	return fmt.Sprintf("memo: shared computation panicked: %v", e.Value)
}

// LRU runs at most one computation per key at a time and keeps
// successful results, least recently used first out past capacity.
// Safe for concurrent use.
type LRU[K comparable, V any] struct {
	capacity int
	hooks    Hooks

	mu    sync.Mutex
	calls map[K]*call[V]
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type call[V any] struct {
	done    chan struct{}
	pending *V // what Get and Values report while it runs
	val     V
	err     error
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU builds an LRU holding up to capacity values, reporting to h.
// Capacity 0 makes a pure single-flight group that keeps no result.
func NewLRU[K comparable, V any](capacity int, h Hooks) *LRU[K, V] {
	return &LRU[K, V]{capacity: capacity, hooks: h,
		calls: map[K]*call[V]{}, ll: list.New(), items: map[K]*list.Element{}}
}

// Do returns key's cached value, or fn's result, running fn only if no
// computation for key is in flight and otherwise waiting, bounded by
// ctx, for that one. A successful result is cached.
func (c *LRU[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, Outcome, error) {
	return c.do(ctx, key, nil, fn)
}

// DoPending is Do that also publishes pending as key's value through Get
// and Values while the computation runs.
func (c *LRU[K, V]) DoPending(ctx context.Context, key K, pending V, fn func() (V, error)) (V, Outcome, error) {
	return c.do(ctx, key, &pending, fn)
}

func (c *LRU[K, V]) do(ctx context.Context, key K, pending *V, fn func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	for {
		if v, ok := c.cachedLocked(key); ok {
			c.mu.Unlock()
			run(c.hooks.Hit)
			return v, Hit, nil
		}
		cl, ok := c.calls[key]
		if !ok {
			break
		}
		c.mu.Unlock()
		run(c.hooks.Shared)
		select {
		case <-cl.done:
		case <-ctx.Done():
			var zero V
			return zero, Shared, ctx.Err()
		}
		stopped := errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded)
		if !stopped || ctx.Err() != nil {
			return cl.val, Shared, cl.err
		}
		// The computing caller's ctx stopped the run while this waiter's
		// is live: try again.
		c.mu.Lock()
	}
	cl := &call[V]{done: make(chan struct{}), pending: pending}
	c.calls[key] = cl
	c.mu.Unlock()
	run(c.hooks.Computed)
	returned := false
	defer func() {
		if returned {
			return
		}
		p := recover() // nil under runtime.Goexit, which then carries on
		cl.err = &PanicError{Value: p}
		c.release(key, cl)
		if p != nil {
			panic(p)
		}
	}()
	cl.val, cl.err = fn()
	returned = true
	c.release(key, cl)
	return cl.val, Computed, cl.err
}

// release ends key's computation, caching a successful value before
// any new caller can miss it.
func (c *LRU[K, V]) release(key K, cl *call[V]) {
	evicted, size := -1, 0
	c.mu.Lock()
	delete(c.calls, key)
	if cl.err == nil && c.capacity > 0 {
		evicted, size = c.addLocked(key, cl.val)
	}
	c.mu.Unlock()
	close(cl.done)
	if evicted >= 0 {
		c.resized(evicted, size)
	}
}

func (c *LRU[K, V]) resized(evicted, size int) {
	if c.hooks.Resized != nil {
		c.hooks.Resized(evicted, size)
	}
}

// cachedLocked returns key's cached value, marking it most recently used.
func (c *LRU[K, V]) cachedLocked(key K) (v V, ok bool) {
	el, ok := c.items[key]
	if ok {
		c.ll.MoveToFront(el)
		v = el.Value.(*entry[K, V]).val
	}
	return v, ok
}

// Get returns key's cached value, marking it most recently used, or the
// pending value of a running DoPending for key. It never computes.
func (c *LRU[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	if v, ok = c.cachedLocked(key); ok {
		c.mu.Unlock()
		run(c.hooks.Hit)
		return v, true
	}
	cl := c.calls[key]
	c.mu.Unlock()
	if cl != nil && cl.pending != nil {
		return *cl.pending, true
	}
	return v, false
}

// Add caches v under key as most recently used.
func (c *LRU[K, V]) Add(key K, v V) {
	c.mu.Lock()
	evicted, size := c.addLocked(key, v)
	c.mu.Unlock()
	c.resized(evicted, size)
}

func (c *LRU[K, V]) addLocked(key K, v V) (evicted, size int) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: v})
	}
	for c.ll.Len() > c.capacity {
		delete(c.items, c.ll.Remove(c.ll.Back()).(*entry[K, V]).key)
		evicted++
	}
	return evicted, c.ll.Len()
}

// Remove drops key's cached value, reporting whether there was one. A
// running computation for key is not interrupted.
func (c *LRU[K, V]) Remove(key K) bool {
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.ll.Remove(el)
		delete(c.items, key)
	}
	size := c.ll.Len()
	c.mu.Unlock()
	if ok {
		c.resized(0, size)
	}
	return ok
}

// Len returns the number of cached values.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Values returns the cached values, most recently used first, followed
// by the pending values of running DoPending computations.
func (c *LRU[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.ll.Len()+len(c.calls))
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).val)
	}
	for _, cl := range c.calls {
		if cl.pending != nil {
			out = append(out, *cl.pending)
		}
	}
	return out
}
