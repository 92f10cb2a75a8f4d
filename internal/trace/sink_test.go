package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

// sinkLog records every sink call by span name.
type sinkLog struct {
	mu    sync.Mutex
	count map[string]int
	dur   map[string]time.Duration
}

func newSinkLog() *sinkLog {
	return &sinkLog{count: map[string]int{}, dur: map[string]time.Duration{}}
}

func (l *sinkLog) sink(name string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count[name]++
	l.dur[name] += d
}

// TestSinkFiresOncePerEndedSpan: a span that ends twice reaches the sink
// once, with exactly the duration the trace aggregates; spans that never
// end, nil spans and traces built outside a recorder never reach it.
func TestSinkFiresOncePerEndedSpan(t *testing.T) {
	log := newSinkLog()
	rec := NewRecorder(4).WithSink(log.sink)
	tr := rec.New("a")
	ctx := ContextWithSpan(context.Background(), tr.Root())

	_, s := StartSpan(ctx, "stage")
	time.Sleep(time.Millisecond)
	s.End()
	s.End()
	StartSpan(ctx, "never.ended")
	var nilSpan *Span
	nilSpan.End()
	_, untraced := StartSpan(context.Background(), "untraced")
	untraced.End()
	New("outside").Root().StartChild("outside").End()
	tr.Finish()
	tr.Finish()

	want := map[string]int{"stage": 1, "job": 1}
	if len(log.count) != len(want) {
		t.Fatalf("sink calls %v, want %v", log.count, want)
	}
	for name, n := range want {
		if log.count[name] != n {
			t.Fatalf("sink calls %v, want %v", log.count, want)
		}
	}
	for _, st := range tr.Stages().Stages {
		if st.Name == "stage" && log.dur["stage"].Seconds() != st.Seconds {
			t.Fatalf("sink saw %v, trace aggregated %gs", log.dur["stage"], st.Seconds)
		}
	}
}

// TestSinkSeesDetachedSpans: overflow spans past maxSpans are dropped
// from the tree but still reach the sink, from concurrent goroutines.
func TestSinkSeesDetachedSpans(t *testing.T) {
	log := newSinkLog()
	tr := NewRecorder(1).WithSink(log.sink).New("big")
	const workers = 4
	n := maxSpans + 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				tr.Root().StartChild("unit").End()
			}
		}(w)
	}
	wg.Wait()
	if tr.Summary().SpansDropped == 0 {
		t.Fatal("no span was detached")
	}
	if log.count["unit"] != n {
		t.Fatalf("sink saw %d units, want %d", log.count["unit"], n)
	}
}

// TestSinkMayReadTheTrace: the sink runs after the trace lock is
// released, so it can export the trace it is called from.
func TestSinkMayReadTheTrace(t *testing.T) {
	var tr *Trace
	var seen []string
	rec := NewRecorder(1).WithSink(func(name string, _ time.Duration) {
		for _, st := range tr.Summary().Stages {
			if st.Name == name {
				seen = append(seen, name)
			}
		}
	})
	tr = rec.New("reentrant")
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.Root().StartChild("stage").End()
		tr.Finish()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sink deadlocked on the trace lock")
	}
	if len(seen) != 2 || seen[0] != "stage" || seen[1] != "job" {
		t.Fatalf("sink saw the trace as %v, want [stage job]", seen)
	}
}
