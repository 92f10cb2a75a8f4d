package surrogate

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"roughsim/internal/rescache"
	"roughsim/internal/telemetry"
)

func specFor(name string) FitSpec {
	s := testSpec()
	s.Key = rescache.NewEnc().String(name).Sum()
	return s
}

// counterValue reads a counter by its snapshot series key, e.g.
// `surrogate.requests{outcome="hit"}`.
func counterValue(m *telemetry.Registry, series string) int64 {
	return m.Snapshot().Counters[series]
}

func TestRegistryAdmitsSmoothModel(t *testing.T) {
	m := telemetry.NewRegistry()
	reg := NewRegistry(4, "", m)
	src := &funcSource{dim: 2, k: smoothK}
	spec := specFor("admit")

	if _, ok := reg.Get(spec.Key); ok {
		t.Fatal("empty registry resolved a key")
	}
	rec, err := reg.GetOrBuild(context.Background(), src, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusAdmitted || rec.Model == nil {
		t.Fatalf("status = %s, reason %q", rec.Status, rec.Reason)
	}
	if rec.MaxRelErr > DefaultTol {
		t.Fatalf("admitted with error %g above tolerance", rec.MaxRelErr)
	}
	got, ok := reg.Get(spec.Key)
	if !ok || got.Model == nil {
		t.Fatal("admitted record not servable")
	}
	if hits := counterValue(m, `surrogate.requests{outcome="hit"}`); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if misses := counterValue(m, `surrogate.requests{outcome="miss"}`); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	// Peek must not move either counter.
	if _, ok := reg.Peek(spec.Key); !ok {
		t.Fatal("Peek missed an admitted key")
	}
	if hits := counterValue(m, `surrogate.requests{outcome="hit"}`); hits != 1 {
		t.Fatal("Peek counted as a hit")
	}
	// A second build request is a pure memory lookup: no new solves.
	calls := src.calls.Load()
	if _, err := reg.GetOrBuild(context.Background(), src, spec); err != nil {
		t.Fatal(err)
	}
	if src.calls.Load() != calls {
		t.Fatal("rebuild hit the source for a cached key")
	}
}

// wigglyK has a high-frequency oscillation in x = √f that a 3-anchor
// Chebyshev fit cannot resolve, so validation at interleaved holdout
// frequencies must reject it.
func wigglyK(f float64, xi []float64) float64 {
	x := math.Sqrt(f) / 1e5
	return 1 + 0.5*math.Sin(40*x) + 0.01*xi[0]
}

func TestRegistryRejectsUnderResolvedModel(t *testing.T) {
	m := telemetry.NewRegistry()
	reg := NewRegistry(4, t.TempDir(), m)
	src := &funcSource{dim: 2, k: wigglyK}
	spec := specFor("reject")
	spec.Anchors = 3

	rec, err := reg.GetOrBuild(context.Background(), src, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusRejected {
		t.Fatalf("status = %s (maxRelErr %g)", rec.Status, rec.MaxRelErr)
	}
	if !strings.Contains(rec.Reason, "exceeds tolerance") {
		t.Fatalf("reason = %q", rec.Reason)
	}
	if rec.Model != nil {
		t.Fatal("rejected record carries a servable model")
	}
	// Rejected is not a serve hit, is not persisted, and is not retried.
	if _, ok := reg.Get(spec.Key); !ok {
		t.Fatal("rejected record should still be resolvable (as a miss)")
	}
	if hits := counterValue(m, `surrogate.requests{outcome="hit"}`); hits != 0 {
		t.Fatal("rejected record served as a hit")
	}
	if ents, err := os.ReadDir(reg.dir); err != nil || len(ents) != 0 {
		t.Fatalf("rejected model persisted: %v %v", ents, err)
	}
	calls := src.calls.Load()
	if rec2, err := reg.GetOrBuild(context.Background(), src, spec); err != nil || rec2.Status != StatusRejected {
		t.Fatalf("rec2 = %+v, %v", rec2, err)
	}
	if src.calls.Load() != calls {
		t.Fatal("rejected key was rebuilt")
	}
	if rejected := counterValue(m, `surrogate.admission{outcome="rejected"}`); rejected != 1 {
		t.Fatalf("rejected counter = %d", rejected)
	}
}

func TestRegistrySingleFlight(t *testing.T) {
	m := telemetry.NewRegistry()
	reg := NewRegistry(4, "", m)
	release := make(chan struct{})
	src := &funcSource{dim: 2, k: func(f float64, xi []float64) float64 {
		<-release // park every builder until all callers have piled up
		return smoothK(f, xi)
	}}
	spec := specFor("flight")

	const callers = 8
	var wg sync.WaitGroup
	recs := make([]*Record, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i], errs[i] = reg.GetOrBuild(context.Background(), src, spec)
		}(i)
	}
	// Wait for the build flight to start and every other caller to join
	// it (on a loaded host a late caller would otherwise find the
	// finished record), then let it run.
	deadline := time.Now().Add(5 * time.Second)
	for (src.calls.Load() == 0 || counterValue(m, "surrogate.builds_shared") < callers-1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := range recs {
		if errs[i] != nil || recs[i] == nil || recs[i].Status != StatusAdmitted {
			t.Fatalf("caller %d: %+v, %v", i, recs[i], errs[i])
		}
	}
	// Exactly one fit + one validate pass hit the source.
	if calls := src.calls.Load(); calls != 2 {
		t.Fatalf("source called %d times, want 2 (fit+validate)", calls)
	}
	if shared := counterValue(m, "surrogate.builds_shared"); shared != callers-1 {
		t.Fatalf("builds_shared = %d, want %d", shared, callers-1)
	}
}

func TestRegistryBuildingStatusVisible(t *testing.T) {
	reg := NewRegistry(4, "", nil)
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	src := &funcSource{dim: 2, k: func(f float64, xi []float64) float64 {
		once.Do(func() { close(started) })
		<-release
		return smoothK(f, xi)
	}}
	spec := specFor("building")

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := reg.GetOrBuild(context.Background(), src, spec); err != nil {
			t.Error(err)
		}
	}()
	<-started
	rec, ok := reg.Peek(spec.Key)
	if !ok || rec.Status != StatusBuilding {
		t.Fatalf("in-flight build not visible: %+v, %v", rec, ok)
	}
	if got := reg.List(); len(got) != 1 || got[0].Status != StatusBuilding {
		t.Fatalf("List during build = %+v", got)
	}
	close(release)
	<-done
	if rec, ok := reg.Peek(spec.Key); !ok || rec.Status != StatusAdmitted {
		t.Fatalf("after build: %+v, %v", rec, ok)
	}
}

func TestRegistryDiskPersistenceAndCorruption(t *testing.T) {
	dir := t.TempDir()
	src := &funcSource{dim: 2, k: smoothK}
	spec := specFor("disk")

	first := NewRegistry(4, dir, nil)
	rec, err := first.GetOrBuild(context.Background(), src, spec)
	if err != nil || rec.Status != StatusAdmitted {
		t.Fatalf("%+v, %v", rec, err)
	}

	// A fresh process resolves the model from disk without a solve.
	m := telemetry.NewRegistry()
	second := NewRegistry(4, dir, m)
	calls := src.calls.Load()
	got, ok := second.Get(spec.Key)
	if !ok || got.Status != StatusAdmitted || got.Model == nil {
		t.Fatalf("disk reload: %+v, %v", got, ok)
	}
	if src.calls.Load() != calls {
		t.Fatal("disk reload hit the source")
	}
	want, _ := rec.Model.Mean(5e9)
	if v, err := got.Model.Mean(5e9); err != nil || v != want {
		t.Fatalf("reloaded model disagrees: %v, %v", v, err)
	}
	// GetOrBuild in yet another process also short-circuits via disk.
	third := NewRegistry(4, dir, nil)
	if rec3, err := third.GetOrBuild(context.Background(), src, spec); err != nil || rec3.Status != StatusAdmitted {
		t.Fatalf("%+v, %v", rec3, err)
	}
	if src.calls.Load() != calls {
		t.Fatal("disk-resident key was rebuilt")
	}

	// Truncate the persisted model: a torn entry is a miss, not an error.
	name := filepath.Join(dir, spec.Key.String()+".surrogate.json")
	if err := os.Truncate(name, 17); err != nil {
		t.Fatal(err)
	}
	fresh := NewRegistry(4, dir, m)
	if _, ok := fresh.Get(spec.Key); ok {
		t.Fatal("truncated model served")
	}
	if derr := counterValue(m, "surrogate.disk_errors"); derr != 1 {
		t.Fatalf("disk_errors = %d, want 1", derr)
	}

	// A model persisted under a different key (moved file) is refused.
	if rec, ok := second.Peek(spec.Key); ok && rec.Model != nil {
		b, err := Encode(rec.Model)
		if err != nil {
			t.Fatal(err)
		}
		other := specFor("other-key")
		if err := rescache.WriteFileAtomic(dir, other.Key.String()+".surrogate.json", b); err != nil {
			t.Fatal(err)
		}
		if _, ok := fresh.Get(other.Key); ok {
			t.Fatal("key-mismatched model served")
		}
	} else {
		t.Fatal("second registry lost its memory-resident record")
	}
}

func TestRegistryEvictAndCapacity(t *testing.T) {
	m := telemetry.NewRegistry()
	dir := t.TempDir()
	reg := NewRegistry(2, dir, m)
	src := &funcSource{dim: 2, k: smoothK}

	specs := []FitSpec{specFor("a"), specFor("b"), specFor("c")}
	for _, s := range specs {
		if rec, err := reg.GetOrBuild(context.Background(), src, s); err != nil || rec.Status != StatusAdmitted {
			t.Fatalf("%+v, %v", rec, err)
		}
	}
	// Capacity 2: "a" fell off the memory LRU but survives on disk.
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
	if rec, ok := reg.Get(specs[0].Key); !ok || rec.Status != StatusAdmitted {
		t.Fatal("LRU-evicted key not reloadable from disk")
	}

	// Explicit evict removes memory and disk.
	if !reg.Evict(specs[1].Key) {
		t.Fatal("Evict found nothing")
	}
	if _, err := os.Stat(filepath.Join(dir, specs[1].Key.String()+".surrogate.json")); !os.IsNotExist(err) {
		t.Fatalf("persisted model survives eviction: %v", err)
	}
	if _, ok := reg.Get(specs[1].Key); ok {
		t.Fatal("evicted key still resolves")
	}
	if reg.Evict(specs[1].Key) {
		t.Fatal("double evict reported removal")
	}
	if ev := counterValue(m, "surrogate.evictions"); ev < 2 {
		t.Fatalf("evictions = %d, want ≥ 2 (capacity + explicit)", ev)
	}
}
