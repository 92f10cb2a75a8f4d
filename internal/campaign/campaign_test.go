package campaign

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"roughsim"
	"roughsim/internal/rescache"
	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
	"roughsim/internal/trace"
)

// fakeRunner executes cells instantly in-process, recording every
// submission; per-key behavior is scripted through fail/cached, and
// during (when set) runs inside every cell after it starts — the hook
// for blocking, slow and panicking cells.
type fakeRunner struct {
	mu      sync.Mutex
	submits []rescache.Key
	fail    map[rescache.Key]error
	cached  map[rescache.Key]*roughsim.SweepResult
	during  func(ctx context.Context, key rescache.Key) error
}

func (r *fakeRunner) Run(ctx context.Context, cfg roughsim.SweepConfig, started func(string)) (*roughsim.SweepResult, error) {
	r.mu.Lock()
	key := cfg.Key()
	r.submits = append(r.submits, key)
	err := r.fail[key]
	r.mu.Unlock()
	started("fake")
	if err == nil && r.during != nil {
		err = r.during(ctx, key)
	}
	if err != nil {
		return nil, err
	}
	return resultFor(cfg), nil
}

func (r *fakeRunner) Cached(cfg roughsim.SweepConfig) (*roughsim.SweepResult, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.cached[cfg.Key()]
	return res, ok
}

func (r *fakeRunner) submitted() []rescache.Key {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]rescache.Key(nil), r.submits...)
}

func resultFor(cfg roughsim.SweepConfig) *roughsim.SweepResult {
	pts := make([]roughsim.SweepPoint, len(cfg.Freqs))
	for i, f := range cfg.Freqs {
		pts[i] = roughsim.SweepPoint{FreqHz: f, KSWM: 2, KSPM2: 2, KEmpirical: 2}
	}
	return &roughsim.SweepResult{Config: cfg, Points: pts}
}

func testConfig() roughsim.CampaignConfig {
	return roughsim.CampaignConfig{
		Grid: roughsim.CampaignGrid{
			Sigmas: roughsim.Axis{Values: []float64{0, 0.2e-6, 0.4e-6}},
			Etas:   roughsim.Axis{Values: []float64{1e-6, 1.5e-6, 2e-6}},
		},
		Band: &roughsim.BandSpec{FMinHz: 1e9, FMaxHz: 9e9, Points: 4},
		// Two explicit duplicates of grid cells (σ=0.4, η=1) and (σ=0.2, η=2).
		Cells: []roughsim.SurfaceSpec{
			{Corr: roughsim.GaussianCF, Sigma: 0.4e-6, Eta: 1e-6},
			{Corr: roughsim.GaussianCF, Sigma: 0.2e-6, Eta: 2e-6},
		},
	}
}

func newTestEngine(r Runner, hooks Hooks) (*Engine, *telemetry.Registry) {
	m := telemetry.NewRegistry()
	return NewEngine(Options{
		Runner: r, MaxConcurrent: 2, Metrics: m, Hooks: hooks,
	}), m
}

func wait(t *testing.T, c *Campaign) Aggregate {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not terminate")
	}
	return c.Aggregate(true)
}

// The e2e planner contract: a 3×3 grid with a flat row plus two
// duplicate explicit cells → 9 planned cells, duplicates folded and
// solved once, flat cells synthesized without a solver run.
func TestCampaignPlanDedupeAndFlat(t *testing.T) {
	r := &fakeRunner{}
	var cellsDone []int
	var mu sync.Mutex
	eng, m := newTestEngine(r, Hooks{CellDone: func(_ string, cell int) {
		mu.Lock()
		cellsDone = append(cellsDone, cell)
		mu.Unlock()
	}})
	c, created, err := eng.Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first Start must create")
	}
	agg := wait(t, c)
	if agg.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", agg.Status, agg.Error)
	}
	if agg.CellsTotal != 9 {
		t.Fatalf("planned %d cells, want 9 (11 requested, 2 duplicates)", agg.CellsTotal)
	}
	if agg.DuplicatesFolded != 2 {
		t.Fatalf("duplicates folded = %d, want 2", agg.DuplicatesFolded)
	}
	if agg.CellsDone != 9 || agg.CellsFailed != 0 {
		t.Fatalf("aggregate = %+v", agg)
	}
	// 3 flat cells (σ=0 row) never reach the runner: 6 solver submissions.
	if n := len(r.submitted()); n != 6 {
		t.Fatalf("runner saw %d submissions, want 6", n)
	}
	if v := m.Counter("campaign.cells_flat").Value(); v != 3 {
		t.Fatalf("cells_flat = %d, want 3", v)
	}
	if v := m.Counter("campaign.cells_deduped").Value(); v != 2 {
		t.Fatalf("cells_deduped = %d, want 2", v)
	}
	mu.Lock()
	done := len(cellsDone)
	mu.Unlock()
	if done != 9 {
		t.Fatalf("CellDone hook fired %d times, want 9", done)
	}
	// Flat cells carry exact K ≡ 1 points.
	art := c.Artifact()
	for _, cr := range art.Cells {
		if cr.Spec.Sigma == 0 {
			for _, p := range cr.Points {
				if p.KSWM != 1 || p.KSPM2 != 1 || p.KEmpirical != 1 {
					t.Fatalf("flat cell point = %+v, want K ≡ 1", p)
				}
				if !(p.SkinDepthM > 0) {
					t.Fatalf("flat cell skin depth = %g", p.SkinDepthM)
				}
			}
		}
	}
}

// Start is idempotent by content address.
func TestCampaignStartIdempotent(t *testing.T) {
	eng, _ := newTestEngine(&fakeRunner{}, Hooks{})
	a, created, err := eng.Start(testConfig())
	if err != nil || !created {
		t.Fatalf("first start: %v created=%v", err, created)
	}
	b, created, err := eng.Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if created || b != a {
		t.Fatal("second Start of the same study must return the existing campaign")
	}
	wait(t, a)
}

// Cached cells short-circuit the runner — the resume fast path.
func TestCampaignCachedCells(t *testing.T) {
	cfg := testConfig().WithDefaults()
	cells, err := cfg.ExpandCells()
	if err != nil {
		t.Fatal(err)
	}
	r := &fakeRunner{cached: map[rescache.Key]*roughsim.SweepResult{}}
	// Pre-cache every rough cell but one.
	var rough []roughsim.SweepConfig
	for _, sc := range cells {
		if sc.Spec.Sigma > 0 {
			rough = append(rough, sc)
		}
	}
	for _, sc := range rough[1:] {
		r.cached[sc.Key()] = resultFor(sc)
	}
	eng, m := newTestEngine(r, Hooks{})
	c, _, err := eng.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := wait(t, c)
	if agg.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", agg.Status, agg.Error)
	}
	// Deduped rough cells: 6 - 2 duplicates... the duplicates fold into
	// grid cells, so rough planned cells = 6; 5 cached, 1 solved.
	if v := m.Counter("campaign.cells_cached").Value(); v != 5 {
		t.Fatalf("cells_cached = %d, want 5", v)
	}
	if n := len(r.submitted()); n != 1 {
		t.Fatalf("runner saw %d submissions, want exactly the uncached cell", n)
	}
	if agg.CellsCached != 5 || agg.CellsDone != 9 {
		t.Fatalf("aggregate = %+v", agg)
	}
}

// The partial-failure policy: failures within MaxFailFrac leave the
// campaign succeeded; beyond it the campaign fails.
func TestCampaignFailurePolicy(t *testing.T) {
	cfg := testConfig().WithDefaults()
	cfg.MaxFailFrac = 0.2 // 9 cells: 1 failure tolerated, 2 are too many
	cells, _ := cfg.ExpandCells()
	var rough []roughsim.SweepConfig
	for _, sc := range cells {
		if sc.Spec.Sigma > 0 {
			rough = append(rough, sc)
		}
	}

	r := &fakeRunner{fail: map[rescache.Key]error{
		rough[0].Key(): errors.New("solver exploded"),
	}}
	eng, _ := newTestEngine(r, Hooks{})
	c, _, _ := eng.Start(cfg)
	agg := wait(t, c)
	if agg.Status != StatusSucceeded || agg.CellsFailed != 1 {
		t.Fatalf("1/9 failures under max_fail_frac 0.2: %s, failed=%d", agg.Status, agg.CellsFailed)
	}

	var term struct {
		sync.Mutex
		st  Status
		err error
	}
	r = &fakeRunner{fail: map[rescache.Key]error{
		rough[0].Key(): errors.New("solver exploded"),
		rough[1].Key(): errors.New("solver exploded again"),
	}}
	eng, _ = newTestEngine(r, Hooks{Terminal: func(_ string, st Status, err error) {
		term.Lock()
		term.st, term.err = st, err
		term.Unlock()
	}})
	c, _, _ = eng.Start(cfg)
	agg = wait(t, c)
	if agg.Status != StatusFailed || agg.CellsFailed != 2 {
		t.Fatalf("2/9 failures over max_fail_frac 0.2: %s, failed=%d", agg.Status, agg.CellsFailed)
	}
	term.Lock()
	defer term.Unlock()
	if term.st != StatusFailed || term.err == nil {
		t.Fatalf("terminal hook got (%s, %v)", term.st, term.err)
	}
}

// Cancel stops pending cells and terminalizes as canceled.
func TestCampaignCancel(t *testing.T) {
	// Cells never finish on their own: they block until canceled.
	r := &fakeRunner{during: func(ctx context.Context, _ rescache.Key) error {
		<-ctx.Done()
		return ctx.Err()
	}}
	eng, _ := newTestEngine(r, Hooks{})
	c, _, err := eng.Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Cancel()
	agg := wait(t, c)
	if agg.Status != StatusCanceled {
		t.Fatalf("status = %s", agg.Status)
	}
	if agg.CellsCanceled == 0 {
		t.Fatalf("aggregate = %+v, want canceled cells", agg)
	}
	// Remove now works (terminal), and the engine forgets it.
	if err := eng.Remove(c.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Get(c.ID); ok {
		t.Fatal("campaign still listed after Remove")
	}
}

// A canceled cell counts as canceled, not failed, via the resilience
// taxonomy.
func TestCellStatusForCanceled(t *testing.T) {
	err := resilience.Errorf(resilience.KindCanceled, "x", "canceled")
	if st := cellStatusFor(err); st != CellCanceled {
		t.Fatalf("canceled error mapped to %s", st)
	}
	if st := cellStatusFor(errors.New("boom")); st != CellFailed {
		t.Fatalf("plain error mapped to %s", st)
	}
}

// Changed follows the subscribe-before-snapshot discipline.
func TestCampaignChangedBroadcast(t *testing.T) {
	r := &fakeRunner{}
	eng, _ := newTestEngine(r, Hooks{})
	c, _, err := eng.Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for {
		ch := c.Changed()
		agg := c.Aggregate(false)
		if agg.Status.Terminal() {
			break
		}
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("no change broadcast")
		}
	}
	if agg := c.Aggregate(false); agg.Status != StatusSucceeded {
		t.Fatalf("status = %s", agg.Status)
	}
}

// Racing Starts of one study plan it exactly once: one set of plan
// counters, and the recorder's trace under the campaign ID is the one
// the cells report into (a second plan would replace it with an orphan
// holding only campaign.plan).
func TestCampaignConcurrentStartPlansOnce(t *testing.T) {
	tr := trace.NewRecorder(64)
	m := telemetry.NewRegistry()
	eng := NewEngine(Options{Runner: &fakeRunner{}, MaxConcurrent: 2, Metrics: m, Tracer: tr})
	const n = 16
	var (
		mu      sync.Mutex
		camps   = map[*Campaign]bool{}
		created int
		wg      sync.WaitGroup
	)
	barrier := make(chan struct{})
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-barrier
			c, ok, err := eng.Start(testConfig())
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			camps[c] = true
			if ok {
				created++
			}
			mu.Unlock()
		}()
	}
	close(barrier)
	wg.Wait()
	if len(camps) != 1 || created != 1 {
		t.Fatalf("%d Starts gave %d campaigns, %d created; want 1 and 1", n, len(camps), created)
	}
	var c *Campaign
	for c = range camps {
	}
	if agg := wait(t, c); agg.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", agg.Status, agg.Error)
	}
	for name, want := range map[string]int64{
		"campaign.submitted": 1, "campaign.cells_total": 9, "campaign.cells_deduped": 2,
	} {
		if v := m.Counter(name).Value(); v != want {
			t.Errorf("%s = %d, want %d (one plan)", name, v, want)
		}
	}
	stages := map[string]int64{}
	for _, st := range tr.Get(c.ID).Stages().Stages {
		stages[st.Name] = st.Count
	}
	if stages["campaign.plan"] != 1 || stages["campaign.cell"] != 9 {
		t.Fatalf("trace under the campaign ID has stages %v, want 1 campaign.plan and 9 campaign.cell", stages)
	}
}

// The ETA reads the engine's own campaign.cell_seconds: with no
// histogram passed in, a campaign whose slow cell is still solving
// reports a positive ETA once a solver cell has finished.
func TestCampaignETAFromCellSeconds(t *testing.T) {
	cfg := testConfig().WithDefaults()
	cells, _ := cfg.ExpandCells()
	slow := cells[len(cells)-1].Key()
	release := make(chan struct{})
	r := &fakeRunner{during: func(_ context.Context, key rescache.Key) error {
		if key == slow {
			<-release
		} else {
			time.Sleep(time.Millisecond)
		}
		return nil
	}}
	eng, _ := newTestEngine(r, Hooks{})
	c, _, err := eng.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Aggregate(false).ETASeconds <= 0 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("no positive ETA while a cell runs: %+v", c.Aggregate(false))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if agg := wait(t, c); agg.Status != StatusSucceeded || agg.ETASeconds != 0 {
		t.Fatalf("final aggregate = %+v", agg)
	}
}

// A panicking Runner fails only its own cell, classified KindPanic;
// every other cell still runs.
func TestCampaignRunnerPanicFailsOnlyItsCell(t *testing.T) {
	cfg := testConfig().WithDefaults()
	cfg.MaxFailFrac = 0.2
	cells, _ := cfg.ExpandCells()
	var bad rescache.Key
	for _, sc := range cells {
		if sc.Spec.Sigma > 0 {
			bad = sc.Key()
			break
		}
	}
	r := &fakeRunner{during: func(_ context.Context, key rescache.Key) error {
		if key == bad {
			panic("solver blew up")
		}
		return nil
	}}
	eng, _ := newTestEngine(r, Hooks{})
	c, _, err := eng.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg := wait(t, c)
	if agg.Status != StatusSucceeded || agg.CellsFailed != 1 || agg.CellsDone != 8 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if n := len(r.submitted()); n != 6 {
		t.Fatalf("runner saw %d submissions, want 6", n)
	}
	for _, cs := range agg.Cells {
		if cs.Status == CellFailed && cs.Kind != resilience.KindPanic.String() {
			t.Fatalf("panicked cell = %+v, want kind %s", cs, resilience.KindPanic)
		}
	}
}
