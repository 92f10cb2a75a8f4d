package sweepengine

import (
	"context"
	"sync"
	"testing"

	"roughsim/internal/resilience"
	"roughsim/internal/telemetry"
	"roughsim/internal/units"
)

// memCkpt is an in-memory Checkpoint recording every saved column.
type memCkpt struct {
	mu   sync.Mutex
	cols map[int][]float64
}

func newMemCkpt() *memCkpt { return &memCkpt{cols: map[int][]float64{}} }

func (c *memCkpt) Load(node int) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	col, ok := c.cols[node]
	return col, ok
}

func (c *memCkpt) Save(node int, col []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cols[node] = append([]float64(nil), col...)
}

// TestColumnMatchesRun: every column computed in isolation must be
// bitwise identical to the column Run checkpoints for the same node —
// that identity is what lets a remote worker stand in for a local engine
// worker — on the exact path and on the broadband path, whose columns
// cover the anchor frequencies. The broadband case runs under -short
// with three workers, so the race detector sees columns saved from
// concurrent workers and the interpolation that follows.
func TestColumnMatchesRun(t *testing.T) {
	band := make([]float64, 8)
	for i := range band {
		band[i] = (4 + 2*float64(i)/7) * units.GHz
	}
	for _, tc := range []struct {
		name    string
		freqs   []float64
		anchors int // 0 = exact path
		short   bool
	}{
		{"exact", []float64{4 * units.GHz, 5 * units.GHz}, 0, false},
		{"broadband", band, 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("solver run")
			}
			eng, _ := testEngine(t)
			eng.Anchors = tc.anchors
			eng.Workers = 3

			plan, err := eng.PlanColumns(tc.freqs)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Anchors != tc.anchors {
				t.Fatalf("plan = %+v, want %d anchors", plan, tc.anchors)
			}
			if len(plan.Nodes) == 0 {
				t.Fatal("no non-flat nodes planned")
			}
			p, err := eng.plan(tc.freqs)
			if err != nil {
				t.Fatal(err)
			}

			ck := newMemCkpt()
			eng.Checkpoint = ck
			res, err := eng.Run(context.Background(), tc.freqs)
			if err != nil {
				t.Fatal(err)
			}
			eng.Checkpoint = nil

			if len(ck.cols) != len(plan.Nodes) {
				t.Fatalf("Run checkpointed %d columns, want the %d planned nodes", len(ck.cols), len(plan.Nodes))
			}
			fed := newMemCkpt()
			for _, node := range plan.Nodes {
				want, ok := ck.cols[node]
				if !ok {
					t.Fatalf("Run never checkpointed planned node %d", node)
				}
				got, err := eng.Column(context.Background(), tc.freqs, node)
				if err != nil {
					t.Fatalf("Column(%d): %v", node, err)
				}
				if len(got) != len(p.solve) || len(want) != len(p.solve) {
					t.Fatalf("node %d: column lengths %d, %d, want %d solve frequencies", node, len(got), len(want), len(p.solve))
				}
				for fi := range got {
					if got[fi] != want[fi] {
						t.Fatalf("node %d f[%d]: Column %v != Run checkpoint %v (not bitwise)",
							node, fi, got[fi], want[fi])
					}
				}
				// Each sweep value is the column's barycentric interpolant
				// in x = √f (the column itself on the exact path).
				for fi, k := range p.resample(got) {
					if res.Values[fi][node] != k {
						t.Fatalf("node %d f[%d]: value %v, resampled column %v", node, fi, res.Values[fi][node], k)
					}
				}
				fed.Save(node, got)
			}

			// Round-trip: a fresh run fed only Column outputs through the
			// checkpoint must reproduce Run's result bitwise without solving.
			reg := telemetry.NewRegistry()
			eng.Metrics = reg
			eng.Checkpoint = fed
			res2, err := eng.Run(context.Background(), tc.freqs)
			if err != nil {
				t.Fatal(err)
			}
			if n := reg.Counter("sweep.node_solves").Value(); n != 0 {
				t.Fatalf("run fed every column solved %d nodes", n)
			}
			for fi := range tc.freqs {
				if res2.Mean[fi] != res.Mean[fi] {
					t.Fatalf("f[%d]: resumed-from-columns mean %v != direct %v", fi, res2.Mean[fi], res.Mean[fi])
				}
			}
		})
	}
}

func TestColumnValidation(t *testing.T) {
	eng, _ := testEngine(t)
	shortFreqs := []float64{4 * units.GHz, 5 * units.GHz}
	for _, node := range []int{-1, 1 << 20} {
		if _, err := eng.Column(context.Background(), shortFreqs, node); resilience.Classify(err) != resilience.KindInvalidInput {
			t.Fatalf("node %d out of range: %v", node, err)
		}
	}
	if _, err := eng.Column(context.Background(), nil, 0); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("empty freqs: %v", err)
	}
	if _, err := (&Engine{}).PlanColumns([]float64{1e9}); resilience.Classify(err) != resilience.KindInvalidInput {
		t.Fatalf("missing solver: %v", err)
	}
}
