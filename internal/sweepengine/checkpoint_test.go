package sweepengine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"roughsim/internal/telemetry"
	"roughsim/internal/units"
)

// mapCheckpoint is an in-memory Checkpoint for engine tests.
type mapCheckpoint struct {
	mu    sync.Mutex
	cols  map[int][]float64
	saves int
	loads int
}

func newMapCheckpoint() *mapCheckpoint {
	return &mapCheckpoint{cols: map[int][]float64{}}
}

func (m *mapCheckpoint) Load(node int) ([]float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.loads++
	col, ok := m.cols[node]
	return col, ok
}

func (m *mapCheckpoint) Save(node int, col []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.saves++
	m.cols[node] = append([]float64(nil), col...)
}

// checkpointSweeps are the checkpoint tests' sweeps: two frequencies
// take the exact path, eight over a 2 GHz band with five anchors the
// broadband one.
func checkpointSweeps() []struct {
	name    string
	freqs   []float64
	anchors int
} {
	band := make([]float64, 8)
	for i := range band {
		band[i] = (4 + 2*float64(i)/7) * units.GHz
	}
	return []struct {
		name    string
		freqs   []float64
		anchors int
	}{
		{"exact", []float64{4 * units.GHz, 5 * units.GHz}, 0},
		{"broadband", band, 5},
	}
}

// TestExactSweepCheckpointResume: a second run over a populated
// checkpoint must not solve anything (node_solves == 0) and must
// reproduce the first run's values bit for bit; a partially populated
// checkpoint — the state a sweep killed after its first column leaves —
// re-solves exactly the missing nodes, on both paths.
func TestExactSweepCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	for _, sw := range checkpointSweeps() {
		t.Run(sw.name, func(t *testing.T) {
			freqs := sw.freqs
			engine := func(m *telemetry.Registry, ck Checkpoint) *Engine {
				eng, _ := testEngine(t)
				eng.Anchors = sw.anchors
				eng.Metrics = m
				eng.Checkpoint = ck
				return eng
			}

			m1 := telemetry.NewRegistry()
			ckpt := newMapCheckpoint()
			res1, err := engine(m1, ckpt).Run(context.Background(), freqs)
			if err != nil {
				t.Fatal(err)
			}
			if res1.AnchorsUsed != sw.anchors {
				t.Fatalf("sweep used %d anchors, want %d", res1.AnchorsUsed, sw.anchors)
			}
			nonFlat := len(ckpt.cols)
			if nonFlat < 2 {
				t.Fatalf("first run checkpointed %d columns, want at least 2", nonFlat)
			}
			if got := m1.Counter("sweep.node_solves").Value(); got != int64(nonFlat) {
				t.Fatalf("node_solves = %d, want %d", got, nonFlat)
			}
			if got := m1.Counter("sweep.checkpoint_saves").Value(); got != int64(nonFlat) {
				t.Fatalf("checkpoint_saves = %d, want %d", got, nonFlat)
			}

			// Full resume: zero solves, bitwise-identical output.
			m2 := telemetry.NewRegistry()
			res2, err := engine(m2, ckpt).Run(context.Background(), freqs)
			if err != nil {
				t.Fatal(err)
			}
			if got := m2.Counter("sweep.node_solves").Value(); got != 0 {
				t.Fatalf("resume solved %d nodes, want 0", got)
			}
			if got := m2.Counter("sweep.checkpoint_hits").Value(); got != int64(nonFlat) {
				t.Fatalf("checkpoint_hits = %d, want %d", got, nonFlat)
			}
			sameResult(t, "resumed", res2, res1)

			// Interrupted after one column: keep only the first node's
			// column; the resume solves exactly the others.
			first := -1
			for node := range ckpt.cols {
				if first < 0 || node < first {
					first = node
				}
			}
			partial := newMapCheckpoint()
			partial.cols[first] = ckpt.cols[first]
			m3 := telemetry.NewRegistry()
			res3, err := engine(m3, partial).Run(context.Background(), freqs)
			if err != nil {
				t.Fatal(err)
			}
			if got := m3.Counter("sweep.node_solves").Value(); got != int64(nonFlat-1) {
				t.Fatalf("partial resume solved %d nodes, want %d", got, nonFlat-1)
			}
			sameResult(t, "partially resumed", res3, res1)
		})
	}
}

// sameResult fails unless got equals want bit for bit.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	for fi := range want.Mean {
		if got.Mean[fi] != want.Mean[fi] {
			t.Fatalf("%s f[%d]: mean %v != original %v", what, fi, got.Mean[fi], want.Mean[fi])
		}
		for j := range want.Values[fi] {
			if got.Values[fi][j] != want.Values[fi][j] {
				t.Fatalf("%s vals[%d][%d]: %v != %v", what, fi, j, got.Values[fi][j], want.Values[fi][j])
			}
		}
	}
}

// TestCheckpointWrongShapeIgnored: a column whose length does not match
// the sweep's solve frequency count must be ignored, not served — on the
// broadband path that includes a column over every sweep frequency
// instead of the anchors.
func TestCheckpointWrongShapeIgnored(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	for _, sw := range checkpointSweeps() {
		for _, n := range []int{3, len(sw.freqs)} {
			if sw.anchors == 0 && n == len(sw.freqs) {
				continue // the exact path's own shape
			}
			t.Run(fmt.Sprintf("%s/len%d", sw.name, n), func(t *testing.T) {
				ckpt := newMapCheckpoint()
				eng, _ := testEngine(t)
				eng.Anchors = sw.anchors
				m := telemetry.NewRegistry()
				eng.Metrics = m
				eng.Checkpoint = ckpt
				// Poison every plausible node with a wrong-length column.
				for j := -1; j < 16; j++ {
					ckpt.cols[j] = make([]float64, n)
				}
				if _, err := eng.Run(context.Background(), sw.freqs); err != nil {
					t.Fatal(err)
				}
				if got := m.Counter("sweep.checkpoint_hits").Value(); got != 0 {
					t.Fatalf("wrong-shape columns produced %d hits", got)
				}
				if got := m.Counter("sweep.node_solves").Value(); got == 0 {
					t.Fatal("nothing was solved despite unusable checkpoints")
				}
			})
		}
	}
}
