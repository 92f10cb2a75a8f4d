package sweepengine

import (
	"context"
	"testing"

	"roughsim/internal/telemetry"
	"roughsim/internal/units"
)

// mirrorSweeps are the two paths' test sweeps: two frequencies take the
// exact path, eight over a 2 GHz band with five anchors the
// interpolated one.
func mirrorSweeps(t *testing.T) map[string]struct {
	eng   *Engine
	freqs []float64
} {
	exact, _ := testEngine(t)
	interp, _ := testEngine(t)
	interp.Anchors = 5
	band := make([]float64, 8)
	for i := range band {
		band[i] = (4 + 2*float64(i)/7) * units.GHz
	}
	return map[string]struct {
		eng   *Engine
		freqs []float64
	}{
		"exact":  {exact, []float64{4 * units.GHz, 5 * units.GHz}},
		"interp": {interp, band},
	}
}

// TestSweepSolvesMirrorPairsOnce: a d=2 first-order sweep of a Gaussian
// CF solves two nodes, the ±ξ₂ pair (the ±ξ₁ pair is rigid shifts,
// K ≡ 1), and the pair's second surface reuses the first one's kernel
// build on both paths.
func TestSweepSolvesMirrorPairsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	for name, sw := range mirrorSweeps(t) {
		reg := telemetry.NewRegistry()
		sw.eng.Metrics = reg
		res, err := sw.eng.Run(context.Background(), sw.freqs)
		if err != nil {
			t.Fatal(err)
		}
		if (res.AnchorsUsed > 0) != (name == "interp") {
			t.Fatalf("%s sweep used %d anchors", name, res.AnchorsUsed)
		}
		if got := reg.Counter("sweep.node_solves").Value(); got != 2 {
			t.Errorf("%s: node_solves = %d, want 2", name, got)
		}
		if got := reg.Counter("sweep.mirror_reuses").Value(); got != 1 {
			t.Errorf("%s: mirror_reuses = %d, want 1", name, got)
		}
	}
}

// TestResumeWithOneSideOfPairCheckpointed: a resumed sweep that finds
// only one side of a mirror pair checkpointed solves the other side
// alone, and every column equals the uninterrupted run's bit for bit.
func TestResumeWithOneSideOfPairCheckpointed(t *testing.T) {
	if testing.Short() {
		t.Skip("solver run")
	}
	for name, sw := range mirrorSweeps(t) {
		ckpt := newMapCheckpoint()
		sw.eng.Checkpoint = ckpt
		want, err := sw.eng.Run(context.Background(), sw.freqs)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sw.eng.plan(sw.freqs)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := sw.eng.PlanColumns(sw.freqs)
		if err != nil {
			t.Fatal(err)
		}
		// Drop the column of the first solved node whose mirror is a node
		// too.
		victim := -1
		for _, j := range cp.Nodes {
			xi := p.nodes[j]
			for _, yi := range p.nodes {
				if (xi[0] != 0 || xi[1] != 0) && yi[0] == -xi[0] && yi[1] == -xi[1] {
					victim = j
				}
			}
			if victim >= 0 {
				break
			}
		}
		if victim < 0 {
			t.Fatalf("%s: no mirror pair among nodes %v", name, p.nodes)
		}
		delete(ckpt.cols, victim)

		reg := telemetry.NewRegistry()
		sw.eng.Metrics = reg
		got, err := sw.eng.Run(context.Background(), sw.freqs)
		if err != nil {
			t.Fatal(err)
		}
		if n := reg.Counter("sweep.node_solves").Value(); n != 1 {
			t.Errorf("%s: resume solved %d nodes, want 1", name, n)
		}
		if n := reg.Counter("sweep.mirror_reuses").Value(); n != 0 {
			t.Errorf("%s: resume reused %d mirrors, want 0", name, n)
		}
		for fi := range sw.freqs {
			for j := range want.Values[fi] {
				if got.Values[fi][j] != want.Values[fi][j] {
					t.Fatalf("%s: vals[%d][%d] = %v after the resume, %v uninterrupted", name, fi, j, got.Values[fi][j], want.Values[fi][j])
				}
			}
		}
	}
}
