package sweepengine

// Checkpointing splits a sweep into its natural resumable units — one
// completed K column per collocation node, over the sweep's solve
// frequencies (the sweep frequencies on the exact path, the anchor
// frequencies on the broadband path) — and persists each as soon as it
// finishes. A sweep restarted after a crash loads the completed columns
// back and re-solves only the nodes that never finished; because the
// columns are the solver's float64 outputs round-tripped losslessly, and
// the broadband interpolation runs after loading, the resumed result is
// bitwise identical to an uninterrupted run.

// Checkpoint persists completed per-node sweep columns. Load returns
// the previously saved column for a node (or false); Save persists a
// completed column. Implementations must be safe for concurrent use —
// the exact path saves from whichever worker finishes a node's last
// frequency — and must return columns exactly as saved (the engine
// validates only the length). The engine tolerates a Checkpoint that
// loses writes (it just re-solves); it must never serve a torn one.
type Checkpoint interface {
	Load(node int) ([]float64, bool)
	Save(node int, col []float64)
}

// loadColumn consults the checkpoint for node, insisting on the
// expected length so a checkpoint from a differently shaped sweep can
// never corrupt this one.
func (e *Engine) loadColumn(node, n int) ([]float64, bool) {
	if e.Checkpoint == nil {
		return nil, false
	}
	col, ok := e.Checkpoint.Load(node)
	if !ok || len(col) != n {
		return nil, false
	}
	e.Metrics.Counter("sweep.checkpoint_hits").Inc()
	return col, true
}

// saveColumn persists a completed column for node.
func (e *Engine) saveColumn(node int, col []float64) {
	if e.Checkpoint == nil {
		return
	}
	e.Checkpoint.Save(node, col)
	e.Metrics.Counter("sweep.checkpoint_saves").Inc()
}
