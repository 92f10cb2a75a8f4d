package jobs

import (
	"context"
	"testing"

	"roughsim/internal/telemetry"
)

// TestIDHashIsPinned pins the retry-jitter key of a fixed job ID. The
// key must not move between versions: a job replayed from an older
// journal keeps its backoff schedule.
func TestIDHashIsPinned(t *testing.T) {
	q, err := NewQueue(1, 1, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Drain(context.Background())
	j, err := q.SubmitOpts(func(context.Context, func(int, int)) (any, error) { return nil, nil },
		SubmitOptions{ID: "0123456789abcdef0123456789abcdef"})
	if err != nil {
		t.Fatal(err)
	}
	await(t, j)
	if want := uint64(0x4bbb216e77ba8f73); j.idHash != want {
		t.Fatalf("idHash = %#x, want %#x", j.idHash, want)
	}
}
