package resilience

import (
	"math"
	"testing"
)

// TestFaultHashIsPinned pins the injected-fault and jitter hash for a
// few (op, key) pairs: a chaos spec must fire on the same keys, and a
// retry wait the same time, in every version.
func TestFaultHashIsPinned(t *testing.T) {
	cases := []struct {
		op   string
		key  uint64
		want uint64
	}{
		{"solve", 0, 0x3fc66ecc53bbf1e0},
		{"solve", 7, 0x3fdbb7946a3b57ee},
		{"backoff", 1 << 40, 0x3fd50c72a5934702},
		{"journal.append", 12345, 0x3fd818473b389c98},
	}
	for _, c := range cases {
		if got := math.Float64bits(faultHash(c.op, c.key)); got != c.want {
			t.Errorf("faultHash(%q, %d) bits = %#x, want %#x", c.op, c.key, got, c.want)
		}
	}
}
