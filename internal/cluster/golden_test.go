package cluster

import "testing"

// TestRingOwnerIsPinned pins shard placement for a fixed key set over
// three members. Placement must not move between versions, or a mixed
// fleet would route one content address to two shards.
func TestRingOwnerIsPinned(t *testing.T) {
	a, b, c := "http://a:1", "http://b:2", "http://c:3"
	r := NewRing([]string{a, b, c})
	keys := []string{"", "k", "key-0", "key-1", "key-2", "key-3", "key-4", "key-5",
		"3f9a2c7e", "sweep/5e9", "campaign-grid-8", "a-much-longer-content-address-0123456789abcdef"}
	want := []string{a, c, c, c, b, b, c, b, b, b, b, b}
	for i, k := range keys {
		if got := r.Owner(k); got != want[i] {
			t.Errorf("Owner(%q) = %q, want %q", k, got, want[i])
		}
	}
}
