package cluster

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1 := NewRing(members)
	r2 := NewRing([]string{"http://c:3", "http://a:1", "http://b:2", "http://a:1"})
	if r1 == nil || r2 == nil {
		t.Fatal("nil ring for non-empty members")
	}
	hit := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		o := r1.Owner(key)
		if o2 := r2.Owner(key); o2 != o {
			// Placement must be order- and duplicate-insensitive.
			t.Fatalf("owner(%q) differs across member orderings: %q vs %q", key, o, o2)
		}
		hit[o]++
	}
	for _, m := range members {
		if hit[m] == 0 {
			t.Fatalf("member %q owns no keys (distribution %v)", m, hit)
		}
	}
}

func TestRingMinimalReshuffle(t *testing.T) {
	before := NewRing([]string{"http://a:1", "http://b:2", "http://c:3"})
	after := NewRing([]string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"})
	moved := 0
	const n = 2000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		if before.Owner(key) != after.Owner(key) {
			if after.Owner(key) != "http://d:4" {
				t.Fatalf("key %q moved between surviving members", key)
			}
			moved++
		}
	}
	// Consistent hashing moves ~1/4 of the space to the new member; 45%
	// leaves generous slack over hash variance while still catching a
	// modulo-style full reshuffle.
	if moved == 0 || moved > n*45/100 {
		t.Fatalf("moved %d/%d keys; want a small non-zero fraction", moved, n)
	}
}

func TestRingEmptyAndNil(t *testing.T) {
	if r := NewRing(nil); r != nil {
		t.Fatal("empty member list should yield a nil ring")
	}
	var r *Ring
	if o := r.Owner("k"); o != "" {
		t.Fatalf("nil ring owner = %q, want empty", o)
	}
}
