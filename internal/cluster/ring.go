package cluster

import (
	"sort"
	"strconv"

	"roughsim/internal/resilience"
)

// Ring is a consistent-hash ring over shard base URLs. Each member owns
// the keys that hash onto its virtual nodes, so /k queries and sweep
// submissions for one content address always land on the same shard —
// the one whose caches are warm for it — and membership changes move
// only ~1/n of the key space.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

const virtualNodes = 64

// NewRing builds a ring over members (order-insensitive; duplicates are
// folded). An empty member list yields a nil ring, whose Owner returns
// "".
func NewRing(members []string) *Ring {
	seen := map[string]bool{}
	r := &Ring{}
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{mix(resilience.StringHash(m + "#" + strconv.Itoa(v))), m})
		}
	}
	if len(r.points) == 0 {
		return nil
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Owner returns the member owning key (the first virtual node at or
// clockwise after the key's hash).
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := mix(resilience.StringHash(key))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// mix is a 64-bit avalanche finalizer (the murmur3/splitmix constants).
// The string hash alone clusters hashes of near-identical strings —
// virtual nodes of one member can then bunch into a thin arc and own
// almost no keyspace — so every ring position passes through a full
// avalanche.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
