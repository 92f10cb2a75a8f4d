// Package rescache is the content-addressed result cache of the service
// tier. The K(f) workload is embarrassingly repeatable — the same
// (material, surface process, grid, frequency) tuple recurs across
// sweeps, ablations and figure regeneration — so results are cached
// under the SHA-256 of a canonical binary encoding of the full solver
// configuration plus frequency (see Enc), through two tiers:
//
//   - an in-memory LRU holding decoded values, sized in entries;
//   - an optional on-disk tier (one JSON-codec file per key, written
//     atomically via rename), surviving process restarts.
//
// The cache never computes: callers probe it with Get and store what
// they computed with Put. Sharing one computation among concurrent
// identical requests is the caller's single-flight (see internal/memo).
// Hit/miss/eviction counts are published through telemetry.
package rescache

import (
	"fmt"
	"os"
	"path/filepath"

	"roughsim/internal/memo"
	"roughsim/internal/telemetry"
)

// Codec (de)serializes values for the disk tier.
type Codec struct {
	Encode func(v any) ([]byte, error)
	Decode func(b []byte) (any, error)
}

// Options configures optional cache behavior.
type Options struct {
	// Dir enables the disk tier when non-empty; the directory is
	// created on first write. Requires a Codec.
	Dir string
	// Codec encodes values to/from the disk tier.
	Codec Codec
	// Metrics receives cache.* counters; nil disables instrumentation.
	Metrics *telemetry.Registry
}

// Cache is a two-tier result cache, safe for concurrent use.
type Cache struct {
	opt Options
	mem *memo.LRU[Key, any]

	misses, diskHits, diskErrors, quarantined *telemetry.Counter
}

// New builds a cache holding up to capacity entries in memory.
func New(capacity int, opt Options) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("rescache: capacity must be positive (got %d)", capacity)
	}
	if opt.Dir != "" && (opt.Codec.Encode == nil || opt.Codec.Decode == nil) {
		return nil, fmt.Errorf("rescache: disk tier %q needs a codec", opt.Dir)
	}
	m := opt.Metrics
	c := &Cache{
		opt:         opt,
		misses:      m.Counter("cache.misses"),
		diskHits:    m.Counter("cache.disk_hits"),
		diskErrors:  m.Counter("cache.disk_errors"),
		quarantined: m.Counter("cache.quarantined"),
	}
	evictions, entries := m.Counter("cache.evictions"), m.Gauge("cache.entries")
	c.mem = memo.NewLRU[Key, any](capacity, memo.Hooks{
		Hit: m.Counter("cache.hits").Inc,
		Resized: func(evicted, size int) {
			evictions.Add(int64(evicted))
			entries.Set(float64(size))
		},
	})
	return c, nil
}

// Len returns the number of entries in the memory tier.
func (c *Cache) Len() int { return c.mem.Len() }

// Get probes the memory tier, then the disk tier, without computing.
// A disk hit is promoted into the memory tier. The batched sweep path
// uses Get to split a sweep into cached and missing points before
// handing the missing ones to the engine as one unit.
func (c *Cache) Get(key Key) (any, bool) {
	if v, ok := c.mem.Get(key); ok {
		return v, true
	}
	if v, ok := c.readDisk(key); ok {
		c.mem.Add(key, v)
		return v, true
	}
	c.misses.Inc()
	return nil, false
}

// Put inserts a computed value into the memory tier (and the disk tier
// when enabled).
func (c *Cache) Put(key Key, v any) {
	c.writeDisk(key, v)
	c.mem.Add(key, v)
}

// readDisk probes the disk tier. A corrupt entry is quarantined and
// reads as a miss, so the next Put rewrites it.
func (c *Cache) readDisk(key Key) (any, bool) {
	if c.opt.Dir == "" {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	v, err := c.opt.Codec.Decode(b)
	if err != nil {
		c.quarantine(key)
		return nil, false
	}
	c.diskHits.Inc()
	return v, true
}

// Delete removes key from both tiers. The durable-sweep path uses it to
// purge consumed per-node checkpoints once a job's final result is
// itself durably cached, so checkpoint space is bounded by in-flight
// work rather than history.
func (c *Cache) Delete(key Key) {
	c.mem.Remove(key)
	if c.opt.Dir != "" {
		if err := os.Remove(c.path(key)); err != nil && !os.IsNotExist(err) {
			c.diskErrors.Inc()
		}
	}
}

func (c *Cache) path(key Key) string {
	return filepath.Join(c.opt.Dir, key.String()+".json")
}

// quarantine moves a disk entry that failed to decode aside (same name
// with a ".quarantine" suffix, atomically, clobbering any previous
// quarantined generation) instead of deleting it: the entry stops being
// served and stops failing every probe, but the bytes stay available
// for a post-mortem. Rename-aside also self-heals the cache — the next
// Put rewrites the slot through the atomic write path.
func (c *Cache) quarantine(key Key) {
	c.diskErrors.Inc() // corruption is a disk error whether or not the rename lands
	src := c.path(key)
	if err := os.Rename(src, src+".quarantine"); err != nil {
		return
	}
	c.quarantined.Inc()
}

// writeDisk persists one value atomically when the disk tier is
// enabled (temp file + fsync + rename, see WriteFileAtomic), so a crash
// mid-write never leaves a truncated entry for readDisk to trust. A
// failure is counted, not returned: the memory tier still serves v.
func (c *Cache) writeDisk(key Key, v any) {
	if c.opt.Dir == "" {
		return
	}
	b, err := c.opt.Codec.Encode(v)
	if err == nil {
		err = WriteFileAtomic(c.opt.Dir, key.String()+".json", b)
	}
	if err != nil {
		c.diskErrors.Inc()
	}
}
