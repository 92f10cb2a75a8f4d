package rescache

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"roughsim/internal/telemetry"
)

func jsonCodec() Codec {
	return Codec{
		Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
		Decode: func(b []byte) (any, error) {
			var v float64
			err := json.Unmarshal(b, &v)
			return v, err
		},
	}
}

func keyOf(parts ...float64) Key {
	e := NewEnc().Uint64(1)
	for _, p := range parts {
		e.Float64(p)
	}
	return e.Sum()
}

func TestCanonicalFloatEncoding(t *testing.T) {
	// −0 and +0 collapse; distinct NaN payloads collapse; nearby but
	// distinct values do not.
	if keyOf(0.0) != keyOf(math.Copysign(0, -1)) {
		t.Fatal("−0 and +0 must share a key")
	}
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	if keyOf(math.NaN()) != keyOf(nan2) {
		t.Fatal("NaN payloads must collapse to one key")
	}
	if keyOf(1.0) == keyOf(math.Nextafter(1.0, 2)) {
		t.Fatal("adjacent floats must not collide")
	}
	// Field boundaries are unambiguous: ("ab","c") ≠ ("a","bc").
	k1 := NewEnc().String("ab").String("c").Sum()
	k2 := NewEnc().String("a").String("bc").Sum()
	if k1 == k2 {
		t.Fatal("length-prefixed strings must not alias")
	}
	// The encoding (and thus the key) is reproducible.
	if keyOf(3.7, 5e9) != keyOf(3.7, 5e9) {
		t.Fatal("encoding must be deterministic")
	}
}

func TestMemoryTierHitAndLRUEviction(t *testing.T) {
	m := telemetry.NewRegistry()
	c, err := New(2, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(keyOf(1)); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put(keyOf(1), 0.0)
	c.Put(keyOf(2), 1.0)
	if v, ok := c.Get(keyOf(1)); !ok || v.(float64) != 0 {
		t.Fatalf("expected memory hit of first value, got ok=%v v=%v", ok, v)
	}
	// Insert a third key: capacity 2 evicts the LRU entry (keyOf(2)).
	c.Put(keyOf(3), 3.0)
	if _, ok := c.Get(keyOf(2)); ok {
		t.Fatal("evicted key must miss")
	}
	if got := m.Counter("cache.evictions").Value(); got < 1 {
		t.Fatalf("evictions = %d, want ≥ 1", got)
	}
	if got := m.Counter("cache.hits").Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := m.Counter("cache.misses").Value(); got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
}

func TestDiskTierRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	m := telemetry.NewRegistry()
	mk := func() *Cache {
		c, err := New(4, Options{Dir: dir, Codec: jsonCodec(), Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	key := keyOf(1.25, 9e9)
	mk().Put(key, 2.5)
	// A fresh cache (fresh memory tier) must hit the disk tier.
	c := mk()
	if v, ok := c.Get(key); !ok || v.(float64) != 2.5 {
		t.Fatalf("disk hit: v=%v ok=%v", v, ok)
	}
	if m.Counter("cache.disk_hits").Value() != 1 {
		t.Fatalf("disk_hits = %d", m.Counter("cache.disk_hits").Value())
	}
	// The disk hit was promoted: the next Get is a memory hit.
	if v, ok := c.Get(key); !ok || v.(float64) != 2.5 || m.Counter("cache.disk_hits").Value() != 1 {
		t.Fatalf("promoted hit: v=%v ok=%v disk_hits=%d", v, ok, m.Counter("cache.disk_hits").Value())
	}
	// Corrupt the file: the entry reads as a miss, and a Put rewrites it.
	if err := os.WriteFile(filepath.Join(dir, key.String()+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := mk().Get(key); ok {
		t.Fatalf("corrupt entry served: %v", v)
	}
	if m.Counter("cache.disk_errors").Value() == 0 {
		t.Fatal("corruption must be counted")
	}
	mk().Put(key, 7.5)
	if v, ok := mk().Get(key); !ok || v.(float64) != 7.5 {
		t.Fatalf("rewritten entry: v=%v ok=%v", v, ok)
	}
}

// TestTruncatedDiskEntryIsMissNotError simulates the torn write the
// fsync+rename discipline exists to prevent: a truncated entry under a
// valid name must deserialize to a miss (recomputable), never an error
// or garbage value.
func TestTruncatedDiskEntryIsMissNotError(t *testing.T) {
	dir := t.TempDir()
	m := telemetry.NewRegistry()
	mk := func() *Cache {
		c, err := New(4, Options{Dir: dir, Codec: jsonCodec(), Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	key := keyOf(2.5, 5e9)
	mk().Put(key, 3.5)
	path := filepath.Join(dir, key.String()+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Put must persist the disk entry: %v", err)
	}
	// Truncate mid-entry (as a crash between write and fsync could have,
	// absent the atomic discipline): "3.5" becomes the unparseable "3.".
	if err := os.Truncate(path, 2); err != nil {
		t.Fatal(err)
	}
	if v, ok := mk().Get(key); ok {
		t.Fatalf("truncated entry must be a miss, got %v", v)
	}
	if m.Counter("cache.disk_errors").Value() == 0 {
		t.Fatal("truncated entry must be counted as a disk error")
	}
	// A zero-byte file (rename landed, data blocks did not) is also a miss.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := mk().Get(key); ok {
		t.Fatal("empty entry must be a miss")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub") // exercises MkdirAll
	if err := WriteFileAtomic(dir, "k.json", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(dir, "k.json", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "k.json"))
	if err != nil || string(b) != "v2" {
		t.Fatalf("read back %q, %v", b, err)
	}
	// No temp droppings survive a successful write.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want only the final file", len(ents))
	}
	// A failed rename (target directory vanished underneath the name)
	// must clean its temp file up instead of leaving droppings behind.
	if err := WriteFileAtomic(dir, filepath.Join("nosuch", "k.json"), []byte("v3")); err == nil {
		t.Fatal("rename into a missing subdirectory should fail")
	}
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("failed rename left %d entries (want only the final file)", len(ents))
	}
	if b, err := os.ReadFile(filepath.Join(dir, "k.json")); err != nil || string(b) != "v2" {
		t.Fatalf("failed write corrupted the durable entry: %q, %v", b, err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Options{}); err == nil {
		t.Fatal("capacity 0 must be rejected")
	}
	if _, err := New(1, Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("disk tier without codec must be rejected")
	}
}

// TestCorruptDiskEntryIsQuarantined: a torn/corrupt disk entry must be
// renamed aside (preserved for post-mortem), counted, never served, and
// must not poison subsequent operation — the slot self-heals on the
// next write.
func TestCorruptDiskEntryIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	m := telemetry.NewRegistry()
	c, err := New(4, Options{Dir: dir, Codec: jsonCodec(), Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf(3.75, 7e9)
	path := filepath.Join(dir, key.String()+".json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(key); ok {
		t.Fatalf("corrupt entry served: %v", v)
	}
	if got := m.Counter("cache.quarantined").Value(); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	// The bytes moved aside, verbatim.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still present: %v", err)
	}
	if b, err := os.ReadFile(path + ".quarantine"); err != nil || string(b) != "{torn" {
		t.Fatalf("quarantined bytes = %q, %v", b, err)
	}
	// Not fatal: the slot heals through the normal write path, and the
	// healed entry is served while the quarantined bytes stay put.
	c.Put(key, 9.5)
	fresh, err := New(4, Options{Dir: dir, Codec: jsonCodec(), Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fresh.Get(key); !ok || v.(float64) != 9.5 {
		t.Fatalf("healed entry: v=%v ok=%v", v, ok)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine file lost: %v", err)
	}
	// Delete removes both tiers' live entry (quarantine remains).
	c.Delete(key)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Delete left the disk entry: %v", err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("Delete left the memory entry")
	}
}
