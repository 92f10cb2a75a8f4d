package rescache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Key is the content address of one cached result: the SHA-256 of the
// canonical binary encoding of everything that determines the result.
type Key [sha256.Size]byte

// String returns the lowercase hex form of the key (the on-disk file
// stem of the disk tier).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by String — the wire shape of
// content addresses in API paths.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return Key{}, fmt.Errorf("rescache: invalid key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// Enc builds the canonical binary encoding that keys the cache. The
// encoding is platform-stable by construction:
//
//   - every integer is written as fixed-width big-endian;
//   - every float64 is written as its IEEE-754 bit pattern — never
//     through decimal formatting, whose output depends on shortest-
//     round-trip heuristics and would alias distinct values (and split
//     equal ones) across writers;
//   - −0 is normalized to +0 and every NaN payload to one canonical
//     quiet NaN, so the only values that compare equal but differ in
//     bits map to one key;
//   - strings and byte slices are length-prefixed, so no concatenation
//     of fields is ambiguous.
//
// Callers should start the encoding with a schema-version tag so the
// key space can be migrated when the meaning of a field changes.
type Enc struct {
	buf []byte
}

// NewEnc returns an empty encoder.
func NewEnc() *Enc { return &Enc{buf: make([]byte, 0, 128)} }

// Uint64 appends v big-endian.
func (e *Enc) Uint64(v uint64) *Enc {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	return e
}

// Int appends v as a two's-complement 64-bit value.
func (e *Enc) Int(v int) *Enc { return e.Uint64(uint64(int64(v))) }

// canonicalNaN is the single bit pattern all NaNs encode to.
var canonicalNaN = math.Float64bits(math.NaN())

// Float64 appends the canonicalized IEEE-754 bits of v.
func (e *Enc) Float64(v float64) *Enc {
	switch {
	case math.IsNaN(v):
		return e.Uint64(canonicalNaN)
	case v == 0:
		// Collapse −0 and +0.
		return e.Uint64(0)
	default:
		return e.Uint64(math.Float64bits(v))
	}
}

// Float64s appends a length-prefixed float64 slice.
func (e *Enc) Float64s(vs []float64) *Enc {
	e.Int(len(vs))
	for _, v := range vs {
		e.Float64(v)
	}
	return e
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) *Enc {
	e.Int(len(s))
	e.buf = append(e.buf, s...)
	return e
}

// Sum returns the SHA-256 content address of the encoding.
func (e *Enc) Sum() Key { return sha256.Sum256(e.buf) }
