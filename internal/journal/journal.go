// Package journal is the durability substrate of roughsimd: an
// append-only, fsync'd, CRC-checked write-ahead log of job lifecycle
// records. The daemon journals only what replay reads: one submission
// record per durable job or campaign (submitted, sparams-submitted,
// campaign-submitted), a started record per attempt (it seeds the
// retry budget) and one terminal record (completed, failed, canceled).
// It replays the log on boot, so a crash — kill -9, OOM, power loss —
// loses no accepted work: unfinished jobs and campaigns are re-enqueued
// with their attempt history. Which anchor checkpoints and campaign
// cells finished before the crash is not journaled: resume probes the
// checkpoint and result caches for them.
//
// On-disk format: a flat sequence of frames, each
//
//	uint32 payload length (big-endian)
//	uint32 IEEE CRC-32 of the payload
//	payload (one JSON-encoded, schema-versioned Record)
//
// Appends are a single write followed by fsync, so every record the
// journal has acknowledged survives a crash. Replay is torn-tail
// tolerant by construction: a crash mid-append leaves a short or
// CRC-mismatching final frame, which Open detects and discards —
// everything before it is intact because frames are never rewritten.
//
// Open also compacts: after folding the old log into its set of
// still-pending jobs and campaigns, it atomically rewrites the file to
// contain exactly one submission record per pending entry (temp file +
// fsync + rename + directory fsync), so the journal stays proportional
// to the live work set instead of growing with history across restarts.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"roughsim/internal/rescache"
	"roughsim/internal/telemetry"
)

// Op is the lifecycle transition a record describes.
type Op string

const (
	// OpSubmitted: a job was accepted; Config carries the payload replay
	// needs to reconstruct it.
	OpSubmitted Op = "submitted"
	// OpStarted: a worker picked the job up for its Attempt-th attempt.
	OpStarted Op = "started"
	// OpCompleted: the job succeeded; replay drops it.
	OpCompleted Op = "completed"
	// OpFailed: the job failed terminally (retries exhausted or the
	// failure kind is permanent); replay drops it.
	OpFailed Op = "failed"
	// OpCanceled: the job was canceled by the user; replay drops it.
	// Jobs canceled by a shutdown drain are deliberately NOT journaled
	// as canceled, so they stay pending and resume on restart.
	OpCanceled Op = "canceled"

	// OpCampaignSubmitted: a campaign was accepted; JobID carries the
	// campaign's content-addressed ID (64 hex characters, so it never
	// collides with a 32-character job ID) and Config its
	// CampaignConfig, so a replay restarts the study under the ID
	// clients already hold. A campaign shares the job lifecycle: its
	// outcome is the ordinary completed / failed / canceled record.
	OpCampaignSubmitted Op = "campaign-submitted"

	// OpSparamsSubmitted: an S-parameter artifact job was accepted;
	// Config carries the SParamConfig JSON. It shares the sweep job
	// lifecycle (started / terminal ops under the same JobID) but is
	// kept a distinct submission op so replay re-dispatches it to the
	// S-parameter runner, not the sweep runner.
	OpSparamsSubmitted Op = "sparams-submitted"
)

// Campaign terminal ops of journals written before campaigns shared the
// job records. Nothing writes them any more; Fold still reads them as
// terminal records, so a campaign that finished or was canceled under
// the old vocabulary does not restart after an upgrade. The other ops
// older daemons wrote (anchor-done, lease-granted, lease-expired,
// campaign-cell-done) are ops Fold does not know, so it skips them.
const (
	legacyCampaignCompleted Op = "campaign-completed"
	legacyCampaignFailed    Op = "campaign-failed"
	legacyCampaignCanceled  Op = "campaign-canceled"
)

// SchemaVersion tags every record; bump it when the meaning of a field
// changes so replay can skip (not misread) stale records.
const SchemaVersion = 1

// Record is one journaled lifecycle transition.
type Record struct {
	Schema  int    `json:"v"`
	Seq     uint64 `json:"seq"`
	Unix    int64  `json:"t"` // append time, unix nanoseconds
	Op      Op     `json:"op"`
	JobID   string `json:"job"`
	Key     string `json:"key,omitempty"` // sweep content address (hex)
	Attempt int    `json:"attempt,omitempty"`
	// Config is the opaque job payload (the sweep config JSON) replay
	// hands back to the submitter.
	Config json.RawMessage `json:"config,omitempty"`
	Error  string          `json:"error,omitempty"`
	Kind   string          `json:"kind,omitempty"` // resilience.Kind label
}

// Pending is one unfinished job or campaign reconstructed by replay.
type Pending struct {
	JobID string
	Key   string
	// Op is the submission op that created the job (OpSubmitted,
	// OpSparamsSubmitted or OpCampaignSubmitted) — replay dispatches on
	// it, and compact re-emits it so the distinction survives restarts.
	Op Op
	// Config is the submitted payload, verbatim.
	Config json.RawMessage
	// Attempts is how many times a worker started the job before the
	// crash; the submitter folds it into the job's remaining budget.
	Attempts int
}

const (
	frameHeader = 8        // uint32 length + uint32 crc
	maxRecord   = 16 << 20 // sanity bound on one record; larger lengths read as torn tail
)

// Journal is an open write-ahead log. Appends are safe for concurrent
// use.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	seq  uint64

	appends, tornTails, schemaSkips *telemetry.Counter
}

// Open replays (and compacts) the journal at path, creating it when
// absent, and returns the log opened for append plus the jobs and
// campaigns still pending at the last crash or shutdown, in submission
// order.
func Open(path string, m *telemetry.Registry) (*Journal, []Pending, error) {
	j := &Journal{
		path:        path,
		appends:     m.Counter("journal.appends"),
		tornTails:   m.Counter("journal.torn_tails"),
		schemaSkips: m.Counter("journal.schema_skips"),
	}
	recs, torn, err := readAll(path)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		j.tornTails.Inc()
	}
	var kept []Record
	for _, r := range recs {
		if r.Schema != SchemaVersion {
			j.schemaSkips.Inc()
			continue
		}
		kept = append(kept, r)
	}
	pending := Fold(kept)
	if err := j.compact(pending); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open for append: %w", err)
	}
	j.f = f
	j.seq = uint64(len(pending))
	camps := 0
	for _, p := range pending {
		if p.Op == OpCampaignSubmitted {
			camps++
		}
	}
	m.Gauge("journal.pending_jobs").Set(float64(len(pending) - camps))
	m.Gauge("journal.pending_campaigns").Set(float64(camps))
	return j, pending, nil
}

// Append durably writes one record: the frame is written and fsynced
// before Append returns, so an acknowledged record survives any crash.
// Seq, Unix and Schema are filled in by the journal.
func (j *Journal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	j.seq++
	r.Schema = SchemaVersion
	r.Seq = j.seq
	r.Unix = time.Now().UnixNano()
	frame, err := encodeFrame(r)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.appends.Inc()
	return nil
}

// Close releases the journal file. Records already appended stay
// durable; further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// compact atomically rewrites the journal to one submission record per
// pending job and campaign (rescache.WriteFileAtomic: temp file + fsync
// + rename + directory fsync), bounding the file to the live work set.
func (j *Journal) compact(pending []Pending) error {
	now := time.Now().UnixNano()
	var buf []byte
	for i, p := range pending {
		frame, err := encodeFrame(Record{
			Schema: SchemaVersion, Seq: uint64(i + 1), Unix: now,
			Op: p.Op, JobID: p.JobID, Key: p.Key,
			Attempt: p.Attempts, Config: p.Config,
		})
		if err != nil {
			return err
		}
		buf = append(buf, frame...)
	}
	if err := rescache.WriteFileAtomic(filepath.Dir(j.path), filepath.Base(j.path), buf); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	return nil
}

// encodeFrame marshals r and wraps it in a length+CRC frame.
func encodeFrame(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("journal: encode: %w", err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// readAll parses every intact frame of the file at path. torn reports
// whether a trailing partial or corrupt frame was discarded; a missing
// file reads as an empty journal.
func readAll(path string) (recs []Record, torn bool, err error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("journal: read: %w", err)
	}
	for off := 0; off < len(b); {
		if len(b)-off < frameHeader {
			return recs, true, nil
		}
		n := int(binary.BigEndian.Uint32(b[off : off+4]))
		if n > maxRecord || n > len(b)-off-frameHeader {
			return recs, true, nil
		}
		payload := b[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[off+4:off+8]) {
			return recs, true, nil
		}
		var r Record
		if json.Unmarshal(payload, &r) != nil {
			// A CRC-valid frame that is not JSON means a writer bug or
			// foreign file; treat like a torn tail rather than failing boot.
			return recs, true, nil
		}
		recs = append(recs, r)
		off += frameHeader + n
	}
	return recs, false, nil
}

// ReadAll parses every intact record of the journal at path without
// opening it for append — the inspection/debugging entry point.
func ReadAll(path string) ([]Record, error) {
	recs, _, err := readAll(path)
	return recs, err
}

// Fold reduces a record sequence to the jobs and campaigns still
// pending at its end: a submission op (submitted, sparams-submitted,
// campaign-submitted) creates one, started advances its attempt count,
// and every terminal op (completed, failed, canceled) removes it; the
// legacy campaign terminal ops fold as their job-record counterparts
// and any other op is skipped. Order of first submission is preserved.
func Fold(recs []Record) []Pending {
	byID := map[string]*Pending{}
	var order []string
	for _, r := range recs {
		switch r.Op {
		case OpSubmitted, OpSparamsSubmitted, OpCampaignSubmitted:
			if _, ok := byID[r.JobID]; ok {
				continue
			}
			byID[r.JobID] = &Pending{JobID: r.JobID, Key: r.Key, Op: r.Op, Config: r.Config, Attempts: r.Attempt}
			order = append(order, r.JobID)
		case OpStarted:
			if p, ok := byID[r.JobID]; ok && r.Attempt > p.Attempts {
				p.Attempts = r.Attempt
			}
		case OpCompleted, OpFailed, OpCanceled,
			legacyCampaignCompleted, legacyCampaignFailed, legacyCampaignCanceled:
			delete(byID, r.JobID)
		}
	}
	out := make([]Pending, 0, len(byID))
	for _, id := range order {
		if p, ok := byID[id]; ok {
			out = append(out, *p)
			delete(byID, id) // a resubmitted ID sits twice in order
		}
	}
	return out
}
