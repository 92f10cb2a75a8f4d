package journal

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"roughsim/internal/telemetry"
)

func openT(t *testing.T, path string) (*Journal, []Pending) {
	t.Helper()
	j, pending, err := Open(path, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, pending
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, pending := openT(t, path)
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending jobs", len(pending))
	}
	cfg := json.RawMessage(`{"freqs_hz":[1e9]}`)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Append(Record{Op: OpSubmitted, JobID: "a", Key: "k-a", Config: cfg}))
	must(j.Append(Record{Op: OpStarted, JobID: "a", Attempt: 1}))
	must(j.Append(Record{Op: OpSubmitted, JobID: "b", Key: "k-b", Config: cfg}))
	must(j.Append(Record{Op: OpSubmitted, JobID: "c", Key: "k-c", Config: cfg}))
	must(j.Append(Record{Op: OpCompleted, JobID: "c"}))
	j.Close()

	_, pending = openT(t, path)
	if len(pending) != 2 {
		t.Fatalf("pending = %d jobs, want 2 (a, b)", len(pending))
	}
	a, b := pending[0], pending[1]
	if a.JobID != "a" || b.JobID != "b" {
		t.Fatalf("pending order = %q, %q; want a, b", a.JobID, b.JobID)
	}
	if a.Attempts != 1 || a.Key != "k-a" {
		t.Fatalf("job a replayed as %+v", a)
	}
	if string(a.Config) != string(cfg) {
		t.Fatalf("config round-trip: %s", a.Config)
	}
	if b.Attempts != 0 {
		t.Fatalf("job b replayed as %+v", b)
	}
}

// A torn tail — the partial frame a kill -9 mid-append leaves — must be
// discarded on replay without losing the records before it.
func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := openT(t, path)
	if err := j.Append(Record{Op: OpSubmitted, JobID: "a", Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpSubmitted, JobID: "b", Key: "k"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	for name, tear := range map[string]func([]byte) []byte{
		"short-frame":    func(b []byte) []byte { return append(b, 0x00, 0x00, 0x01) },
		"length-runaway": func(b []byte) []byte { return append(b, 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 'x') },
		"crc-mismatch": func(b []byte) []byte {
			// A full frame whose payload does not match its CRC.
			return append(b, 0, 0, 0, 2, 0xde, 0xad, 0xbe, 0xef, '{', '}')
		},
	} {
		t.Run(name, func(t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			torn := filepath.Join(t.TempDir(), "wal")
			if err := os.WriteFile(torn, tear(append([]byte(nil), b...)), 0o644); err != nil {
				t.Fatal(err)
			}
			m := telemetry.NewRegistry()
			jr, rep, err := Open(torn, m)
			if err != nil {
				t.Fatalf("torn journal failed to open: %v", err)
			}
			defer jr.Close()
			if len(rep) != 2 {
				t.Fatalf("pending = %d, want the 2 intact records", len(rep))
			}
			if n := m.Counter("journal.torn_tails").Value(); n != 1 {
				t.Fatalf("torn_tails = %d, want 1", n)
			}
			// The rewrite (compaction) must have healed the file: a second
			// open sees no tear.
			m2 := telemetry.NewRegistry()
			jr2, rep2, err := Open(torn, m2)
			if err != nil {
				t.Fatal(err)
			}
			defer jr2.Close()
			if len(rep2) != 2 || m2.Counter("journal.torn_tails").Value() != 0 {
				t.Fatalf("reopen after heal: %d pending, torn=%d", len(rep2),
					m2.Counter("journal.torn_tails").Value())
			}
		})
	}
}

// Compaction keeps the file proportional to the live work set: finished
// jobs leave no bytes behind after a reopen.
func TestCompactionBoundsGrowth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := openT(t, path)
	for i := 0; i < 200; i++ {
		id := string(rune('a'+i%26)) + "-job"
		if err := j.Append(Record{Op: OpSubmitted, JobID: id, Key: "k"}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Op: OpCompleted, JobID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(Record{Op: OpSubmitted, JobID: "live", Key: "k"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	before, _ := os.Stat(path)

	_, pending := openT(t, path)
	if len(pending) != 1 || pending[0].JobID != "live" {
		t.Fatalf("pending = %+v, want only job live", pending)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size()/10 {
		t.Fatalf("compaction left %d of %d bytes", after.Size(), before.Size())
	}
}

// Records with an unknown schema version are skipped, not misread.
func TestUnknownSchemaSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	future, err := encodeFrame(Record{Schema: SchemaVersion + 1, Op: OpSubmitted, JobID: "x", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	// encodeFrame preserves the schema we set? Append overwrites it, but
	// encodeFrame does not — verify the fixture is what we think.
	var check Record
	if err := json.Unmarshal(future[frameHeader:], &check); err != nil || check.Schema != SchemaVersion+1 {
		t.Fatalf("fixture schema = %d, err %v", check.Schema, err)
	}
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewRegistry()
	jr, rep, err := Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(rep) != 0 {
		t.Fatalf("future-schema record replayed: %+v", rep)
	}
	if m.Counter("journal.schema_skips").Value() != 1 {
		t.Fatal("schema skip not counted")
	}
}

// The anchor-done and lease-* records older daemons wrote are ops Fold
// does not know: they neither create, resurrect nor alter a pending job.
func TestFoldSemantics(t *testing.T) {
	recs := []Record{
		{Op: OpSubmitted, JobID: "a", Key: "ka", Attempt: 2}, // compacted record carries prior attempts
		{Op: OpStarted, JobID: "a", Attempt: 3},
		{Op: "lease-granted", JobID: "a", Key: "col-0"},
		{Op: "lease-expired", JobID: "a", Key: "col-0"},
		{Op: "anchor-done", JobID: "a"},
		{Op: OpSubmitted, JobID: "dup", Key: "k1"},
		{Op: OpSubmitted, JobID: "dup", Key: "k2"},  // duplicate submit ignored
		{Op: OpStarted, JobID: "ghost", Attempt: 1}, // started without submitted: ignored
		{Op: "anchor-done", JobID: "ghost"},
		{Op: "lease-expired", JobID: "ghost"},
		{Op: OpSubmitted, JobID: "f", Key: "kf"},
		{Op: OpFailed, JobID: "f", Kind: "invalid-input"},
		{Op: "lease-expired", JobID: "f"}, // after the terminal record: f stays done
		{Op: OpSubmitted, JobID: "c", Key: "kc"},
		{Op: OpCanceled, JobID: "c"},
	}
	pending := Fold(recs)
	if len(pending) != 2 {
		t.Fatalf("pending = %+v, want a and dup", pending)
	}
	if pending[0].JobID != "a" || pending[0].Attempts != 3 {
		t.Fatalf("job a folded as %+v", pending[0])
	}
	if pending[1].JobID != "dup" || pending[1].Key != "k1" {
		t.Fatalf("dup folded as %+v", pending[1])
	}
}

// Campaigns fold through the same records as jobs: outcomes are the
// job terminal records, and the anchor-done cell records older daemons
// wrote are skipped.
func TestFoldCampaignsSemantics(t *testing.T) {
	cfg := json.RawMessage(`{"band":{"fmin_hz":1e9,"fmax_hz":2e9}}`)
	recs := []Record{
		{Op: OpCampaignSubmitted, JobID: "camp-a", Key: "camp-a", Config: cfg},
		{Op: "anchor-done", JobID: "camp-a"},
		{Op: OpSubmitted, JobID: "job-1", Key: "kj"},
		{Op: "anchor-done", JobID: "camp-a"},
		{Op: OpCampaignSubmitted, JobID: "camp-a", Key: "other"}, // duplicate submit ignored
		{Op: OpCampaignSubmitted, JobID: "camp-done", Key: "camp-done"},
		{Op: OpCompleted, JobID: "camp-done"},
		{Op: OpCampaignSubmitted, JobID: "camp-x", Key: "camp-x"},
		{Op: OpCanceled, JobID: "camp-x"},
		{Op: "anchor-done", JobID: "ghost"}, // anchor-done without submitted: ignored
		// A content-addressed campaign submitted again after its terminal
		// record is pending once, not once per submission.
		{Op: OpCampaignSubmitted, JobID: "camp-again", Key: "camp-again"},
		{Op: OpFailed, JobID: "camp-again"},
		{Op: OpCampaignSubmitted, JobID: "camp-again", Key: "camp-again"},
	}
	pending := Fold(recs)
	if len(pending) != 3 {
		t.Fatalf("pending = %+v, want camp-a, job-1 and camp-again", pending)
	}
	c := pending[0]
	if c.JobID != "camp-a" || c.Key != "camp-a" || c.Op != OpCampaignSubmitted || string(c.Config) != string(cfg) {
		t.Fatalf("camp-a folded as %+v", c)
	}
	if pending[1].JobID != "job-1" || pending[1].Op != OpSubmitted {
		t.Fatalf("job-1 folded as %+v", pending[1])
	}
	if pending[2].JobID != "camp-again" || pending[2].Op != OpCampaignSubmitted {
		t.Fatalf("camp-again folded as %+v", pending[2])
	}
}

// A journal written before campaigns shared the job records carries
// the four campaign-* cell and terminal ops. It must fold to the pending
// set the old campaign fold gave, so a finished or canceled campaign
// does not restart after an upgrade.
func TestLegacyCampaignRecordsFold(t *testing.T) {
	cfg := json.RawMessage(`{"cells":[{"cf":"gaussian","sigma":4e-7,"eta":1e-6}],"freqs_hz":[1e9]}`)
	recs := []Record{
		{Op: OpCampaignSubmitted, JobID: "camp-live", Key: "camp-live", Config: cfg},
		{Op: "campaign-cell-done", JobID: "camp-live"},
		{Op: OpSubmitted, JobID: "job-1", Key: "kj", Config: cfg},
		{Op: "campaign-cell-done", JobID: "camp-live"},
		{Op: OpCampaignSubmitted, JobID: "camp-done", Key: "camp-done", Config: cfg},
		{Op: "campaign-cell-done", JobID: "camp-done"},
		{Op: "campaign-completed", JobID: "camp-done"},
		{Op: OpCampaignSubmitted, JobID: "camp-failed", Key: "camp-failed", Config: cfg},
		{Op: "campaign-failed", JobID: "camp-failed", Error: "cell 0: boom"},
		{Op: OpCampaignSubmitted, JobID: "camp-canceled", Key: "camp-canceled", Config: cfg},
		{Op: "campaign-canceled", JobID: "camp-canceled"},
		{Op: "campaign-cell-done", JobID: "camp-live"},
	}
	// The old fold gave exactly one pending campaign, camp-live, beside
	// the one pending job.
	pending := Fold(recs)
	if len(pending) != 2 {
		t.Fatalf("pending = %+v, want job-1 and camp-live", pending)
	}
	if pending[0].JobID != "camp-live" || pending[0].Op != OpCampaignSubmitted ||
		string(pending[0].Config) != string(cfg) {
		t.Fatalf("camp-live folded as %+v", pending[0])
	}
	if pending[1].JobID != "job-1" || pending[1].Op != OpSubmitted {
		t.Fatalf("job-1 folded as %+v", pending[1])
	}

	// Through the file: Open replays the legacy journal to the same set,
	// counts it in both gauges, and compacts it to current records only.
	path := filepath.Join(t.TempDir(), "wal")
	var file []byte
	for i, r := range recs {
		r.Schema, r.Seq = SchemaVersion, uint64(i+1)
		frame, err := encodeFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		file = append(file, frame...)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewRegistry()
	j, rep, err := Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(rep) != 2 || rep[0].JobID != "camp-live" || rep[1].JobID != "job-1" {
		t.Fatalf("legacy journal replayed as %+v", rep)
	}
	if m.Gauge("journal.pending_jobs").Value() != 1 || m.Gauge("journal.pending_campaigns").Value() != 1 {
		t.Fatalf("gauges: pending_jobs %g, pending_campaigns %g; want 1 and 1",
			m.Gauge("journal.pending_jobs").Value(), m.Gauge("journal.pending_campaigns").Value())
	}
	compacted, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted) != 2 || compacted[0].Op != OpCampaignSubmitted || compacted[1].Op != OpSubmitted {
		t.Fatalf("compacted legacy journal = %+v", compacted)
	}
}

// rawFrame frames an already-encoded payload the way encodeFrame does,
// so a test can write records with fields Record no longer has.
func rawFrame(payload string) []byte {
	frame := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE([]byte(payload)))
	copy(frame[frameHeader:], payload)
	return frame
}

// olderJournal is a journal as daemons that journaled checkpoint,
// campaign cell and lease events wrote it: anchor-done records carry a
// wire-offset anchor index and lease records a worker label.
var olderJournal = []string{
	`{"v":1,"seq":1,"t":1,"op":"submitted","job":"job-a","key":"ka","config":{"freqs_hz":[1e9]}}`,
	`{"v":1,"seq":2,"t":2,"op":"started","job":"job-a","attempt":1}`,
	`{"v":1,"seq":3,"t":3,"op":"lease-granted","job":"job-a","key":"col-0","anchor":2,"worker":"w1"}`,
	`{"v":1,"seq":4,"t":4,"op":"lease-expired","job":"job-a","key":"col-0","anchor":2,"worker":"w1"}`,
	`{"v":1,"seq":5,"t":5,"op":"anchor-done","job":"job-a","anchor":1}`,
	`{"v":1,"seq":6,"t":6,"op":"campaign-submitted","job":"camp","key":"camp","config":{"freqs_hz":[2e9]}}`,
	`{"v":1,"seq":7,"t":7,"op":"anchor-done","job":"camp","anchor":2}`,
	`{"v":1,"seq":8,"t":8,"op":"campaign-cell-done","job":"camp","anchor":3}`,
	`{"v":1,"seq":9,"t":9,"op":"submitted","job":"job-b","key":"kb"}`,
	`{"v":1,"seq":10,"t":10,"op":"anchor-done","job":"job-b","anchor":2}`,
	`{"v":1,"seq":11,"t":11,"op":"completed","job":"job-b"}`,
	`{"v":1,"seq":12,"t":12,"op":"lease-expired","job":"job-b","anchor":3,"worker":"w2"}`,
	`{"v":1,"seq":13,"t":13,"op":"lease-expired","job":"ghost","anchor":2,"worker":"w2"}`,
}

// A journal written with anchor-done, lease-* and campaign-cell-done
// records replays to the same pending jobs and campaigns, under their
// original IDs and attempt counts, and compacts to submission records
// only.
func TestOlderJournalReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	var file []byte
	for _, p := range olderJournal {
		file = append(file, rawFrame(p)...)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 2; cycle++ {
		m := telemetry.NewRegistry()
		j, pending, err := Open(path, m)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if m.Counter("journal.torn_tails").Value() != 0 {
			t.Fatalf("cycle %d: older journal read as torn", cycle)
		}
		if len(pending) != 2 {
			t.Fatalf("cycle %d: pending = %+v, want job-a and camp", cycle, pending)
		}
		a, c := pending[0], pending[1]
		if a.JobID != "job-a" || a.Op != OpSubmitted || a.Key != "ka" || a.Attempts != 1 ||
			string(a.Config) != `{"freqs_hz":[1e9]}` {
			t.Fatalf("cycle %d: job-a replayed as %+v", cycle, a)
		}
		if c.JobID != "camp" || c.Op != OpCampaignSubmitted || string(c.Config) != `{"freqs_hz":[2e9]}` {
			t.Fatalf("cycle %d: camp replayed as %+v", cycle, c)
		}
		compacted, err := ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(compacted) != 2 || compacted[0].Op != OpSubmitted || compacted[1].Op != OpCampaignSubmitted {
			t.Fatalf("cycle %d: compacted journal = %+v", cycle, compacted)
		}
	}
}

// A pending campaign must survive compaction (reopen) verbatim beside
// a job, each counted in its own gauge, and the ordinary completed
// record must drop it.
func TestCampaignCompactionRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := openT(t, path)
	cfg := json.RawMessage(`{"cells":[{"cf":"gaussian","sigma":4e-7,"eta":1e-6}],"freqs_hz":[1e9]}`)
	appends := []Record{
		{Op: OpCampaignSubmitted, JobID: "camp-1", Key: "camp-1", Config: cfg},
		{Op: OpSubmitted, JobID: "job-1", Key: "kj"},
	}
	for _, r := range appends {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	m := telemetry.NewRegistry()
	j2, rep, err := Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 2 || rep[1].JobID != "job-1" {
		t.Fatalf("pending = %+v", rep)
	}
	c := rep[0]
	if c.JobID != "camp-1" || c.Op != OpCampaignSubmitted || string(c.Config) != string(cfg) {
		t.Fatalf("campaign replayed as %+v", c)
	}
	if g := m.Gauge("journal.pending_campaigns").Value(); g != 1 {
		t.Fatalf("pending_campaigns gauge = %g, want 1", g)
	}
	if g := m.Gauge("journal.pending_jobs").Value(); g != 1 {
		t.Fatalf("pending_jobs gauge = %g, want 1", g)
	}
	if err := j2.Append(Record{Op: OpCompleted, JobID: "camp-1"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, rep2, err := Open(path, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2) != 1 || rep2[0].JobID != "job-1" {
		t.Fatalf("after the campaign completed, pending = %+v, want only job-1", rep2)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := openT(t, path)
	j.Close()
	if err := j.Append(Record{Op: OpSubmitted, JobID: "x"}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestSparamsSubmissionOpSurvivesCompaction(t *testing.T) {
	// A sparams job must replay to the S-parameter runner, not the sweep
	// runner — so the submission op has to survive fold AND the compact
	// rewrite (which re-emits one submission record per pending job).
	path := filepath.Join(t.TempDir(), "wal")
	j, _ := openT(t, path)
	cfg := json.RawMessage(`{"fmin_hz":1e9}`)
	if err := j.Append(Record{Op: OpSparamsSubmitted, JobID: "sp", Key: "k-sp", Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpSubmitted, JobID: "sw", Key: "k-sw", Config: cfg}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpStarted, JobID: "sp", Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Two reopen cycles: the second replays records produced by compact,
	// catching any hardcoded op in the rewrite path.
	for cycle := 1; cycle <= 2; cycle++ {
		_, pending := openT(t, path)
		if len(pending) != 2 {
			t.Fatalf("cycle %d: pending = %d, want 2", cycle, len(pending))
		}
		sp, sw := pending[0], pending[1]
		if sp.JobID != "sp" || sp.Op != OpSparamsSubmitted {
			t.Fatalf("cycle %d: sparams job replayed as %+v", cycle, sp)
		}
		if sp.Attempts != 1 || string(sp.Config) != string(cfg) {
			t.Fatalf("cycle %d: sparams job lost state: %+v", cycle, sp)
		}
		if sw.JobID != "sw" || sw.Op != OpSubmitted {
			t.Fatalf("cycle %d: sweep job replayed as %+v", cycle, sw)
		}
	}
}
