package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReadAll feeds arbitrary bytes to the replay decoder as a
// journal file: ReadAll and Fold must never panic, every record ReadAll
// accepts must survive an encodeFrame round trip (the re-encoded frame
// decodes to a record that encodes to the same bytes), and a file of
// those frames must read back as the same records.
func FuzzJournalReadAll(f *testing.F) {
	cfg := json.RawMessage(`{"freqs_hz":[1e9,2e9],"grid":8}`)
	var log []byte
	for _, r := range []Record{
		{Schema: SchemaVersion, Seq: 1, Op: OpSubmitted, JobID: "a", Key: "k-a", Config: cfg},
		{Schema: SchemaVersion, Seq: 2, Op: OpStarted, JobID: "a", Attempt: 1},
		// Ops older daemons wrote that Fold now skips.
		{Schema: SchemaVersion, Seq: 3, Op: "anchor-done", JobID: "a"},
		{Schema: SchemaVersion, Seq: 4, Op: "lease-expired", JobID: "a"},
		{Schema: SchemaVersion, Seq: 5, Op: OpCampaignSubmitted, JobID: "c", Config: cfg},
		{Schema: SchemaVersion, Seq: 6, Op: "lease-granted", JobID: "a"},
		{Schema: SchemaVersion, Seq: 7, Op: OpFailed, JobID: "a", Error: "boom", Kind: "numerical"},
		{Schema: SchemaVersion, Seq: 8, Op: "campaign-cell-done", JobID: "c"},
		// The legacy campaign terminal ops Fold still reads.
		{Schema: SchemaVersion, Seq: 9, Op: OpCampaignSubmitted, JobID: "d", Config: cfg},
		{Schema: SchemaVersion, Seq: 10, Op: legacyCampaignFailed, JobID: "d", Error: "boom"},
		{Schema: SchemaVersion, Seq: 11, Op: legacyCampaignCompleted, JobID: "c"},
		{Schema: SchemaVersion, Seq: 12, Op: legacyCampaignCanceled, JobID: "e"},
	} {
		frame, err := encodeFrame(r)
		if err != nil {
			f.Fatal(err)
		}
		log = append(log, frame...)
		f.Add(append([]byte(nil), log...))
	}
	var older []byte // fields Record no longer has: anchor, worker
	for _, p := range olderJournal {
		older = append(older, rawFrame(p)...)
	}
	f.Add(older)
	f.Add(log[:len(log)-3])                         // torn tail
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, '{', '}'}) // CRC mismatch
	f.Add([]byte{})

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "wal")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		Fold(recs)

		var rewritten []byte
		for _, r := range recs {
			frame, err := encodeFrame(r)
			if err != nil {
				t.Fatalf("record %+v does not encode: %v", r, err)
			}
			back, torn, err := decodeFile(t, path, frame)
			if err != nil || torn || len(back) != 1 {
				t.Fatalf("frame of %+v read back as %d records (torn %v, err %v)", r, len(back), torn, err)
			}
			again, err := encodeFrame(back[0])
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("frame of %+v does not round-trip: %q vs %q", r, again, frame)
			}
			rewritten = append(rewritten, frame...)
		}
		back, torn, err := decodeFile(t, path, rewritten)
		if err != nil || torn || len(back) != len(recs) {
			t.Fatalf("%d re-encoded records read back as %d (torn %v, err %v)", len(recs), len(back), torn, err)
		}
	})
}

// decodeFile writes data to path and parses it with readAll.
func decodeFile(t *testing.T, path string, data []byte) ([]Record, bool, error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return readAll(path)
}
