package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/metadata"
	"repro/internal/simtime"
)

// testMeta builds a small signed synthetic record (3 pieces).
func testMeta(id metadata.FileID) *metadata.Metadata {
	return metadata.NewSynthetic(id, "news daily", "BBC", "world news",
		3*4096, 4096, simtime.At(0, 0), simtime.Days(3), []byte("k"))
}

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if s.Stats().Recovery.Recovered {
		t.Fatal("fresh dir reported recovered")
	}
	m := testMeta(0)
	records := []Record{
		&MetadataRecord{Popularity: 0.25, Meta: *m, Selected: true},
		&PieceRecord{URI: m.URI, Index: 0, Total: 3},
		&PieceRecord{URI: m.URI, Index: 2, Total: 3},
		&CreditRecord{Peer: 7, Delta: 5},
		&CreditRecord{Peer: 7, Delta: 5},
		&QuarantineRecord{Peer: 9, Strikes: 2, UntilUnixMilli: 123456},
	}
	for _, rec := range records {
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append(%v): %v", rec.RecordKind(), err)
		}
	}
	st := s.State()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openT(t, dir)
	defer r.Close()
	if !r.Stats().Recovery.Recovered {
		t.Fatal("reopen did not report recovered")
	}
	got := r.State()
	f := got.Files[m.URI]
	if f == nil || f.Meta == nil {
		t.Fatalf("metadata not recovered: %+v", got.Files)
	}
	if f.Meta.URI != m.URI || f.Meta.Signature != m.Signature {
		t.Fatalf("recovered metadata differs: %+v", f.Meta)
	}
	if !f.Selected || f.Popularity != 0.25 {
		t.Fatalf("selected/popularity not recovered: %+v", f)
	}
	if !reflect.DeepEqual(f.Have, []bool{true, false, true}) {
		t.Fatalf("pieces = %v, want [true false true]", f.Have)
	}
	if got.Credit[7] != 10 {
		t.Fatalf("credit = %v, want 10", got.Credit[7])
	}
	if q := got.Quarantine[9]; q.Strikes != 2 || q.UntilUnixMilli != 123456 {
		t.Fatalf("quarantine = %+v", q)
	}
	// Close compacted: the reopen must have come from the snapshot.
	if rs := r.Stats().Recovery; rs.SnapshotRecords == 0 || rs.WALRecords != 0 {
		t.Fatalf("recovery = %+v, want snapshot-only", rs)
	}
	// And the recovered state matches the pre-close clone.
	if !reflect.DeepEqual(st.Credit, got.Credit) || !reflect.DeepEqual(st.Quarantine, got.Quarantine) {
		t.Fatalf("state drifted across reopen: %+v vs %+v", st, got)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.opt.CompactEvery = -1 // keep everything in the WAL
	m := testMeta(1)
	for i := 0; i < 3; i++ {
		if err := s.Append(&PieceRecord{URI: m.URI, Index: i, Total: 3}); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, walName)
	good, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s.w.close() // bypass Close's compaction; leave the raw WAL behind
	s.closed = true

	// Append garbage, then half of a valid frame: both are torn tails.
	torn := append(append([]byte{}, good...), EncodeFrame(99, &CreditRecord{Peer: 1, Delta: 1})[:7]...)
	torn = append(torn, 0xFF, 0xFE)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	rs := r.Stats().Recovery
	if rs.WALRecords != 3 {
		t.Fatalf("replayed %d records, want 3", rs.WALRecords)
	}
	if rs.TornBytes != int64(len(torn)-len(good)) {
		t.Fatalf("torn bytes = %d, want %d", rs.TornBytes, len(torn)-len(good))
	}
	// The file itself was truncated back to the valid prefix.
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(good) {
		t.Fatalf("wal length after open = %d, want %d", len(after), len(good))
	}
	if f := r.State().Files[m.URI]; f == nil || f.HaveCount() != 3 {
		t.Fatalf("pieces lost with the torn tail: %+v", f)
	}
}

func TestBitFlipStopsReplayAtFlip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	m := testMeta(2)
	for i := 0; i < 4; i++ {
		if err := s.Append(&PieceRecord{URI: m.URI, Index: i, Total: 4}); err != nil {
			t.Fatal(err)
		}
	}
	s.w.close()
	s.closed = true
	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the third frame's payload: frames 1–2 must
	// survive, 3 and everything after must be cut.
	frameLen := len(raw) / 4
	raw[2*frameLen+frameHeaderLen+3] ^= 0x40
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir)
	defer r.Close()
	if rs := r.Stats().Recovery; rs.WALRecords != 2 {
		t.Fatalf("replayed %d records, want 2 (prefix before the flip)", rs.WALRecords)
	}
	if f := r.State().Files[m.URI]; f == nil || f.HaveCount() != 2 {
		t.Fatalf("recovered pieces = %+v, want exactly the 2-record prefix", f)
	}
}

func TestCompactionFoldsWALIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	m := testMeta(3)
	if err := s.Append(&MetadataRecord{Popularity: 0.5, Meta: *m, Selected: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(&PieceRecord{URI: m.URI, Index: i, Total: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if sz := s.Stats().WALSize; sz != 0 {
		t.Fatalf("wal size after compact = %d, want 0", sz)
	}
	// Records after the snapshot land in the fresh WAL.
	if err := s.Append(&CreditRecord{Peer: 4, Delta: 5}); err != nil {
		t.Fatal(err)
	}
	s.w.f.Sync()
	s.w.close() // reopen against snapshot + 1-record WAL, skipping Close's compact
	s.closed = true

	r := openT(t, dir)
	defer r.Close()
	rs := r.Stats().Recovery
	if rs.SnapshotRecords != 4 || rs.WALRecords != 1 {
		t.Fatalf("recovery = %+v, want 4 snapshot records + 1 wal record", rs)
	}
	got := r.State()
	if f := got.Files[m.URI]; f == nil || f.Meta == nil || f.HaveCount() != 3 {
		t.Fatalf("snapshot state not recovered: %+v", f)
	}
	if got.Credit[4] != 5 {
		t.Fatalf("post-snapshot credit = %v, want 5", got.Credit[4])
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, CompactEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := testMeta(4)
	for i := 0; i < 64; i++ {
		if err := s.Append(&PieceRecord{URI: m.URI, Index: i, Total: 64}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no auto-compaction after %d appends past a 256-byte threshold", st.Appended)
	}
	if st.WALSize > 256+64 {
		t.Fatalf("wal size %d stayed past threshold", st.WALSize)
	}
	if f := s.State().Files[m.URI]; f.HaveCount() != 64 {
		t.Fatalf("state lost pieces across auto-compaction: %d/64", f.HaveCount())
	}
}

func TestRecordCodecRejectsGarbage(t *testing.T) {
	recs := []Record{
		&PieceRecord{URI: "dtn://files/1", Index: 1, Total: 3},
		&MetadataRecord{Popularity: 1, Meta: *testMeta(5), Selected: false},
		&CreditRecord{Peer: 3, Delta: -2.5},
		&QuarantineRecord{Peer: 1, Strikes: 1, UntilUnixMilli: 42},
	}
	for _, rec := range recs {
		enc := EncodeRecord(rec)
		dec, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("round trip %v: %v", rec.RecordKind(), err)
		}
		if dec.RecordKind() != rec.RecordKind() {
			t.Fatalf("kind %v != %v", dec.RecordKind(), rec.RecordKind())
		}
		// Every truncation must error, never panic.
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeRecord(enc[:cut]); err == nil && cut < len(enc) {
				t.Fatalf("%v truncated at %d decoded without error", rec.RecordKind(), cut)
			}
		}
		// Trailing junk is rejected.
		if _, err := DecodeRecord(append(append([]byte{}, enc...), 0)); err == nil {
			t.Fatalf("%v with trailing byte decoded", rec.RecordKind())
		}
	}
	if _, err := DecodeRecord(nil); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("empty record: %v", err)
	}
	if _, err := DecodeRecord([]byte{0x7F}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("unknown kind: %v", err)
	}
}

func TestClosedStoreRefusesAppends(t *testing.T) {
	s := openT(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&CreditRecord{Peer: 1, Delta: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestStateCloneIsolation(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	m := testMeta(6)
	if err := s.Append(&PieceRecord{URI: m.URI, Index: 0, Total: 3}); err != nil {
		t.Fatal(err)
	}
	snap := s.State()
	if err := s.Append(&PieceRecord{URI: m.URI, Index: 1, Total: 3}); err != nil {
		t.Fatal(err)
	}
	if snap.Files[m.URI].HaveCount() != 1 {
		t.Fatal("State() clone mutated by later append")
	}
}

// countFS counts the WAL file's writes and syncs, and can hold a Sync
// open until released.
type countFS struct {
	OSFS
	writes, syncs int
	hold          chan struct{} // non-nil: Sync waits for it to close
	inSync        chan struct{} // one token per held Sync
}

type countFile struct {
	File
	fs *countFS
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

func (f *countFile) Write(p []byte) (int, error) {
	f.fs.writes++
	return f.File.Write(p)
}

func (f *countFile) Sync() error {
	f.fs.syncs++
	if f.fs.hold != nil {
		f.fs.inSync <- struct{}{}
		<-f.fs.hold
	}
	return f.File.Sync()
}

// TestAppendBatchOneWriteOneSync: a batch of n records costs one write
// and one fsync, lands in order under consecutive sequence numbers, and
// is byte-for-byte the log the same records make one Append at a time.
func TestAppendBatchOneWriteOneSync(t *testing.T) {
	m := testMeta(2)
	recs := []Record{
		&PieceRecord{URI: m.URI, Index: 0, Total: 3},
		&CreditRecord{Peer: 7, Delta: 5},
		&PieceRecord{URI: m.URI, Index: 1, Total: 3},
		&CreditRecord{Peer: 7, Delta: 5},
		&PieceRecord{URI: m.URI, Index: 2, Total: 3},
	}
	cfs := &countFS{}
	batched, single := t.TempDir(), t.TempDir()
	s, err := Open(Options{Dir: batched, FS: cfs, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(nil); err != nil || cfs.writes != 0 || cfs.syncs != 0 {
		t.Fatalf("empty batch: err %v, %d writes, %d syncs; want a no-op", err, cfs.writes, cfs.syncs)
	}
	if err := s.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if cfs.writes != 1 || cfs.syncs != 1 {
		t.Fatalf("batch of %d took %d writes and %d syncs, want 1 and 1", len(recs), cfs.writes, cfs.syncs)
	}
	if st := s.Stats(); st.Appended != 5 || st.Batches != 1 || st.LastSeq != 5 {
		t.Fatalf("stats after one batch: %+v", st)
	}
	if f := s.State().Files[m.URI]; f == nil || f.HaveCount() != 3 || s.State().Credit[7] != 10 {
		t.Fatalf("batch not folded into the live state: %+v", f)
	}

	one := openT(t, single)
	one.opt.CompactEvery = -1
	for _, rec := range recs {
		if err := one.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if st := one.Stats(); st.Appended != 5 || st.Batches != 5 {
		t.Fatalf("stats after five appends: %+v", st)
	}
	a, err := os.ReadFile(filepath.Join(batched, walName))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(single, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("a batch and the same records appended singly wrote different logs")
	}
	s.Close()
	one.Close()
}

// TestStatsDoesNotWaitForSync: Stats answers while an append sits in
// its fsync, and shows the log as it was before that append.
func TestStatsDoesNotWaitForSync(t *testing.T) {
	cfs := &countFS{hold: make(chan struct{}), inSync: make(chan struct{}, 1)}
	s, err := Open(Options{Dir: t.TempDir(), FS: cfs, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appended := make(chan error, 1)
	go func() { appended <- s.Append(&CreditRecord{Peer: 1, Delta: 5}) }()
	<-cfs.inSync
	if st := s.Stats(); st.Appended != 0 || st.LastSeq != 0 {
		t.Fatalf("stats during the sync: %+v, want nothing acknowledged yet", st)
	}
	close(cfs.hold)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Appended != 1 || st.Batches != 1 || st.LastSeq != 1 {
		t.Fatalf("stats after the sync: %+v", st)
	}
	s.w.close() // not Close: its compaction would sync through the held FS
}
