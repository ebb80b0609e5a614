package fault

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/trace"
)

func matrixMeta() *metadata.Metadata {
	return metadata.NewSynthetic(1, "crash matrix", "BBC", "durability fixture",
		8*4096, 4096, simtime.At(0, 0), simtime.Days(3), []byte("k"))
}

// matrixRecords is the canonical append sequence the crash matrix
// replays: metadata, its eight pieces, credit and quarantine events.
func matrixRecords() []store.Record {
	m := matrixMeta()
	recs := []store.Record{
		&store.MetadataRecord{Popularity: 0.5, Meta: *m, Selected: true},
	}
	for i := 0; i < 8; i++ {
		recs = append(recs, &store.PieceRecord{URI: m.URI, Index: i, Total: 8})
		recs = append(recs, &store.CreditRecord{Peer: trace.NodeID(2), Delta: 5})
	}
	recs = append(recs, &store.QuarantineRecord{Peer: 9, Strikes: 1, UntilUnixMilli: 5000})
	return recs
}

// applyAll folds records[:k] into a fresh state.
func applyAll(recs []store.Record, k int) *store.State {
	st := store.NewState()
	for _, r := range recs[:k] {
		st.Apply(r)
	}
	return st
}

// equalState compares the observable state fields.
func equalState(a, b *store.State) bool {
	if len(a.Files) != len(b.Files) || len(a.Credit) != len(b.Credit) || len(a.Quarantine) != len(b.Quarantine) {
		return false
	}
	for uri, fa := range a.Files {
		fb := b.Files[uri]
		if fb == nil || fa.Total != fb.Total || fa.Selected != fb.Selected || fa.Popularity != fb.Popularity {
			return false
		}
		if (fa.Meta == nil) != (fb.Meta == nil) {
			return false
		}
		if fa.Meta != nil && fa.Meta.Signature != fb.Meta.Signature {
			return false
		}
		for i := range fa.Have {
			if fa.Have[i] != fb.Have[i] {
				return false
			}
		}
	}
	for p, c := range a.Credit {
		if b.Credit[p] != c {
			return false
		}
	}
	for p, q := range a.Quarantine {
		if b.Quarantine[p] != q {
			return false
		}
	}
	return true
}

// TestCrashPointMatrix is the store-level recovery sweep: the canonical
// record sequence is appended against a filesystem that crashes at op
// N, for every N up to the fault-free op count — hitting every write,
// fsync, snapshot rename, directory sync, and WAL reset the store ever
// performs, including mid-append torn writes and mid-compaction
// crashes. The sweep runs once record by record (Append, the one-record
// batch; subtests opNNN) and once each through AppendBatch in groups of
// three and eight (subtests batchB/opNNN). After each crash the
// directory is reopened on a clean filesystem and two invariants must
// hold:
//
//  1. every record whose append returned nil before the crash is
//     recovered (acknowledged means durable), and
//  2. the recovered state equals the canonical sequence replayed to
//     some prefix length k with acked <= k <= acked + len(in-flight
//     batch) (consistent prefix: the only extra records that may appear
//     are a frame-aligned prefix of the batch being appended when the
//     crash hit — so a credit never shows up without the piece logged
//     before it).
func TestCrashPointMatrix(t *testing.T) {
	crashMatrix(t, 1)
	for _, batch := range []int{3, 8} {
		batch := batch
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) { crashMatrix(t, batch) })
	}
}

// appendInBatches logs recs in groups of batch until one fails,
// returning how many records were acknowledged and the size of the
// group in flight at the failure (0 when all landed).
func appendInBatches(s *store.Store, recs []store.Record, batch int) (acked, inFlight int) {
	for acked < len(recs) {
		end := acked + batch
		if end > len(recs) {
			end = len(recs)
		}
		if err := s.AppendBatch(recs[acked:end]); err != nil {
			return acked, end - acked
		}
		acked = end
	}
	return acked, 0
}

func crashMatrix(t *testing.T, batch int) {
	recs := matrixRecords()
	// CompactEvery well under one run's WAL growth so snapshots (and
	// their rename/syncdir/reset windows) happen mid-sequence.
	const compactEvery = 700

	// Fault-free run to size the op clock.
	probe := WrapFS(store.OSFS{}, FSConfig{Seed: 1})
	s, err := store.Open(store.Options{Dir: t.TempDir(), FS: probe, CompactEvery: compactEvery})
	if err != nil {
		t.Fatal(err)
	}
	if acked, _ := appendInBatches(s, recs, batch); acked != len(recs) {
		t.Fatalf("fault-free run acknowledged %d/%d records", acked, len(recs))
	}
	if got, want := s.Stats().Batches, uint64((len(recs)+batch-1)/batch); got != want {
		t.Fatalf("%d records in groups of %d took %d batches, want %d", len(recs), batch, got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	totalOps := probe.Stats().Ops
	if totalOps < int64(len(recs)/batch)*2 {
		t.Fatalf("op probe saw only %d ops", totalOps)
	}
	if probe.Stats().Renames == 0 {
		t.Fatalf("no snapshot rename in the probe run; compaction never fired: %+v", probe.Stats())
	}

	for crashAt := int64(1); crashAt <= totalOps; crashAt++ {
		crashAt := crashAt
		t.Run(fmt.Sprintf("op%03d", crashAt), func(t *testing.T) {
			dir := t.TempDir()
			ffs := WrapFS(store.OSFS{}, FSConfig{Seed: uint64(crashAt) * 77, CrashAtOp: crashAt})
			acked, inFlight := 0, 0
			s, err := store.Open(store.Options{Dir: dir, FS: ffs, CompactEvery: compactEvery})
			if err == nil {
				acked, inFlight = appendInBatches(s, recs, batch)
				s.Close() // best effort on a dying filesystem
			}
			if !ffs.Crashed() {
				t.Fatalf("crash point %d never reached (acked %d)", crashAt, acked)
			}

			r, err := store.Open(store.Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen after crash at op %d: %v", crashAt, err)
			}
			defer r.Close()
			got := r.State()

			// Invariant: recovered == canonical prefix of length k, with
			// acked <= k <= acked+inFlight.
			matched := -1
			for k := acked; k <= acked+inFlight; k++ {
				if equalState(got, applyAll(recs, k)) {
					matched = k
					break
				}
			}
			if matched < 0 {
				t.Fatalf("crash at op %d: recovered state is not a consistent prefix (acked %d, %d in flight): %+v",
					crashAt, acked, inFlight, r.Stats().Recovery)
			}
			// The canonical sequence logs each credit right behind its
			// piece, so a prefix never holds more rewards than pieces.
			pieces := 0
			if f := got.Files[matrixMeta().URI]; f != nil {
				pieces = f.HaveCount()
			}
			if rewards := got.Credit[2] / 5; rewards > float64(pieces) {
				t.Fatalf("crash at op %d: %v credit rewards recovered for %d pieces", crashAt, rewards, pieces)
			}
		})
	}
}

// TestBatchIsAllOrNothing: a batch whose fsync fails leaves nothing
// behind — not in the live state, not in the log — and the repaired
// store takes the same batch again whole. Piece and credit travel in
// one batch, so a piece can no longer land without its credit.
func TestBatchIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	m := matrixMeta()
	pair := []store.Record{
		&store.PieceRecord{URI: m.URI, Index: 0, Total: 8},
		&store.CreditRecord{Peer: 2, Delta: 5},
	}
	// Seed 21's first three sync draws at 40% are fail, pass (the
	// truncate-back repair), pass (the retry).
	ffs := WrapFS(store.OSFS{}, FSConfig{Seed: 21, SyncFail: 0.4})
	s, err := store.Open(store.Options{Dir: dir, FS: ffs, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(pair); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("first batch: %v, want the injected sync failure", err)
	}
	if st := s.Stats(); st.Broken || st.Appended != 0 || st.Batches != 0 || st.AppendErrors != 1 || st.WALSize != 0 {
		t.Fatalf("after a failed batch: %+v, want an empty, unbroken log", st)
	}
	if got := s.State(); len(got.Files) != 0 || len(got.Credit) != 0 {
		t.Fatalf("failed batch leaked into the live state: %d files, %d credits", len(got.Files), len(got.Credit))
	}
	if err := s.AppendBatch(pair); err != nil {
		t.Fatalf("retry after repair: %v", err)
	}
	if st := s.Stats(); st.Appended != 2 || st.Batches != 1 || st.LastSeq != 2 {
		t.Fatalf("after the retry: %+v, want 2 records in 1 batch", st)
	}
	s.Close()

	r, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.State()
	if f := got.Files[m.URI]; f == nil || f.HaveCount() != 1 || got.Credit[2] != 5 {
		t.Fatalf("recovered %+v / credit %v, want exactly one piece and one reward", got.Files[m.URI], got.Credit[2])
	}
}

// TestShortWriteRepair: a short write fails the append, but the store
// truncates the torn bytes back off and the next append lands cleanly —
// no record is lost, none is duplicated, and the log replays.
func TestShortWriteRepair(t *testing.T) {
	dir := t.TempDir()
	ffs := WrapFS(store.OSFS{}, FSConfig{Seed: 3, ShortWrite: 0.5})
	s, err := store.Open(store.Options{Dir: dir, FS: ffs, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	m := matrixMeta()
	acked := 0
	for i := 0; i < 8; i++ {
		// Retry each record until it lands, like a daemon leaning on the
		// protocol's re-drive would.
		for try := 0; try < 20; try++ {
			if err := s.Append(&store.PieceRecord{URI: m.URI, Index: i, Total: 8}); err == nil {
				acked++
				break
			} else if errors.Is(err, store.ErrBroken) {
				t.Fatalf("store broke on a repairable short write: %v", err)
			}
		}
	}
	if acked != 8 {
		t.Fatalf("acked %d/8 pieces", acked)
	}
	if ffs.Stats().ShortWrites == 0 {
		t.Fatal("no short writes injected at 50%")
	}
	s.Close() // may compact; either source must replay all 8 records
	r, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.Stats().Recovery
	if rs.SnapshotRecords+rs.WALRecords != 8 || rs.TornBytes != 0 {
		t.Fatalf("recovery after short-write storm = %+v, want 8 clean records", rs)
	}
	if f := r.State().Files[m.URI]; f == nil || f.HaveCount() != 8 {
		t.Fatalf("pieces lost to short writes: %+v", f)
	}
}

// TestSyncFailureBreaksSafely: when fsync fails and the repair's fsync
// fails too, the store refuses further appends instead of burying good
// records behind a possibly-torn tail.
func TestSyncFailureBreaksSafely(t *testing.T) {
	dir := t.TempDir()
	ffs := WrapFS(store.OSFS{}, FSConfig{Seed: 4, SyncFail: 1})
	s, err := store.Open(store.Options{Dir: dir, FS: ffs, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	m := matrixMeta()
	if err := s.Append(&store.PieceRecord{URI: m.URI, Index: 0, Total: 8}); err == nil {
		t.Fatal("append succeeded with every fsync failing")
	} else if !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("want injected sync error, got %v", err)
	}
	if err := s.Append(&store.PieceRecord{URI: m.URI, Index: 1, Total: 8}); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("second append after unrepaired sync failure: %v, want ErrBroken", err)
	}
	if ffs.Stats().SyncFails == 0 {
		t.Fatal("no sync failures counted")
	}
}

// TestCrashedFSRefusesEverything pins the fail-stop contract.
func TestCrashedFSRefusesEverything(t *testing.T) {
	ffs := WrapFS(store.OSFS{}, FSConfig{Seed: 5, CrashAtOp: 1})
	dir := t.TempDir()
	s, err := store.Open(store.Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	m := matrixMeta()
	if err := s.Append(&store.PieceRecord{URI: m.URI, Index: 0, Total: 8}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("first op: %v, want ErrCrashed", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() false after the crash op")
	}
	if _, err := ffs.OpenFile(dir+"/x", 0, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash: %v", err)
	}
	if err := ffs.Rename(dir+"/a", dir+"/b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash: %v", err)
	}
}
