package daemon

import (
	"bytes"
	"context"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/credit"
	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// gateFS is a store.FS whose file Syncs wait at a gate while one is
// shut: the deterministic stand-in for a slow disk.
type gateFS struct {
	store.OSFS
	mu      sync.Mutex
	gate    chan struct{} // non-nil: Sync waits for it to close
	waiting chan struct{} // one token per Sync that reached a shut gate
}

func newGateFS() *gateFS { return &gateFS{waiting: make(chan struct{}, 8)} }

// shut makes every later Sync wait until the returned func is called.
func (g *gateFS) shut() (open func()) {
	gate := make(chan struct{})
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		g.gate = nil
		g.mu.Unlock()
		close(gate)
	}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := g.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	store.File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	f.fs.mu.Lock()
	gate := f.fs.gate
	f.fs.mu.Unlock()
	if gate != nil {
		f.fs.waiting <- struct{}{}
		<-gate
	}
	return f.File.Sync()
}

// durableBench is bench with a data directory and the committer
// running, but no network: pieces are fed straight into onPiece, so
// each test decides what a group commit holds — and, through clk, when.
// stop drains the committer and closes the store, as Run's shutdown
// does.
func durableBench(t *testing.T, clk *testutil.Clock, dir string, fs store.FS) (d *Daemon, stop func()) {
	t.Helper()
	d = benchAt(t, clk, func(c *Config) {
		c.DataDir = dir
		c.StoreFS = fs
		c.FileSize = crashFileSize
	})
	committed := make(chan struct{})
	go func() {
		defer close(committed)
		d.commitLoop()
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(d.commitQ)
			<-committed
			d.store.Close()
		})
	}
	t.Cleanup(stop)
	return d, stop
}

// settled reports whether nothing is staged: every delivered piece has
// been committed and applied, or dropped with its batch.
func settled(d *Daemon) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range d.files {
		if len(f.pending) != 0 {
			return false
		}
	}
	return true
}

// TestPieceHeldOnlyAfterSync pins apply-after-sync: while the group
// commit carrying a piece sits in its fsync, the piece is pending — not
// in Have, not in the hello's have-bitmap, a second copy already a
// duplicate — and the daemon's lock is free, so Stats answers. Pieces
// that arrive meanwhile ride the next commit together.
func TestPieceHeldOnlyAfterSync(t *testing.T) {
	fs := newGateFS()
	d, _ := durableBench(t, testutil.NewClock(), t.TempDir(), fs)
	const peer = 5
	rec := feedMetadata(t, d, peer) // logged synchronously, gate open

	open := fs.shut()
	if !d.onPiece(peer, pieceMsg(rec, 0)) {
		t.Fatal("verified piece reported as not accepted")
	}
	<-fs.waiting // the committer is inside the batch's fsync

	if have := d.Have(rec.URI); len(have) == 0 || have[0] {
		t.Fatalf("Have = %v before the piece's sync returned", have)
	}
	_, downloading, bitmaps := d.helloContent()
	if len(downloading) != 1 || len(bitmaps) != 1 || bitmaps[0].HaveBit(0) {
		t.Fatalf("hello advertises an unsynced piece: downloading %v, bitmaps %+v", downloading, bitmaps)
	}
	// The group plane's view does count it: the engine acks a piece on
	// delivery, and a GroupHello without it would take the ack back.
	if wants := (*bcastStore)(d).Wants(); len(wants) != 1 || !wants[0].HaveBit(0) || !wants[0].Downloading {
		t.Fatalf("group view of a staged piece: %+v", wants)
	}
	stats := make(chan Stats, 1)
	go func() { stats <- d.Stats() }()
	select {
	case st := <-stats:
		if st.PiecesVerified != 0 || st.Store.Appended != 1 {
			t.Fatalf("mid-sync stats: verified %d, appended %d; want 0 and the metadata record only",
				st.PiecesVerified, st.Store.Appended)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stats blocked behind the committer's fsync")
	}

	// A second copy of the pending piece, then two more pieces: the copy
	// is a duplicate on arrival, the others queue for the next commit.
	if !d.onPiece(peer, pieceMsg(rec, 0)) {
		t.Fatal("copy of a pending piece reported as not accepted")
	}
	if got := d.Stats().PiecesDuplicate; got != 1 {
		t.Fatalf("PiecesDuplicate = %d after a copy of a pending piece, want 1", got)
	}
	d.onPiece(peer, pieceMsg(rec, 1))
	d.onPiece(peer, pieceMsg(rec, 2))

	open()
	waitFor(t, func() bool { return settled(d) }, "staged pieces to commit")
	have := d.Have(rec.URI)
	if !have[0] || !have[1] || !have[2] {
		t.Fatalf("Have = %v after the syncs were released", have)
	}
	st := d.Stats()
	if st.PiecesVerified != 3 || st.PiecesDuplicate != 1 || st.StoreErrors != 0 {
		t.Fatalf("verified %d duplicate %d store errors %d, want 3/1/0",
			st.PiecesVerified, st.PiecesDuplicate, st.StoreErrors)
	}
	// Metadata, then {piece 0, credit}, then {piece 1, credit, piece 2,
	// credit}: seven records in three batches, the copy logged nowhere.
	if st.Store.Appended != 7 || st.Store.Batches != 3 {
		t.Fatalf("store appended %d records in %d batches, want 7 in 3", st.Store.Appended, st.Store.Batches)
	}
	if got, want := d.CreditSnapshot()[peer], 3*credit.RequestedReward; got != want {
		t.Fatalf("credit = %v, want %v", got, want)
	}
}

// TestFailedSyncDropsPieceAndCreditTogether: with fsyncs failing at
// random, a piece and the credit it earned are applied together or not
// at all — the ledger never trails or leads the verified count, a
// dropped piece is taken again when re-delivered, and the directory
// recovers to the same pairing. (The serial path could sync the piece,
// fail the credit's append, and keep the piece without its credit.)
func TestFailedSyncDropsPieceAndCreditTogether(t *testing.T) {
	dir := t.TempDir()
	// At 30%, seed 7 fails the metadata append once and five of the piece
	// commits, and never a truncate-back repair's own sync, which would
	// turn the store read-only. One piece per commit keeps the draw order
	// fixed.
	ffs := fault.WrapFS(store.OSFS{}, fault.FSConfig{Seed: 7, SyncFail: 0.3})
	d, stop := durableBench(t, testutil.NewClock(), dir, ffs)
	const peer = 5
	rec := d.syntheticFile(0)
	for try := 0; d.Stats().MetadataStored == 0; try++ {
		if try == 20 {
			t.Fatal("metadata never logged")
		}
		d.onMetadata(peer, &wire.Metadata{Popularity: 0.5, Record: *rec})
	}

	paired := func(when string) {
		t.Helper()
		st := d.Stats()
		if got, want := d.CreditSnapshot()[peer], float64(st.PiecesVerified)*credit.RequestedReward; got != want {
			t.Fatalf("%s: credit %v for %d verified pieces, want %v", when, got, st.PiecesVerified, want)
		}
	}
	for i := 0; i < rec.NumPieces(); i++ {
		for try := 0; !d.Have(rec.URI)[i]; try++ {
			if try == 20 {
				t.Fatalf("piece %d never committed: %+v", i, d.Stats().Store)
			}
			// Re-delivery stands in for the sender's resend deadline.
			d.onPiece(peer, pieceMsg(rec, i))
			waitFor(t, func() bool { return settled(d) }, "the commit round")
			paired("after a commit round")
		}
	}
	st := d.Stats()
	if st.StoreErrors != 6 || ffs.Stats().SyncFails != 6 {
		t.Fatalf("store errors %d, sync fails %d, want 6 and 6 (one metadata append, five commits)",
			st.StoreErrors, ffs.Stats().SyncFails)
	}
	if st.Store.Broken {
		t.Fatalf("store went read-only: %+v", st.Store)
	}
	stop()

	r, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.State()
	if n := pieceCount(got, rec.URI); n != rec.NumPieces() {
		t.Fatalf("recovered %d/%d pieces", n, rec.NumPieces())
	}
	if c, want := got.Credit[peer], float64(rec.NumPieces())*credit.RequestedReward; c != want {
		t.Fatalf("recovered credit %v, want %v (one reward per piece)", c, want)
	}
}

// TestCancelMidDownloadKeepsReportedPieces: Run's shutdown drains the
// committer before closing the store, so every piece Have reported
// before the cancel is in the directory afterwards, and the committer —
// like every other goroutine Run started — is gone when Run returns.
func TestCancelMidDownloadKeepsReportedPieces(t *testing.T) {
	noLeaks := testutil.NoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	dir := t.TempDir()
	uri := metadata.URIFor(0)

	startSeed(ctx, t, net)
	ctx1, cancel1 := context.WithCancel(ctx)
	leech, err := New(leechCfgFor(net, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	done := start(ctx1, leech)
	waitFor(t, func() bool {
		n := leech.Stats().PiecesVerified
		return n >= 2 && n < crashPieces
	}, "partial download")
	reported := leech.Have(uri)
	cancel1()
	<-done

	var stacks bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&stacks, 2)
	if strings.Contains(stacks.String(), "commitLoop") {
		t.Fatalf("the committer outlived Run:\n%s", stacks.String())
	}

	r, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	f := r.State().Files[uri]
	r.Close()
	if f == nil {
		t.Fatal("nothing recovered for the download")
	}
	for i, had := range reported {
		if had && !f.Have[i] {
			t.Fatalf("piece %d was reported held before the cancel but is not in the directory (%v vs %v)",
				i, reported, f.Have)
		}
	}

	cancel()
	net.Close()
	noLeaks()
}
