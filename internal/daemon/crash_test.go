package daemon

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/credit"
	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/store"
	"repro/internal/transport"
)

// crashFile is the single 8-piece file the crash scenarios download:
// big enough that a paced transfer leaves a wide mid-download window.
const (
	crashPieces   = 8
	crashFileSize = crashPieces * metadata.DefaultPieceSize
)

// startSeed runs the publisher the crash scenarios download from: one
// 8-piece file, paced at one piece per hello so crashes land mid-flight.
func startSeed(ctx context.Context, t *testing.T, net *transport.Loopback) *Daemon {
	t.Helper()
	cfg := fastCfg(1, net)
	cfg.ListenAddr = "seed"
	cfg.InternetAccess = true
	cfg.PublishFiles = 1
	cfg.FileSize = crashFileSize
	cfg.PiecesPerHello = 1
	seed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start(ctx, seed)
	return seed
}

// compactAt sets the store's compaction threshold (compactEvery) for the
// rest of tb.
func compactAt(tb testing.TB, bytes int64) {
	was := compactEvery
	compactEvery = bytes
	tb.Cleanup(func() { compactEvery = was })
}

// leechCfgFor builds the downloader config against dir with fs as the
// store's filesystem. A small compaction threshold forces snapshots
// mid-download so crash points can land inside a snapshot commit.
func leechCfgFor(tb testing.TB, net *transport.Loopback, dir string, fs store.FS) Config {
	cfg := fastCfg(2, net)
	cfg.PeerAddrs = []string{"seed"}
	cfg.Queries = []string{"f0"}
	cfg.DataDir = dir
	cfg.StoreFS = fs
	compactAt(tb, 256)
	return cfg
}

// pieceCount returns the held-piece count for uri in a recovered state.
func pieceCount(st *store.State, uri metadata.URI) int {
	f := st.Files[uri]
	if f == nil {
		return 0
	}
	return f.HaveCount()
}

// TestRestartResume kills the downloader cleanly mid-download and
// restarts it against the same data directory: the second incarnation
// must recover the persisted pieces, advertise them in its hello
// have-bitmap, finish the file, and never be re-sent a recovered piece.
func TestRestartResume(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	dir := t.TempDir()
	uri := metadata.URIFor(0)

	seed := startSeed(ctx, t, net)

	ctx1, cancel1 := context.WithCancel(ctx)
	leech1, err := New(leechCfgFor(t, net, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	done1 := start(ctx1, leech1)

	// Kill once a strict prefix is verified: some pieces on disk, some
	// still to fetch.
	waitFor(t, waitLimit, func() bool {
		n := leech1.Stats().PiecesVerified
		return n >= 2 && n < crashPieces
	}, "partial download")
	cancel1()
	if err := <-done1; err != nil && ctx1.Err() == nil {
		t.Fatalf("leech1 run: %v", err)
	}
	verified := int(leech1.Stats().PiecesVerified)

	// Restart against the same directory. New recovers synchronously, so
	// the restored state is observable before Run touches the network.
	leech2, err := New(leechCfgFor(t, net, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	rec := leech2.store.Stats().Recovery
	if !rec.Recovered {
		t.Fatalf("restart did not recover: %+v", rec)
	}
	restored := pieceCount(leech2.store.State(), uri)
	if restored != verified {
		t.Fatalf("recovered %d pieces, leech1 verified %d (clean shutdown must lose nothing)", restored, verified)
	}

	skippedBefore := seed.Stats().PiecesSkippedHeld
	done2 := start(ctx, leech2)
	waitFor(t, waitLimit, func() bool { return leech2.Completed(uri) }, "resumed download")

	st2 := leech2.Stats()
	if st2.PiecesRefetched != 0 {
		t.Fatalf("restarted node was re-sent %d persisted pieces", st2.PiecesRefetched)
	}
	if got := int(st2.PiecesVerified) + restored; got != crashPieces {
		t.Fatalf("resume fetched %d pieces on top of %d restored, want total %d",
			st2.PiecesVerified, restored, crashPieces)
	}
	// The seed saw the have-bitmap and skipped every restored piece.
	waitFor(t, waitLimit, func() bool { return seed.Stats().PiecesSkippedHeld > skippedBefore }, "seed skipping held pieces")

	cancel()
	<-done2
}

// crashPoint is one scripted kill: the op to die at, under a name that
// stays put when the op schedule shifts.
type crashPoint struct {
	name string
	op   int64
}

// crashPoints derives the scripted crash schedule from a fault-free
// probe run: the first WAL append's write and sync, the first snapshot
// commit's rename and its neighbours, and points spread across the
// download. Every point is below the probe's op count at completion, so
// the crashed run is guaranteed to reach it. The early points are named
// by op number — the metadata append and the compaction it triggers are
// the same ops on every run — and the spread points by their share of
// the run, because how many ops the pieces take depends on how they
// fell into group commits.
func crashPoints(opsAtComplete int64, renames []int64, short bool) []crashPoint {
	ops := []int64{1, 2}
	if len(renames) > 0 {
		r := renames[0]
		ops = append(ops, r-1, r, r+1)
	}
	var out []crashPoint
	seen := map[int64]bool{}
	add := func(name string, op int64) {
		if op >= 1 && op < opsAtComplete && !seen[op] {
			seen[op] = true
			out = append(out, crashPoint{name, op})
		}
	}
	for _, op := range ops {
		add(fmt.Sprintf("crash-at-op-%d", op), op)
	}
	if !short {
		add("crash-at-quarter", opsAtComplete/4)
		add("crash-at-half", opsAtComplete/2)
		add("crash-at-three-quarters", 3*opsAtComplete/4)
		add("crash-at-last-op", opsAtComplete-1)
	}
	return out
}

// TestCrashRecoverySoak is the scripted kill-and-restart matrix: a
// probe run counts the store's filesystem ops for one full download,
// then each scripted point crashes the filesystem mid-run (torn write
// included), the daemon is discarded, and a fresh daemon reopens the
// same directory. Recovered state must be a consistent prefix of what
// the dead daemon acknowledged, the download must finish, and no
// persisted piece may ever cross the wire again.
func TestCrashRecoverySoak(t *testing.T) {
	uri := metadata.URIFor(0)

	// Probe: fault-free run through a counting FS to learn the op
	// schedule (total mutating ops and where snapshot renames land).
	probe := func() (int64, []int64) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		net := transport.NewLoopback()
		defer net.Close()
		startSeed(ctx, t, net)
		ffs := fault.WrapFS(store.OSFS{}, fault.FSConfig{Seed: 1})
		leech, err := New(leechCfgFor(t, net, t.TempDir(), ffs))
		if err != nil {
			t.Fatal(err)
		}
		done := start(ctx, leech)
		waitFor(t, waitLimit, func() bool { return leech.Completed(uri) }, "probe download")
		ops := ffs.Stats().Ops
		renames := ffs.RenameOps()
		cancel()
		<-done
		return ops, renames
	}
	opsAtComplete, renames := probe()
	if len(renames) == 0 {
		t.Fatalf("probe run never compacted (ops=%d); CompactEvery too large to exercise snapshot crashes", opsAtComplete)
	}
	points := crashPoints(opsAtComplete, renames, testing.Short())
	t.Logf("probe: %d ops at completion, renames at %v, crash points %v", opsAtComplete, renames, points)

	for _, point := range points {
		crashAt := point.op
		t.Run(point.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			net := transport.NewLoopback()
			defer net.Close()
			dir := t.TempDir()
			seed := startSeed(ctx, t, net)

			ffs := fault.WrapFS(store.OSFS{}, fault.FSConfig{Seed: uint64(crashAt) * 101, CrashAtOp: crashAt})
			ctx1, cancel1 := context.WithCancel(ctx)
			leech1, err := New(leechCfgFor(t, net, dir, ffs))
			if err != nil {
				t.Fatal(err)
			}
			done1 := start(ctx1, leech1)
			waitFor(t, waitLimit, func() bool { return ffs.Crashed() || leech1.Completed(uri) }, "crash point")
			cancel1()
			<-done1
			// A run whose pieces shared group commits takes fewer ops than
			// the probe's; a late crash point then lands in the shutdown
			// compaction instead, which is as good a place to die — or,
			// when even the shutdown is done first, nowhere: there is then
			// no crash to recover from. Only a tail point may miss.
			if !ffs.Crashed() {
				if crashAt <= 3*opsAtComplete/4 {
					t.Fatalf("daemon ran to a clean shutdown before scripted crash at op %d", crashAt)
				}
				t.Logf("run shut down cleanly in fewer than %d ops (the probe took %d): nothing to recover", crashAt, opsAtComplete)
				return
			}
			verified := int(leech1.Stats().PiecesVerified)
			delivered := int(seed.Manager().Stats().PiecesSent)

			// Restart against the same directory with a healthy filesystem.
			// Recovery runs inside New, before any network traffic.
			leech2, err := New(leechCfgFor(t, net, dir, nil))
			if err != nil {
				t.Fatalf("reopen after crash at op %d: %v", crashAt, err)
			}
			recovered := leech2.store.State()
			have := pieceCount(recovered, uri)

			// Consistent prefix: every acknowledged piece is durable, and
			// only pieces of the one group commit the crash tore — delivered,
			// never acknowledged — may additionally have reached the disk
			// whole. (The store-level matrix pins the window to the exact
			// commit; from out here only the delivered count bounds it.)
			if have < verified || have > delivered {
				t.Fatalf("crash at op %d: recovered %d pieces, daemon acknowledged %d of %d delivered (want ack..delivered)",
					crashAt, have, verified, delivered)
			}
			if f := recovered.Files[uri]; have > 0 && (f == nil || f.Meta == nil) {
				t.Fatalf("crash at op %d: recovered pieces without the metadata logged before them", crashAt)
			}
			// Each credit is logged right behind its piece in the same
			// commit, so the recovered ledger is the same prefix: only the
			// torn commit's last piece can be missing its reward.
			if c := recovered.Credit[1] / credit.RequestedReward; c > float64(have) || c < float64(have-1) {
				t.Fatalf("crash at op %d: recovered credit %.0f rewards for %d pieces", crashAt, c, have)
			}

			done2 := start(ctx, leech2)
			waitFor(t, waitLimit, func() bool { return leech2.Completed(uri) }, "recovered download")
			st2 := leech2.Stats()
			if st2.PiecesRefetched != 0 {
				t.Fatalf("crash at op %d: %d persisted pieces were re-sent over the wire", crashAt, st2.PiecesRefetched)
			}
			if got := int(st2.PiecesVerified) + have; got != crashPieces {
				t.Fatalf("crash at op %d: %d fetched + %d recovered != %d",
					crashAt, st2.PiecesVerified, have, crashPieces)
			}
			if have > 0 && have < crashPieces {
				waitFor(t, waitLimit, func() bool { return seed.Stats().PiecesSkippedHeld > 0 }, "seed skipping held pieces")
			}

			cancel()
			<-done2
		})
	}
}

// TestHealthReportsRecovery checks the HTTP surface: a restarted node's
// /healthz carries the recovery stats and live WAL size.
func TestHealthReportsRecovery(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	dir := t.TempDir()
	uri := metadata.URIFor(0)

	startSeed(ctx, t, net)

	ctx1, cancel1 := context.WithCancel(ctx)
	leech1, err := New(leechCfgFor(t, net, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	done1 := start(ctx1, leech1)
	waitFor(t, waitLimit, func() bool { return leech1.Completed(uri) }, "first download")
	cancel1()
	<-done1

	leech2, err := New(leechCfgFor(t, net, dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	h := leech2.Health()
	if h.Recovery == nil || !h.Recovery.Recovered {
		t.Fatalf("health after restart: %+v", h)
	}
	if h.Recovery.SnapshotRecords == 0 {
		t.Fatalf("clean shutdown should have compacted into a snapshot: %+v", h.Recovery)
	}
	if err := leech2.store.Close(); err != nil {
		t.Fatal(err)
	}

	// The recovered store also reports broken=false through Stats.
	if st := leech2.Stats(); st.Store == nil || st.Store.Broken {
		t.Fatalf("store stats after recovery: %+v", st.Store)
	}
}
