package daemon

import (
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/testutil"
	"repro/internal/wire"
	"repro/internal/workload"
)

// A record's lifetime is absolute: Created and Expires are Unix
// milliseconds off the node's one clock, so they name the same instant
// at the publisher, at every receiver, in the WAL and after a restart.
// Each test below fails on a per-process time base.

// shortLived signs a record for file 0 published at now that lives ttl.
func shortLived(now time.Time, ttl time.Duration) *metadata.Metadata {
	const publisher = "mbtd"
	return metadata.NewSynthetic(0, "f0 short-lived file", publisher, "",
		crashFileSize, metadata.DefaultPieceSize, protoTime(now),
		simtime.Duration(ttl/time.Millisecond), workload.KeyFor(publisher))
}

// TestRestartDoesNotReviveExpiredRecord: a download whose record expires
// while — or before — the node is down stays expired when the node comes
// back on the same data directory: not known, not re-selected, not
// advertised. (A restart before expiry resumes it: TestRestartResume.)
func TestRestartDoesNotReviveExpiredRecord(t *testing.T) {
	const ttl = 300 * time.Millisecond
	clk := testutil.NewClock()
	dir := t.TempDir()
	rec := shortLived(clk.Now(), ttl)

	d1, stop := durableBench(t, clk, dir, nil)
	d1.onMetadata(5, &wire.Metadata{Popularity: 0.5, Record: *rec})
	d1.onPiece(5, pieceMsg(rec, 0))
	waitFor(t, func() bool { return settled(d1) }, "the piece to commit")
	if got := d1.Stats(); len(got.Downloading) != 1 || got.PiecesVerified != 1 {
		t.Fatalf("before the restart: downloading %v, %d pieces; want the file selected with one piece", got.Downloading, got.PiecesVerified)
	}
	clk.Advance(ttl) // the instant Expires names
	if d1.KnowsMetadata(rec.URI) {
		t.Fatal("the record outlived its signed expiry on the node that learned it")
	}
	stop()

	d2, _ := durableBench(t, clk, dir, nil)
	if !d2.store.Stats().Recovery.Recovered {
		t.Fatal("the restart recovered nothing: the test proves nothing")
	}
	if d2.KnowsMetadata(rec.URI) {
		t.Error("the restart revived an expired record")
	}
	if got := d2.Stats().Downloading; len(got) != 0 {
		t.Errorf("the restart re-selected %v under an expired record", got)
	}
	if _, downloading, have := d2.helloContent(); len(downloading)+len(have) != 0 {
		t.Errorf("the restarted node advertises %v (have %v) under an expired record", downloading, have)
	}
	if got := d2.Have(rec.URI); got != nil {
		t.Errorf("the restarted node serves %v under an expired record", got)
	}
	if d2.node.Pieces(rec.URI) != nil {
		t.Error("the restart kept the unfinished piece set node.Expire would have dropped with the record")
	}
}

// TestRecordExpiryAgreesAcrossNodes: a record expires at one instant
// everywhere, whatever each node's uptime — a daemon built the moment
// the record is published holds it exactly as long as the publisher that
// had been up for ten days, not ten days longer.
func TestRecordExpiryAgreesAcrossNodes(t *testing.T) {
	clk := testutil.NewClock()
	publisher := benchAt(t, clk, nil)
	clk.Advance(10 * 24 * time.Hour)
	rec := publisher.syntheticFile(0)
	late := benchAt(t, clk, nil)
	for _, d := range []*Daemon{publisher, late} {
		d.onMetadata(5, &wire.Metadata{Popularity: 0.5, Record: *rec})
	}

	clk.Advance(time.Duration(DefaultTTL)*time.Millisecond - time.Millisecond)
	for name, d := range map[string]*Daemon{"publisher": publisher, "late starter": late} {
		if !d.KnowsMetadata(rec.URI) {
			t.Errorf("%s dropped the record a millisecond before its signed expiry", name)
		}
	}
	clk.Advance(time.Millisecond)
	for name, d := range map[string]*Daemon{"publisher": publisher, "late starter": late} {
		if d.KnowsMetadata(rec.URI) {
			t.Errorf("%s still resolves the record at its signed expiry", name)
		}
		d.sweepOnce(clk.Now())
		if got := d.Stats(); got.MetadataStored != 0 || len(got.Downloading) != 0 {
			t.Errorf("%s after the sweep: %d records stored, downloading %v", name, got.MetadataStored, got.Downloading)
		}
	}
}

// TestDHTStoreOfExpiredRecordIsDeadOnArrival: a StoreValue whose record's
// signed expiry has passed is refused by a node started just now, however
// fresh the DHT stamp a stranger put on it — the node's uptime grants no
// second lifetime.
func TestDHTStoreOfExpiredRecordIsDeadOnArrival(t *testing.T) {
	clk := testutil.NewClock()
	rec := shortLived(clk.Now().Add(-2*time.Hour), time.Hour) // expired an hour ago
	d := benchAt(t, clk, func(c *Config) { c.EnableDHT = true })
	store := func(rec *metadata.Metadata) {
		const keyword = "f0"
		d.onDHT(2, &wire.StoreValue{
			From: 2, RPCID: 1, Key: dht.KeywordKey(keyword),
			Value: wire.DHTValue{
				Keyword:          keyword,
				ExpiresUnixMilli: clk.Now().Add(10 * time.Minute).UnixMilli(),
				Meta:             wire.Metadata{Popularity: 0.5, Record: *rec},
			},
		})
	}
	store(rec)
	if st := d.dht.Stats(); st.StoresExpired != 1 || st.StoresRecv != 0 || st.StoreSize != 0 {
		t.Fatalf("expired record: stores_expired %d, stores_recv %d, store_size %d; want 1, 0, 0",
			st.StoresExpired, st.StoresRecv, st.StoreSize)
	}
	if got := d.dht.CachedValues("f0"); len(got) != 0 {
		t.Fatalf("the index resolves an expired record: %+v", got)
	}
	// The same frame around a live record is stored, its stamp clamped to
	// the signed expiry rather than the stranger's ten minutes.
	live := shortLived(clk.Now(), time.Minute)
	store(live)
	got := d.dht.CachedValues("f0")
	if len(got) != 1 || got[0].ExpiresUnixMilli != int64(live.Expires) {
		t.Fatalf("live record: cached %+v, want one value expiring at the signed %d", got, live.Expires)
	}
}
