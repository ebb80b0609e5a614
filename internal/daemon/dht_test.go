package daemon

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
)

// dhtCfg is fastCfg plus the DHT enabled at test-speed cadence.
func dhtCfg(id trace.NodeID, tr transport.Transport) Config {
	cfg := fastCfg(id, tr)
	cfg.EnableDHT = true
	cfg.DHTRepublish = 50 * time.Millisecond
	return cfg
}

// TestDHTResolveAfterServerDeath is the subsystem's reason to exist: an
// Internet node publishes its catalog into the DHT, dies, and a
// DTN-side node still resolves a keyword it had never queried while the
// server lived — entirely from the decentralized index, with zero
// legacy metadata frames received.
func TestDHTResolveAfterServerDeath(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvCtx, srvCancel := context.WithCancel(ctx)
	defer srvCancel()
	net := transport.NewLoopback()
	defer net.Close()

	srvCfg := dhtCfg(1, net)
	srvCfg.ListenAddr = "srv"
	srvCfg.InternetAccess = true
	srvCfg.PublishFiles = 2
	srv, err := New(srvCfg)
	if err != nil {
		t.Fatal(err)
	}

	n2Cfg := dhtCfg(2, net)
	n2Cfg.ListenAddr = "n2"
	n2Cfg.PeerAddrs = []string{"srv"}
	n2, err := New(n2Cfg)
	if err != nil {
		t.Fatal(err)
	}

	n3Cfg := dhtCfg(3, net)
	n3Cfg.ListenAddr = "n3"
	n3Cfg.PeerAddrs = []string{"srv", "n2"}
	n3, err := New(n3Cfg)
	if err != nil {
		t.Fatal(err)
	}

	srvDone := start(srvCtx, srv)
	start(ctx, n2)
	start(ctx, n3)

	// The server's republish tick pushes both catalog records to the K
	// closest contacts — here, everyone. Wait until both DTN nodes hold a
	// DHT copy of the record the post-death query needs: a store count
	// alone is reached by f0's keywords before f1's have left the server.
	waitFor(t, func() bool {
		return len(n2.DHT().CachedValues("f1")) > 0 && len(n3.DHT().CachedValues("f1")) > 0
	}, "catalog replicated into DHT stores")

	// Kill the Internet node. The catalog is gone; only the DHT copies
	// survive.
	srvCancel()
	select {
	case err := <-srvDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("server Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}

	// A query issued only after the server's death. No node's legacy
	// MetadataStore holds f1 (nobody queried it while the server
	// lived), so the hello/server path cannot answer it.
	n2.AddQuery("f1")
	waitFor(t, func() bool { return n2.KnowsMetadata(metadata.URIFor(1)) }, "post-death DHT resolution")

	st := n2.Stats()
	if st.Transport.MetadataRecv != 0 {
		t.Fatalf("resolved via %d legacy metadata frames, want pure-DHT resolution", st.Transport.MetadataRecv)
	}
	if st.DHT == nil {
		t.Fatal("DHT stats missing with EnableDHT")
	}
	// Resolution came from the DHT: either the local cache (seeded by
	// the server's StoreValue fan-out) or an iterative FindValue.
	if st.DHT.CacheHits == 0 && st.DHT.LookupHits == 0 {
		t.Fatalf("dht cacheHits=%d lookupHits=%d, want at least one > 0", st.DHT.CacheHits, st.DHT.LookupHits)
	}
	if st.BadSignatures != 0 {
		t.Fatalf("bad signatures on DHT-resolved records: %d", st.BadSignatures)
	}
}

// TestDHTMissFallsBackToServer pins the discovery seam: a DHT node
// whose lookups find nothing (its only peer speaks no DHT) still
// resolves its query over the legacy hello/server path, the record is
// stored exactly once, and the verified record is folded back into the
// local DHT cache for later FindValue service.
func TestDHTMissFallsBackToServer(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()

	srvCfg := fastCfg(1, net) // no DHT: the legacy server only
	srvCfg.ListenAddr = "srv"
	srvCfg.InternetAccess = true
	srvCfg.PublishFiles = 1
	srv, err := New(srvCfg)
	if err != nil {
		t.Fatal(err)
	}

	leechCfg := dhtCfg(2, net)
	leechCfg.PeerAddrs = []string{"srv"}
	leechCfg.Queries = []string{"f0"}
	leech, err := New(leechCfg)
	if err != nil {
		t.Fatal(err)
	}

	start(ctx, srv)
	start(ctx, leech)

	waitFor(t, func() bool { return leech.Completed(metadata.URIFor(0)) }, "legacy-path download with DHT enabled")

	st := leech.Stats()
	if st.MetadataStored != 1 {
		t.Fatalf("metadata stored %d times, want exactly 1 (no double-count across DHT and legacy paths)", st.MetadataStored)
	}
	// The record arrived over the legacy path (the server re-pushes on
	// each hello until the download completes, so >= 1, not == 1).
	if st.Transport.MetadataRecv == 0 {
		t.Fatal("no legacy metadata frames received; record should have come from the server path")
	}
	if st.DHT == nil {
		t.Fatal("DHT stats missing with EnableDHT")
	}
	// The gossip-learned record is cached in the DHT store, making this
	// node a resolver for others even though its own lookup missed.
	if st.DHT.StoreSize == 0 {
		t.Fatal("verified record not folded into the DHT cache")
	}
	if st.BadSignatures != 0 || st.PiecesRejected != 0 {
		t.Fatalf("rejects: %+v", st)
	}
}

// TestDHTDialOnDemand covers the transient-session path: a contact
// learned via DHT frames (not in the peer set) is dialed on demand when
// an RPC needs it. Topology: n1 — n2 — n3 in a line; n1 and n3 share no
// session, but n3's lookup for n1's record must reach n1 by dialing the
// address learned from NodesReply.
func TestDHTDialOnDemand(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()

	srvCfg := dhtCfg(1, net)
	srvCfg.ListenAddr = "srv"
	srvCfg.InternetAccess = true
	srvCfg.PublishFiles = 1
	// Keep the catalog out of n3's local cache: publish fans out to the
	// K closest contacts the server knows, so a tiny K plus the line
	// topology leaves n3 reachable only via an iterative lookup.
	srvCfg.DHTK = 1
	srv, err := New(srvCfg)
	if err != nil {
		t.Fatal(err)
	}

	n2Cfg := dhtCfg(2, net)
	n2Cfg.ListenAddr = "n2"
	n2Cfg.PeerAddrs = []string{"srv"}
	n2, err := New(n2Cfg)
	if err != nil {
		t.Fatal(err)
	}

	n3Cfg := dhtCfg(3, net)
	n3Cfg.ListenAddr = "n3"
	n3Cfg.PeerAddrs = []string{"n2"}
	n3, err := New(n3Cfg)
	if err != nil {
		t.Fatal(err)
	}

	start(ctx, srv)
	start(ctx, n2)
	start(ctx, n3)

	n3.AddQuery("f0")
	waitFor(t, func() bool { return n3.KnowsMetadata(metadata.URIFor(0)) }, "lookup across the line topology")
}
