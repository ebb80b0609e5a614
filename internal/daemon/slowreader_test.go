package daemon

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestSeederServesPastNonReadingDownloader is the daemon-level twin of
// peer.TestSlowReaderDoesNotStallHealthyPeers, over real TCP: a raw
// socket poses as a downloader of the seeder's 16 MiB file — it
// handshakes, advertises the download every beacon and never reads a
// byte, so the seeder's link to it wedges with megabytes queued behind
// it — while a real daemon downloads the same file. The healthy download
// must finish as if the other were not there: no expiry or reconnect on
// either side of the healthy link, and done while the wedged peer is
// still connected — well inside the 10 s its write deadline takes.
func TestSeederServesPastNonReadingDownloader(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tcp := &transport.TCP{}
	const interval = 50 * time.Millisecond
	tune := func(c *Config) {
		c.HelloInterval = interval
		// A supplier generates a hello's worth of pieces on the session
		// goroutine that also refreshes liveness; under -race that takes
		// long enough to need a window this wide.
		c.LivenessWindow = 10 * time.Second
		c.PieceSize = 64 << 10
		c.PiecesPerHello = 64
	}

	seedCfg := fastCfg(1, tcp)
	tune(&seedCfg)
	seedCfg.ListenAddr = "127.0.0.1:0"
	seedCfg.InternetAccess = true
	seedCfg.PublishFiles = 1
	seedCfg.FileSize = 16 << 20 // past the kernel's socket buffers plus the conn's frame queue
	seed, err := New(seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	seedDone := start(ctx, seed)
	waitFor(t, func() bool { return seed.Addr() != "" }, "seed to bind")

	// The non-reader: hello on connect, then one per interval asking for
	// the file, forever.
	uri := metadata.URIFor(0)
	raw, err := net.Dial("tcp", seed.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	body := wire.Encode(&wire.Hello{From: 3, Downloading: []metadata.URI{uri}})
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)
	rawDone := make(chan struct{})
	go func() {
		defer close(rawDone)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if _, err := raw.Write(frame); err != nil {
				return
			}
			select {
			case <-tick.C:
			case <-ctx.Done():
				return
			}
		}
	}()
	// Wedged: frames are queued to the non-reader and none are leaving.
	waitLong(t, 30*time.Second, func() bool {
		sent := seed.Stats().Transport.PiecesSent
		if seed.Stats().OutboxDataDepth == 0 {
			return false
		}
		time.Sleep(2 * interval)
		return seed.Stats().Transport.PiecesSent == sent
	}, "the seeder's link to the non-reader to wedge")
	wedged := seed.Stats()
	t.Logf("wedged with %d pieces handed to the link and %d queued behind it", wedged.Transport.PiecesSent, wedged.OutboxDataDepth)

	leechCfg := fastCfg(2, tcp)
	tune(&leechCfg)
	leechCfg.PeerAddrs = []string{seed.Addr()}
	leechCfg.Queries = []string{"f0"}
	leech, err := New(leechCfg)
	if err != nil {
		t.Fatal(err)
	}
	leechDone := start(ctx, leech)
	began := time.Now()
	waitLong(t, 30*time.Second, func() bool { return leech.Completed(uri) }, "the healthy download")
	t.Logf("healthy download of %d MiB past a wedged peer: %v", seedCfg.FileSize>>20, time.Since(began))

	ls, ss := leech.Stats(), seed.Stats()
	if ls.Transport.Expiries != 0 || ls.Transport.Reconnects != 0 || ls.PiecesRejected != 0 {
		t.Fatalf("healthy downloader: %d expiries, %d reconnects, %d rejected pieces; want none",
			ls.Transport.Expiries, ls.Transport.Reconnects, ls.PiecesRejected)
	}
	if ss.Transport.Expiries != 0 {
		t.Fatalf("seeder expired %d peers; the healthy one beaconed throughout and the wedged one too", ss.Transport.Expiries)
	}
	// Finished while the wedged peer was still wedged: its write deadline,
	// the only thing that ever frees its link, had not come yet.
	if ss.Transport.Drops != 0 || len(ss.Peers) != 2 {
		t.Fatalf("seeder: %d sessions dropped, peers %+v; the healthy download must not wait for the wedged peer to go",
			ss.Transport.Drops, ss.Peers)
	}
	cancel()
	<-seedDone
	<-leechDone
	raw.Close()
	<-rawDone
}
