package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
)

func waitFor(t testing.TB, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fastCfg shrinks the protocol clocks so tests converge in
// milliseconds instead of seconds.
func fastCfg(id trace.NodeID, tr transport.Transport) Config {
	return Config{
		ID:             id,
		Transport:      tr,
		HelloInterval:  10 * time.Millisecond,
		LivenessWindow: 200 * time.Millisecond,
		FetchMatching:  true,
		Backoff:        transport.Backoff{Min: 2 * time.Millisecond, Jitter: -1},
	}
}

// start runs d until ctx ends, returning a channel that yields Run's
// error.
func start(ctx context.Context, d *Daemon) chan error {
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	return done
}

// TestConfigValidate: New rejects — it no longer defaults — every value
// no default can stand in for, one row per rule; zero fields pass.
func TestConfigValidate(t *testing.T) {
	net := transport.NewLoopback()
	defer net.Close()
	base := Config{Transport: net, ListenAddr: "v"}
	if err := base.Validate(); err != nil {
		t.Fatalf("zero Config with a transport and a listen address: %v", err)
	}
	for _, tc := range []struct {
		want   string // the field the error must name
		mutate func(*Config)
	}{
		{"transport", func(c *Config) { c.Transport = nil }},
		{"listen", func(c *Config) { c.ListenAddr = "" }},
		{"InternetNodes", func(c *Config) { c.InternetNodes = -1 }},
		{"PublishFiles", func(c *Config) { c.PublishFiles = -1 }},
		{"FileSize", func(c *Config) { c.FileSize = -1 }},
		{"PieceSize", func(c *Config) { c.PieceSize = -1 }},
		{"PiecesPerHello", func(c *Config) { c.PiecesPerHello = -1 }},
		{"HelloInterval", func(c *Config) { c.HelloInterval = -time.Second }},
		{"LivenessWindow", func(c *Config) { c.LivenessWindow = -time.Second }},
		{"MaxPeers", func(c *Config) { c.MaxPeers = -1 }},
		{"ResendAfter", func(c *Config) { c.ResendAfter = -time.Second }},
		{"RetryBudget", func(c *Config) { c.RetryBudget = -1 }},
		{"PeerRate", func(c *Config) { c.PeerRate = -1 }},
		{"BusyRetryAfter", func(c *Config) { c.BusyRetryAfter = -time.Second }},
		{"OutboxLen", func(c *Config) { c.OutboxLen = -1 }},
		{"SymbolSize", func(c *Config) { c.EnableBcast, c.SymbolSize = true, -1 }},
		{"RelayBudget", func(c *Config) { c.EnableBcast, c.RelayBudget = true, -1 }},
		{"DHTK", func(c *Config) { c.EnableDHT, c.DHTK = true, -1 }},
		{"DHTRepublish", func(c *Config) { c.EnableDHT, c.DHTRepublish = true, -time.Second }},
		{"LivenessWindow shorter", func(c *Config) { c.HelloInterval, c.LivenessWindow = 2*time.Second, time.Second }},
		{"EnableFEC needs", func(c *Config) { c.EnableFEC = true }},
		{"TitForTat needs", func(c *Config) { c.TitForTat = true }},
		{"DHTK needs", func(c *Config) { c.DHTK = 8 }},
		{"DHTRepublish needs", func(c *Config) { c.DHTRepublish = time.Second }},
		{"StoreFS needs", func(c *Config) { c.StoreFS = store.OSFS{} }},
		{"StoreCompactEvery needs", func(c *Config) { c.StoreCompactEvery = 256 }},
	} {
		c := base
		tc.mutate(&c)
		if _, err := New(c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New returned %v, want an error naming it", tc.want, err)
		}
	}
}

// TestLoopbackEndToEndSoak is the two-daemon soak over the
// deterministic loopback transport: hello exchange, metadata pull for
// two queries, and full multi-piece downloads with per-piece checksum
// verification.
func TestLoopbackEndToEndSoak(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()

	seedCfg := fastCfg(1, net)
	seedCfg.ListenAddr = "seed"
	seedCfg.InternetAccess = true
	seedCfg.PublishFiles = 2
	seed, err := New(seedCfg)
	if err != nil {
		t.Fatal(err)
	}

	leechCfg := fastCfg(2, net)
	leechCfg.PeerAddrs = []string{"seed"}
	leechCfg.Queries = []string{"f0", "f1"}
	leech, err := New(leechCfg)
	if err != nil {
		t.Fatal(err)
	}

	start(ctx, seed)
	start(ctx, leech)

	// Hello exchange: each sees the other.
	waitFor(t, func() bool {
		return len(seed.Manager().Peers()) == 1 && len(leech.Manager().Peers()) == 1
	}, "hello exchange")

	// Metadata pull: both records arrive and are selected.
	waitFor(t, func() bool { return leech.Stats().MetadataStored == 2 }, "metadata pull")

	// Piece download: both files complete, verified.
	f0, f1 := metadata.URIFor(0), metadata.URIFor(1)
	waitFor(t, func() bool { return leech.Completed(f0) && leech.Completed(f1) }, "downloads")

	st := leech.Stats()
	wantPieces := uint64(2 * 3) // 2 files × 3 pieces at 600 KB / 256 KB
	if st.PiecesVerified < wantPieces {
		t.Fatalf("pieces verified = %d, want >= %d", st.PiecesVerified, wantPieces)
	}
	if st.PiecesRejected != 0 || st.BadSignatures != 0 {
		t.Fatalf("rejects: %+v", st)
	}
	if len(st.Downloading) != 0 {
		t.Fatalf("still downloading %v after completion", st.Downloading)
	}
	if got := seed.Stats().Transport.PiecesSent; got < wantPieces {
		t.Fatalf("seed sent %d pieces, want >= %d", got, wantPieces)
	}
}

// TestReconnectAfterDrop drops every live session mid-download and
// checks the leecher redials and finishes.
func TestReconnectAfterDrop(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()

	seedCfg := fastCfg(1, net)
	seedCfg.ListenAddr = "seed"
	seedCfg.InternetAccess = true
	seedCfg.PublishFiles = 1
	seedCfg.PiecesPerHello = 1 // slow the transfer so the drop lands mid-flight
	seed, err := New(seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	leechCfg := fastCfg(2, net)
	leechCfg.PeerAddrs = []string{"seed"}
	leechCfg.Queries = []string{"f0"}
	leech, err := New(leechCfg)
	if err != nil {
		t.Fatal(err)
	}
	start(ctx, seed)
	start(ctx, leech)

	// Wait for the download to start, then yank every session.
	waitFor(t, func() bool { return leech.Stats().PiecesVerified >= 1 }, "first piece")
	seed.Manager().Close()
	leech.Manager().Close()

	waitFor(t, func() bool { return leech.Manager().Stats().Reconnects >= 1 }, "reconnect")
	waitFor(t, func() bool { return leech.Completed(metadata.URIFor(0)) }, "download completion after drop")
}

// TestShutdownWhileSending cancels both daemons in the middle of a
// large transfer; Run must return promptly with every goroutine joined.
func TestShutdownWhileSending(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	net := transport.NewLoopback()
	defer net.Close()

	seedCfg := fastCfg(1, net)
	seedCfg.ListenAddr = "seed"
	seedCfg.InternetAccess = true
	seedCfg.PublishFiles = 1
	seedCfg.PieceSize = 4 * 1024
	seedCfg.FileSize = 2 * 1024 * 1024 // 512 pieces: plenty of in-flight work
	seed, err := New(seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	leechCfg := fastCfg(2, net)
	leechCfg.PeerAddrs = []string{"seed"}
	leechCfg.Queries = []string{"f0"}
	leech, err := New(leechCfg)
	if err != nil {
		t.Fatal(err)
	}
	seedDone := start(ctx, seed)
	leechDone := start(ctx, leech)

	waitFor(t, func() bool { return leech.Stats().PiecesVerified >= 8 }, "transfer in flight")
	cancel()
	for _, done := range []chan error{seedDone, leechDone} {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run returned %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down while sending")
		}
	}
}

// TestTCPEndToEnd runs the full flow over real sockets: metadata query
// and multi-piece download at the paper's 256 KB piece size, plus the
// HTTP stats surface.
func TestTCPEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tcp := &transport.TCP{}

	seedCfg := fastCfg(1, tcp)
	seedCfg.ListenAddr = "127.0.0.1:0"
	seedCfg.InternetAccess = true
	seedCfg.PublishFiles = 1
	seed, err := New(seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	start(ctx, seed)
	waitFor(t, func() bool { return seed.Addr() != "" }, "seed to bind")

	leechCfg := fastCfg(2, tcp)
	leechCfg.PeerAddrs = []string{seed.Addr()}
	leechCfg.Queries = []string{"f0"}
	leech, err := New(leechCfg)
	if err != nil {
		t.Fatal(err)
	}
	start(ctx, leech)

	waitFor(t, func() bool { return leech.Completed(metadata.URIFor(0)) }, "TCP download")
	st := leech.Stats()
	if st.PiecesVerified < 3 {
		t.Fatalf("verified %d pieces, want >= 3", st.PiecesVerified)
	}
	if st.PiecesRejected != 0 {
		t.Fatalf("rejected pieces over TCP: %+v", st)
	}

	// The HTTP surface reports the same state.
	srv := httptest.NewServer(leech.Handler())
	defer srv.Close()
	var health struct {
		Status string `json:"status"`
		Peers  int    `json:"peers"`
	}
	getJSON(t, srv.URL+"/healthz", &health)
	if health.Status != "ok" || health.Peers != 1 {
		t.Fatalf("healthz: %+v", health)
	}
	var stats Stats
	getJSON(t, srv.URL+"/stats", &stats)
	if !stats.Completed[string(metadata.URIFor(0))] {
		t.Fatalf("stats endpoint missing completion: %+v", stats)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, r.Status)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
