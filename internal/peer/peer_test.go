package peer

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// recorder collects dispatched messages: the three base kinds by what
// the tests ask of them, every other kind by its type, in arrival order.
type recorder struct {
	mu       sync.Mutex
	hellos   []trace.NodeID
	metadata []metadata.URI
	pieces   []int
	others   []wire.MsgType
	gotMeta  chan struct{}
	once     sync.Once
}

func newRecorder() *recorder { return &recorder{gotMeta: make(chan struct{})} }

func (r *recorder) Handle(from trace.NodeID, msg wire.Msg) {
	r.mu.Lock()
	switch v := msg.(type) {
	case *wire.Hello:
		r.hellos = append(r.hellos, from)
	case *wire.Metadata:
		r.metadata = append(r.metadata, v.Record.URI)
	case *wire.Piece:
		r.pieces = append(r.pieces, v.Index)
	default:
		r.others = append(r.others, msg.Type())
	}
	r.mu.Unlock()
	if msg.Type() == wire.TypeMetadata {
		r.once.Do(func() { close(r.gotMeta) })
	}
}

func (r *recorder) otherTypes() []wire.MsgType {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire.MsgType(nil), r.others...)
}

func testMeta(t *testing.T) *wire.Metadata {
	t.Helper()
	rec := metadata.NewSynthetic(1, "news daily", "BBC", "world news",
		300*1024, metadata.DefaultPieceSize,
		simtime.At(0, simtime.FileGenerationOffset), simtime.Days(3), []byte("k"))
	return &wire.Metadata{Popularity: 0.5, Record: *rec}
}

// startPair brings up managers A (listening) and B (dialing A) on a
// loopback network and waits until each sees the other.
func startPair(t *testing.T, ctx context.Context, net *transport.Loopback,
	cfgA, cfgB Config) (*Manager, *Manager) {
	t.Helper()
	a, b := NewManager(cfgA), NewManager(cfgB)
	lis, err := net.Listen("A")
	if err != nil {
		t.Fatal(err)
	}
	go a.Serve(ctx, lis)
	go a.Run(ctx)
	go b.Connect(ctx, net, "A")
	go b.Run(ctx)
	waitFor(t, func() bool {
		return len(a.Peers()) == 1 && len(b.Peers()) == 1
	}, "peers to see each other")
	return a, b
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fastCfg(self trace.NodeID, h Handler) Config {
	return Config{
		Self:          self,
		Handler:       h,
		HelloInterval: 10 * time.Millisecond,
		Backoff:       transport.Backoff{Min: time.Millisecond, Jitter: -1},
	}
}

func TestHandshakeAndDispatch(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	ra, rb := newRecorder(), newRecorder()
	a, b := startPair(t, ctx, net, fastCfg(1, ra), fastCfg(2, rb))

	if got := a.Peers(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("a.Peers() = %v", got)
	}
	if got := b.Peers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("b.Peers() = %v", got)
	}

	// A pushes metadata to B; B's handler sees it.
	m := testMeta(t)
	if err := a.Send(2, m); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rb.gotMeta:
	case <-time.After(5 * time.Second):
		t.Fatal("metadata never dispatched")
	}
	rb.mu.Lock()
	uri := rb.metadata[0]
	rb.mu.Unlock()
	if uri != m.Record.URI {
		t.Fatalf("dispatched %q, want %q", uri, m.Record.URI)
	}

	// Hellos flow both ways and are counted.
	waitFor(t, func() bool {
		sa, sb := a.Stats(), b.Stats()
		return sa.HellosRecv > 1 && sb.HellosRecv > 1 && sa.HellosSent > 1 && sb.HellosSent > 1
	}, "hello traffic")

	// The peer table snapshot is coherent.
	tab := a.Table()
	if len(tab) != 1 || tab[0].ID != 2 || !tab[0].Inbound {
		t.Fatalf("a.Table() = %+v", tab)
	}
}

func TestLivenessExpiry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()

	cfgA := fastCfg(1, nil)
	cfgA.LivenessWindow = 60 * time.Millisecond
	a := NewManager(cfgA)
	lis, err := net.Listen("A")
	if err != nil {
		t.Fatal(err)
	}
	go a.Serve(ctx, lis)
	go a.Run(ctx)

	// B handshakes but never beacons (its Run loop is never started)
	// and ignores A's hellos.
	bctx, bcancel := context.WithCancel(ctx)
	defer bcancel()
	b := NewManager(fastCfg(2, nil))
	go b.Connect(bctx, net, "A")
	waitFor(t, func() bool { return len(a.Peers()) == 1 }, "handshake")

	// With no hellos from B, A expires it within the window. (B's
	// Connect loop keeps redialing, so check the counter, not the
	// flapping table.)
	waitFor(t, func() bool { return a.Stats().Expiries >= 1 }, "expiry")
	bcancel()
	waitFor(t, func() bool { return len(a.Peers()) == 0 }, "table to drain after B stops")
}

func TestSendToUnknownPeer(t *testing.T) {
	m := NewManager(fastCfg(1, nil))
	if err := m.Send(99, testMeta(t)); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("got %v", err)
	}
}

func TestSelfConnectRejected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	a := NewManager(fastCfg(1, nil))
	lis, err := net.Listen("A")
	if err != nil {
		t.Fatal(err)
	}
	go a.Serve(ctx, lis)
	// Dial our own listener once, without redial.
	conn, err := net.Dial(ctx, "A")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go a.runSession(ctx, conn, false)
	waitFor(t, func() bool { return a.Stats().HandshakeFail >= 1 }, "self-handshake rejection")
	if got := a.Peers(); len(got) != 0 {
		t.Fatalf("self registered as peer: %v", got)
	}
}

// stubConn is a transport.Conn that does nothing, for table-level
// tests that never pump messages.
type stubConn struct{ closed bool }

func (c *stubConn) Send(ctx context.Context, m wire.Msg) error { return nil }
func (c *stubConn) Recv(ctx context.Context) (wire.Msg, error) { return nil, transport.ErrClosed }
func (c *stubConn) Close() error                               { c.closed = true; return nil }
func (c *stubConn) LocalAddr() string                          { return "stub-local" }
func (c *stubConn) RemoteAddr() string                         { return "stub-remote" }

// attach registers a session over conn and runs its writer until the
// test ends: what runSession does once a handshake lands, minus the
// receive pump.
func attach(tb testing.TB, m *Manager, id trace.NodeID, conn transport.Conn) *session {
	tb.Helper()
	s := parked(tb, m, id, conn)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.writeLoop(ctx, s)
	}()
	tb.Cleanup(func() {
		cancel()
		<-done
	})
	return s
}

// TestFlapAccounting checks young session deaths are counted as flaps,
// surfaced in the table, and decayed once the link holds steady.
func TestFlapAccounting(t *testing.T) {
	m := NewManager(fastCfg(1, nil))
	keeper, _ := m.register(2, &stubConn{}, false)
	young, _ := m.register(2, &stubConn{}, false)
	m.unregister(young)
	if got := m.Stats().Flaps; got != 1 {
		t.Fatalf("Flaps = %d after a young session death, want 1", got)
	}
	tab := m.Table()
	if len(tab) != 1 || tab[0].Flaps != 1 {
		t.Fatalf("Table() = %+v, want one peer with Flaps=1", tab)
	}

	// A session that outlived the flap threshold is not a flap.
	keeper.started = time.Now().Add(-2 * m.cfg.LivenessWindow)
	m.unregister(keeper)
	if got := m.Stats().Flaps; got != 1 {
		t.Fatalf("Flaps = %d after an old session death, want still 1", got)
	}

	// Decay: after a long quiet period the flap score drains away.
	m.expire(time.Now().Add(5 * m.cfg.LivenessWindow))
	left := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		left += len(sh.flaps)
		sh.mu.Unlock()
	}
	if left != 0 {
		t.Fatalf("%d flap entries survived decay", left)
	}
}

// TestFlapDemotionEndToEnd kills sessions from the listening side and
// checks the dialer counts the young deaths as flaps while still
// reconnecting.
func TestFlapDemotionEndToEnd(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	a, b := startPair(t, ctx, net, fastCfg(1, nil), fastCfg(2, nil))

	a.Close()
	waitFor(t, func() bool { return b.Stats().Flaps >= 1 }, "flap to be counted")
	waitFor(t, func() bool { return len(a.Peers()) == 1 && len(b.Peers()) == 1 }, "demoted link to recover")
}

func TestReconnectAfterListenerRestart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	a, b := startPair(t, ctx, net, fastCfg(1, nil), fastCfg(2, nil))

	// Kill every session from A's side; B's Connect loop must redial.
	a.Close()
	waitFor(t, func() bool { return b.Stats().Reconnects >= 1 }, "reconnect attempt")
	waitFor(t, func() bool { return len(a.Peers()) == 1 && len(b.Peers()) == 1 }, "session re-established")
}
