package peer

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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
	go beat(ctx, a)
	go b.Connect(ctx, net, "A")
	go beat(ctx, b)
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

// beat runs m's beat until ctx ends on a runtime ticker, armed the way the
// daemon arms it, with no rest.
func beat(ctx context.Context, m *Manager) {
	t := time.NewTicker(m.cfg.HelloInterval)
	defer t.Stop()
	m.Run(ctx, t.C, t.Reset, nil)
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
	go beat(ctx, a)

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
	clk := testutil.NewClock()
	cfg := fastCfg(1, nil)
	cfg.Now = clk.Now
	m := NewManager(cfg)
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

	// A session that reached the flap threshold is not a flap.
	clk.Advance(m.cfg.LivenessWindow)
	m.unregister(keeper)
	if got := m.Stats().Flaps; got != 1 {
		t.Fatalf("Flaps = %d after an old session death, want still 1", got)
	}

	// Decay: once the flap is more than four liveness windows old — not
	// at four — the score drains away.
	flapEntries := func() (n int) {
		for _, sh := range m.shards {
			sh.mu.Lock()
			n += len(sh.flaps)
			sh.mu.Unlock()
		}
		return n
	}
	clk.Advance(3 * m.cfg.LivenessWindow)
	m.expire(clk.Now())
	if left := flapEntries(); left != 1 {
		t.Fatalf("%d flap entries four windows after the flap, want still 1", left)
	}
	clk.Advance(1)
	m.expire(clk.Now())
	if left := flapEntries(); left != 0 {
		t.Fatalf("%d flap entries survived decay", left)
	}
}

// deadEnd is a transport that counts dials and refuses them while dead;
// alive, a dial yields a conn that hangs up before the handshake.
type deadEnd struct {
	dials atomic.Int32
	alive atomic.Bool
}

func (d *deadEnd) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	d.dials.Add(1)
	if !d.alive.Load() {
		return nil, errors.New("connection refused")
	}
	return &stubConn{}, nil
}

func (d *deadEnd) Listen(addr string) (transport.Listener, error) {
	return nil, errors.New("deadEnd does not listen")
}

// TestConnectOnceSuppressesDeadAddress: ConnectOnce has no retry loop,
// so the Manager keeps Connect's backoff schedule per address for it. A
// refusing address costs one dial per schedule step, however often it is
// asked for; everything in between fails fast and is counted; the step
// ends on the clock, to the tick; a context we cancelled ourselves is not
// a failure; and a dial that succeeds clears the record.
func TestConnectOnceSuppressesDeadAddress(t *testing.T) {
	const perStep = 5 // back-to-back calls behind each real dial
	clk := testutil.NewClock()
	cfg := fastCfg(1, nil) // Backoff{Min: 1ms, Jitter: -1}: step k waits exactly 2^k ms
	cfg.Now = clk.Now
	m := NewManager(cfg)
	tr := &deadEnd{}
	ctx := context.Background()
	suppressed := func(addr string) bool {
		t.Helper()
		err := m.ConnectOnce(ctx, tr, addr)
		if err == nil {
			t.Fatalf("ConnectOnce(%s) succeeded against a refusing transport", addr)
		}
		return errors.Is(err, ErrDialSuppressed)
	}

	for step := 0; step < 4; step++ {
		if suppressed("dead") {
			t.Fatalf("step %d: the attempt the schedule permits was suppressed", step)
		}
		for i := 0; i < perStep; i++ {
			if !suppressed("dead") {
				t.Fatalf("step %d: call %d right behind a failed dial reached the transport", step, i)
			}
		}
		clk.Advance(cfg.Backoff.Delay(step) - 1)
		if !suppressed("dead") {
			t.Fatalf("step %d: dial admitted one tick short of the %v step", step, cfg.Backoff.Delay(step))
		}
		clk.Advance(1)
		if got, want := int(tr.dials.Load()), step+1; got != want {
			t.Fatalf("step %d: %d dials reached the transport, want %d (one per step)", step, got, want)
		}
		if got, want := m.Stats().DialsSuppressed, uint64((step+1)*(perStep+1)); got != want {
			t.Fatalf("step %d: DialsSuppressed = %d, want %d", step, got, want)
		}
	}

	// Another address has a schedule of its own, and a dial that fails
	// under a context we cancelled does not start it.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := m.ConnectOnce(cancelled, tr, "other"); errors.Is(err, ErrDialSuppressed) {
		t.Fatal("a dead neighbour's schedule suppressed another address")
	}
	if suppressed("other") {
		t.Fatal("a dial cancelled by its caller was held against the address")
	}

	// A dial that succeeds clears the record: the next failure starts
	// over at the first step instead of the fifth.
	tr.alive.Store(true)
	if err := m.ConnectOnce(ctx, tr, "dead"); err != nil {
		t.Fatalf("ConnectOnce after the address came back: %v", err)
	}
	tr.alive.Store(false)
	if suppressed("dead") {
		t.Fatal("suppressed right after a successful dial")
	}
	clk.Advance(cfg.Backoff.Delay(0))
	if suppressed("dead") {
		t.Fatalf("still suppressed %v after the first failure since the success: the record was not cleared", cfg.Backoff.Delay(0))
	}
	if st := m.Stats(); st.Dials != 1 || st.HandshakeFail != 1 {
		t.Fatalf("Dials = %d, HandshakeFail = %d; want the one dial that connected, hung up on", st.Dials, st.HandshakeFail)
	}

	// Addresses arrive from strangers (DHT replies), so a record nobody
	// dials against any more is forgotten rather than kept for good.
	records := func() int {
		m.redialMu.Lock()
		defer m.redialMu.Unlock()
		return len(m.redials)
	}
	m.expire(clk.Now())
	if got := records(); got != 2 {
		t.Fatalf("%d redial records while both are fresh, want 2", got)
	}
	clk.Advance(4*m.cfg.LivenessWindow + time.Second)
	m.expire(clk.Now())
	if got := records(); got != 0 {
		t.Fatalf("%d redial records survived four idle liveness windows", got)
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
