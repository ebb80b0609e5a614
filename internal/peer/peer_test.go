package peer

import (
	"context"
	"errors"
	"slices"
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
	gone     []trace.NodeID
	gotMeta  chan struct{}
	once     sync.Once
}

func newRecorder() *recorder { return &recorder{gotMeta: make(chan struct{})} }

func (r *recorder) Gone(id trace.NodeID) {
	r.mu.Lock()
	r.gone = append(r.gone, id)
	r.mu.Unlock()
}

func (r *recorder) goneIDs() []trace.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.gone)
}

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

// startPair brings up managers A (listening) and B (a configured link to
// A) on a loopback network and waits until each sees the other.
func startPair(t *testing.T, ctx context.Context, net *transport.Loopback,
	cfgA, cfgB Config) (*Manager, *Manager) {
	t.Helper()
	cfgB.Transport, cfgB.Addrs = net, []string{"A"}
	a, b := NewManager(cfgA), NewManager(cfgB)
	lis, err := net.Listen("A")
	if err != nil {
		t.Fatal(err)
	}
	go a.Serve(ctx, lis)
	go beat(ctx, a)
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
	cfgB := fastCfg(2, nil)
	cfgB.Transport = net
	b := NewManager(cfgB)
	go b.Dial(bctx, "A")
	waitFor(t, func() bool { return len(a.Peers()) == 1 }, "handshake")

	// With no hellos from B, A expires it within the window.
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
	go a.runSession(ctx, conn, nil)
	waitFor(t, func() bool { return a.Stats().HandshakeFail >= 1 }, "self-handshake rejection")
	if got := a.Peers(); len(got) != 0 {
		t.Fatalf("self registered as peer: %v", got)
	}
}

// TestGoneWhenThePeerLeavesTheTable: the handler hears Gone once per
// peer that leaves the table — when its last session drops, not its
// first, and when it expires — and not for a peer that stays.
func TestGoneWhenThePeerLeavesTheTable(t *testing.T) {
	clk := testutil.NewClock()
	rec := newRecorder()
	cfg := fastCfg(1, rec)
	cfg.LivenessWindow = time.Minute
	cfg.Now = clk.Now
	m := NewManager(cfg)
	first, second := parked(t, m, 2, &stubConn{}), parked(t, m, 2, &stubConn{})
	parked(t, m, 3, &stubConn{})
	m.unregister(first)
	if got := rec.goneIDs(); len(got) != 0 {
		t.Fatalf("one of node 2's two sessions dropped: Gone(%v)", got)
	}
	m.unregister(second)
	if got := rec.goneIDs(); !slices.Equal(got, []trace.NodeID{2}) {
		t.Fatalf("node 2's last session dropped: Gone(%v), want [2]", got)
	}
	clk.Advance(cfg.LivenessWindow + 1)
	m.expire(clk.Now())
	if got := rec.goneIDs(); !slices.Equal(got, []trace.NodeID{2, 3}) {
		t.Fatalf("node 3 expired: Gone(%v), want [2 3]", got)
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

// deadEnd is a loopback that counts dials and refuses them while dead.
type deadEnd struct {
	*transport.Loopback
	dials atomic.Int32
	alive atomic.Bool
}

func (d *deadEnd) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	d.dials.Add(1)
	if !d.alive.Load() {
		return nil, errors.New("connection refused")
	}
	return d.Loopback.Dial(ctx, addr)
}

// answer accepts the next dial on lis and handshakes it as node id,
// returning the far end of the session.
func answer(t *testing.T, lis transport.Listener, id trace.NodeID) transport.Conn {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	far, err := lis.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := far.Send(ctx, &wire.Hello{From: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := far.Recv(ctx); err != nil { // the manager's handshake hello
		t.Fatal(err)
	}
	return far
}

// dialAnswer has m dial addr on demand and answers on lis as node id; it
// returns the far end once m's session is registered.
func dialAnswer(t *testing.T, m *Manager, lis transport.Listener, addr string, id trace.NodeID) transport.Conn {
	t.Helper()
	dialed := make(chan error, 1)
	go func() { dialed <- m.Dial(context.Background(), addr) }()
	far := answer(t, lis, id)
	if err := <-dialed; err != nil {
		t.Fatalf("Dial(%s): %v", addr, err)
	}
	return far
}

// linkOf copies addr's link record; ok is false when there is none.
func linkOf(m *Manager, addr string) (l link, ok bool) {
	m.linkMu.Lock()
	defer m.linkMu.Unlock()
	if p := m.links[addr]; p != nil {
		return *p, true
	}
	return link{}, false
}

// waitDown waits until addr's link is down or forgotten: its dial or
// session has been filed.
func waitDown(t *testing.T, m *Manager, addr string) {
	t.Helper()
	waitFor(t, func() bool {
		l, ok := linkOf(m, addr)
		return !ok || l.up == nil
	}, "the link to "+addr+" to settle")
}

// TestFlapAccounting: every session that dies younger than the liveness
// window is a flap in Stats, dialed or inbound. The table shows, for a
// session on a dialed link, the step that link has climbed, and 0 for an
// inbound one — its address's health is the dialer's; a session that
// outlives the window clears its link's step, and its end is no flap.
func TestFlapAccounting(t *testing.T) {
	clk := testutil.NewClock()
	tr := &deadEnd{Loopback: transport.NewLoopback()}
	defer tr.Close()
	tr.alive.Store(true)
	lis, err := tr.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(1, nil)
	cfg.Now, cfg.Transport = clk.Now, tr
	m := NewManager(cfg)

	far := dialAnswer(t, m, lis, "a", 2)
	far.Close()
	waitDown(t, m, "a")
	if got := m.Stats().Flaps; got != 1 {
		t.Fatalf("Flaps = %d after a young session death, want 1", got)
	}

	// Back up once its step is over: node 2's session shows the step, an
	// inbound session of node 3 shows none.
	clk.Advance(cfg.Backoff.Delay(0))
	far = dialAnswer(t, m, lis, "a", 2)
	defer far.Close()
	in, err := m.register(3, &stubConn{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	flaps := func() map[trace.NodeID]int {
		got := make(map[trace.NodeID]int)
		for _, info := range m.Table() {
			got[info.ID] = info.Flaps
		}
		return got
	}
	if got := flaps(); got[2] != 1 || got[3] != 0 || len(got) != 2 {
		t.Fatalf("table flaps %v, want node 2 on its link's step 1, inbound node 3 on 0", got)
	}
	m.unregister(in)
	if got := m.Stats().Flaps; got != 2 {
		t.Fatalf("Flaps = %d after an inbound session died young too, want 2", got)
	}

	// The session outlives the window: the links step clears its step
	// while it is still up, and its end is no flap.
	clk.Advance(m.cfg.LivenessWindow)
	m.linkRound(clk.Now())
	if got := flaps(); got[2] != 0 {
		t.Fatalf("node 2 shows %d flaps on a session that outlived the window, want 0", got[2])
	}
	far.Close()
	waitDown(t, m, "a")
	if got := m.Stats().Flaps; got != 2 {
		t.Fatalf("Flaps = %d after an old session death, want still 2", got)
	}
}

// TestConnectOnceSuppressesDeadAddress: a link dialed on demand keeps the
// backoff schedule per address. A refusing address costs one dial per
// schedule step, however often it is asked for; everything in between
// fails fast and is counted; the step ends on the clock, to the tick; a
// caller that gave up before asking holds nothing against the address; a
// session that outlives the window clears the record; and a record nobody
// dials any more is forgotten.
func TestConnectOnceSuppressesDeadAddress(t *testing.T) {
	const perStep = 5 // back-to-back calls behind each real dial
	clk := testutil.NewClock()
	tr := &deadEnd{Loopback: transport.NewLoopback()}
	defer tr.Close()
	cfg := fastCfg(1, nil) // Backoff{Min: 1ms, Jitter: -1}: step k waits exactly 2^k ms
	cfg.Now, cfg.Transport = clk.Now, tr
	m := NewManager(cfg)
	ctx := context.Background()
	suppressed := func(addr string) bool {
		t.Helper()
		err := m.Dial(ctx, addr)
		if err == nil {
			t.Fatalf("Dial(%s) succeeded against a refusing transport", addr)
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

	// Another address has a schedule of its own, and a caller whose
	// context had already ended dialed nothing and starts nothing.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := m.Dial(cancelled, "other"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Dial on a cancelled context: %v, want context.Canceled", err)
	}
	if suppressed("other") {
		t.Fatal("a dial its caller cancelled was held against the address, or a dead neighbour's schedule suppressed it")
	}

	// A session that outlives the window clears the record: the next
	// failure starts over at the first step instead of the fifth.
	tr.alive.Store(true)
	lis, err := tr.Listen("dead")
	if err != nil {
		t.Fatal(err)
	}
	far := dialAnswer(t, m, lis, "dead", 2)
	clk.Advance(m.cfg.LivenessWindow)
	far.Close()
	waitDown(t, m, "dead")
	tr.alive.Store(false)
	if suppressed("dead") {
		t.Fatal("suppressed right after a session that outlived the window")
	}
	clk.Advance(cfg.Backoff.Delay(0))
	if suppressed("dead") {
		t.Fatalf("still suppressed %v after the first failure since the session: the record was not cleared", cfg.Backoff.Delay(0))
	}
	if st := m.Stats(); st.Dials != 1 || st.HandshakeFail != 0 {
		t.Fatalf("Dials = %d, HandshakeFail = %d; want the one dial that connected", st.Dials, st.HandshakeFail)
	}

	// Addresses arrive from strangers (DHT replies), so a record nobody
	// dials against any more is forgotten rather than kept for good.
	records := func() int {
		m.linkMu.Lock()
		defer m.linkMu.Unlock()
		return len(m.links)
	}
	m.linkRound(clk.Now())
	if got := records(); got != 2 {
		t.Fatalf("%d link records while both are fresh, want 2", got)
	}
	clk.Advance(4*m.cfg.LivenessWindow + time.Second)
	m.linkRound(clk.Now())
	if got := records(); got != 0 {
		t.Fatalf("%d link records survived four idle liveness windows", got)
	}
}

// TestLinkRedialsOnTheBeat: a configured link is dialed before Run's first
// wait; its session, hung up by the far end after it outlived the window,
// is redialed at once with no tick; one hung up younger than the window
// waits for the first tick at or past its step — none on a tick a
// nanosecond short of it.
func TestLinkRedialsOnTheBeat(t *testing.T) {
	defer testutil.NoLeaks(t)()
	clk := testutil.NewClock()
	tr := &deadEnd{Loopback: transport.NewLoopback()}
	defer tr.Close()
	tr.alive.Store(true)
	lis, err := tr.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(1, nil)
	cfg.Now, cfg.Transport, cfg.Addrs = clk.Now, tr, []string{"a"}
	m := NewManager(cfg)
	tick, rounds := make(chan time.Time), make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		m.Run(ctx, tick, func(time.Duration) {}, func(time.Time) { rounds <- struct{}{} })
	}()
	defer func() {
		cancel()
		<-ran
	}()
	fire := func() { // one whole round
		tick <- clk.Now()
		<-rounds
	}

	far := answer(t, lis, 2) // the boot dial
	defer func() { far.Close() }()
	waitFor(t, func() bool { return len(m.Peers()) == 1 }, "the boot session")
	clk.Advance(m.cfg.LivenessWindow)
	far.Close()
	far = answer(t, lis, 2) // no tick fired
	waitFor(t, func() bool { return m.Stats().Reconnects == 1 }, "the redialed session")
	if n := tr.dials.Load(); n != 2 {
		t.Fatalf("%d dials, want the boot dial and the redial", n)
	}

	far.Close() // young
	waitDown(t, m, "a")
	clk.Advance(cfg.Backoff.Delay(0) - 1)
	fire()
	if l, _ := linkOf(m, "a"); l.up != nil || tr.dials.Load() != 2 {
		t.Fatalf("redialed on a tick a nanosecond short of its %v step", cfg.Backoff.Delay(0))
	}
	clk.Advance(1)
	fire()
	far = answer(t, lis, 2)
	waitFor(t, func() bool { return m.Stats().Reconnects == 2 }, "the session redialed on the beat")
	if n := tr.dials.Load(); n != 3 {
		t.Fatalf("%d dials, want 3", n)
	}
}

// TestNeverUpLinkRedialsOnAnEvent: RedialNeverUp — which the daemon
// calls when a hello adds an edge — dials a configured address that
// refused the boot dial at once, with no tick fired and its backoff step
// not yet run; a refused event dial climbs the step like any other. A
// link that has been up once is the beat's alone.
func TestNeverUpLinkRedialsOnAnEvent(t *testing.T) {
	defer testutil.NoLeaks(t)()
	clk := testutil.NewClock()
	tr := &deadEnd{Loopback: transport.NewLoopback()}
	defer tr.Close()
	lis, err := tr.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(1, nil)
	cfg.Now, cfg.Transport, cfg.Addrs = clk.Now, tr, []string{"b"}
	cfg.Backoff.Min = time.Hour
	m := NewManager(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	defer func() {
		cancel()
		<-ran
	}()
	go func() {
		defer close(ran)
		m.Run(ctx, nil, func(time.Duration) {}, nil) // no tick ever fires
	}()

	waitFor(t, func() bool { return tr.dials.Load() == 1 }, "the boot dial")
	waitDown(t, m, "b")
	m.RedialNeverUp() // b still refuses
	waitFor(t, func() bool { return tr.dials.Load() == 2 }, "the event's dial")
	waitDown(t, m, "b")
	if l, _ := linkOf(m, "b"); l.fails != 2 {
		t.Fatalf("a refused event dial left the link at step %d, want 2", l.fails)
	}

	tr.alive.Store(true) // b listens now
	m.RedialNeverUp()
	far := answer(t, lis, 2)
	waitFor(t, func() bool { return len(m.Peers()) == 1 }, "the session to b")
	if n := tr.dials.Load(); n != 3 {
		t.Fatalf("%d dials, want the boot dial and two event dials", n)
	}

	far.Close() // young: the link has been up, its step is the beat's
	waitDown(t, m, "b")
	m.RedialNeverUp()
	if l, _ := linkOf(m, "b"); l.up != nil || tr.dials.Load() != 3 {
		t.Fatalf("an event redialed a link that had been up (%d dials)", tr.dials.Load())
	}
}

// refuseFirst refuses its first dial, once gate is closed, and lets every
// later one through.
type refuseFirst struct {
	*transport.Loopback
	gate  chan struct{}
	dials atomic.Int32
}

func (r *refuseFirst) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	if r.dials.Add(1) == 1 {
		<-r.gate
		return nil, errors.New("connection refused")
	}
	return r.Loopback.Dial(ctx, addr)
}

// TestNeverUpLinkEventDuringItsDial: an event that finds a never-up
// link's boot dial still in flight is not lost — when that dial is
// refused, the link dials once more at once, without climbing a step.
func TestNeverUpLinkEventDuringItsDial(t *testing.T) {
	defer testutil.NoLeaks(t)()
	clk := testutil.NewClock()
	tr := &refuseFirst{Loopback: transport.NewLoopback(), gate: make(chan struct{})}
	defer tr.Close()
	lis, err := tr.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(1, nil)
	cfg.Now, cfg.Transport, cfg.Addrs = clk.Now, tr, []string{"b"}
	cfg.Backoff.Min = time.Hour
	m := NewManager(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	defer func() {
		cancel()
		<-ran
	}()
	go func() {
		defer close(ran)
		m.Run(ctx, nil, func(time.Duration) {}, nil) // no tick ever fires
	}()
	waitFor(t, func() bool { return tr.dials.Load() == 1 }, "the boot dial")
	m.RedialNeverUp() // the boot dial is still in flight
	close(tr.gate)
	far := answer(t, lis, 2)
	defer far.Close()
	waitFor(t, func() bool { return len(m.Peers()) == 1 }, "the session to b")
	if l, _ := linkOf(m, "b"); tr.dials.Load() != 2 || l.fails != 0 {
		t.Fatalf("%d dials, step %d; want the refused boot dial, one redial and no step", tr.dials.Load(), l.fails)
	}
}

// flakyListener fails its first Accept the way an exhausted file table
// does, then accepts normally.
type flakyListener struct {
	transport.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept(ctx context.Context) (transport.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, errors.New("accept tcp: too many open files")
	}
	return l.Listener.Accept(ctx)
}

// TestServeSurvivesAFailedAccept: one failed Accept used to end Serve, and
// with it every inbound session to come. It is counted and retried at the
// next beat: after one fired tick a dialer gets a registered session.
func TestServeSurvivesAFailedAccept(t *testing.T) {
	defer testutil.NoLeaks(t)()
	net := transport.NewLoopback()
	defer net.Close()
	inner, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(fastCfg(1, nil))
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg.Add(2)
	go func() { defer wg.Done(); m.Serve(ctx, &flakyListener{Listener: inner}) }()
	tick := make(chan time.Time)
	go func() { defer wg.Done(); m.Run(ctx, tick, func(time.Duration) {}, nil) }()

	// Counted once the accept loop waits for a links step — Run's first,
	// which may already have let it go, or the tick's.
	waitFor(t, func() bool { return m.Stats().AcceptFails == 1 }, "the failed accept")
	tick <- time.Now()
	conn, err := net.Dial(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(ctx, &wire.Hello{From: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(m.Peers()) == 1 }, "the inbound session")
	if st := m.Stats(); st.AcceptFails != 1 || st.Accepts != 1 {
		t.Fatalf("AcceptFails = %d, Accepts = %d; want 1 and 1", st.AcceptFails, st.Accepts)
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

	// Kill every session from A's side; B's link must redial.
	a.Close()
	waitFor(t, func() bool { return b.Stats().Reconnects >= 1 }, "reconnect attempt")
	waitFor(t, func() bool { return len(a.Peers()) == 1 && len(b.Peers()) == 1 }, "session re-established")
}
