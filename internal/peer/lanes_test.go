package peer

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

func tinyPiece(i int) *wire.Piece {
	return &wire.Piece{URI: metadata.URIFor(0), Index: i, Total: 1 << 20, Data: []byte("x")}
}

// parked registers a session for peer id with no writer behind it, so
// everything sent to it stays in its lanes.
func parked(tb testing.TB, m *Manager, id trace.NodeID, conn transport.Conn) *session {
	tb.Helper()
	s, err := m.register(id, conn, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestOutboxClassPriority: a full data lane sheds data frames while
// control frames to the same peer still enqueue, and the drain order is
// control first regardless of push order.
func TestOutboxClassPriority(t *testing.T) {
	cfg := fastCfg(1, nil)
	cfg.QueueLen = 2
	m := NewManager(cfg)
	s := parked(t, m, 2, &stubConn{})
	for i := 0; i < 2; i++ {
		if err := m.Send(2, tinyPiece(i)); err != nil {
			t.Fatalf("data send %d refused below the cap: %v", i, err)
		}
	}
	if err := m.Send(2, tinyPiece(2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("data send past the cap: %v, want ErrQueueFull", err)
	}
	if err := m.Send(2, &wire.Hello{From: 1}); err != nil {
		t.Fatalf("control send refused while only the data lane is full: %v", err)
	}
	q := m.Queues()
	if q.DropsControl != 0 || q.DropsData != 1 {
		t.Fatalf("drops = control %d, data %d; want 0, 1", q.DropsControl, q.DropsData)
	}
	if !q.Saturated || q.ControlDepth != 1 || q.DataDepth != 2 || q.Cap != 4 {
		t.Fatalf("queues = %+v; want saturated with 1 control and 2 data frames of 4", q)
	}
	// Control drains before the two earlier-queued data frames.
	msg, ok := s.out.pop()
	if !ok || msg.Type() != wire.TypeHello {
		t.Fatalf("first pop = %v, want the hello", msg)
	}
	for i := 0; i < 2; i++ {
		msg, ok = s.out.pop()
		if !ok || msg.Type() != wire.TypePiece {
			t.Fatalf("pop %d = %v, want a piece", i, msg)
		}
	}
	if _, ok := s.out.pop(); ok {
		t.Fatal("pop from drained lanes returned a frame")
	}
	if q := m.Queues(); q.Saturated {
		t.Fatal("drained lanes still reported saturated")
	}
}

// TestSendNeverBlocks: with nothing draining a peer's lanes, a send past
// the cap returns at once, drops exactly that frame and counts it; a
// second peer's lanes are untouched.
func TestSendNeverBlocks(t *testing.T) {
	cfg := fastCfg(1, nil)
	cfg.QueueLen = 8
	m := NewManager(cfg)
	parked(t, m, 2, &stubConn{})
	parked(t, m, 3, &stubConn{})
	for i := 0; i < cfg.QueueLen; i++ {
		if err := m.Send(2, &wire.Hello{From: 1}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- m.Send(2, &wire.Hello{From: 1}) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("send to a full lane: %v, want ErrQueueFull", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a full lane")
	}
	if err := m.Send(3, &wire.Hello{From: 1}); err != nil {
		t.Fatalf("peer 3 refused a frame because peer 2's lane is full: %v", err)
	}
	if q := m.Queues(); q.DropsControl != 1 || q.DropsData != 0 || q.ControlDepth != cfg.QueueLen+1 {
		t.Fatalf("queues = %+v; want one control drop and %d queued", q, cfg.QueueLen+1)
	}
}

// stallListener accepts conns whose Recv, once hold is set, waits for
// open first: a receiver that stops reading without closing.
type stallListener struct {
	transport.Listener
	hold atomic.Bool
	open chan struct{}
}

func (l *stallListener) Accept(ctx context.Context) (transport.Conn, error) {
	c, err := l.Listener.Accept(ctx)
	if err != nil {
		return nil, err
	}
	return stallConn{c, l}, nil
}

type stallConn struct {
	transport.Conn
	l *stallListener
}

func (c stallConn) Recv(ctx context.Context) (wire.Msg, error) {
	if c.l.hold.Load() {
		select {
		case <-c.l.open:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return c.Conn.Recv(ctx)
}

// arrivals records the order frames were dispatched in.
type arrivals struct {
	mu  sync.Mutex
	got []wire.Msg
}

func (a *arrivals) Handle(_ trace.NodeID, m wire.Msg) {
	a.mu.Lock()
	a.got = append(a.got, m)
	a.mu.Unlock()
}
func (a *arrivals) Gone(trace.NodeID) {}

func (a *arrivals) frames() []wire.Msg {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]wire.Msg(nil), a.got...)
}

// TestControlOvertakesQueuedDataOverTCP: the session's lanes are the only
// queue between Send and a TCP socket, so a hello queued behind a
// hundred MiB of piece frames to a peer that has stopped reading goes out
// as soon as the piece on the wire is done — ahead of all but the few
// the kernel's socket buffers already hold.
func TestControlOvertakesQueuedDataOverTCP(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const pieces = 100
	ctx, cancel := context.WithCancel(context.Background())
	cfg := func(self trace.NodeID, h Handler) Config {
		c := fastCfg(self, h)
		c.HelloInterval, c.LivenessWindow = time.Hour, time.Hour // no beacon, no expiry
		return c
	}
	tcp := &transport.TCP{}
	inner, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &stallListener{Listener: inner, open: make(chan struct{})}
	got := &arrivals{}
	b := NewManager(cfg(2, got))
	cfgA := cfg(1, nil)
	cfgA.Transport, cfgA.Addrs = tcp, []string{lis.Addr()}
	a := NewManager(cfgA)
	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	defer wg.Wait()
	defer a.Close()
	defer b.Close()
	defer lis.Close()
	defer cancel()
	spawn(func() { b.Serve(ctx, lis) })
	spawn(func() { beat(ctx, a) })
	waitFor(t, func() bool { return len(a.Peers()) == 1 && len(b.Peers()) == 1 }, "the handshake")

	lis.hold.Store(true)
	piece := &wire.Piece{URI: metadata.URIFor(0), Total: pieces, Data: make([]byte, 1<<20)}
	for i := 0; i < pieces; i++ {
		piece := *piece
		piece.Index = i
		if err := a.Send(2, &piece); err != nil {
			t.Fatalf("piece %d: %v", i, err)
		}
	}
	// Let the writer run until the stalled link takes no more.
	queued := -1
	for q := a.Queues().DataDepth; q != queued; q = a.Queues().DataDepth {
		queued = q
		time.Sleep(50 * time.Millisecond)
	}
	if err := a.Send(2, &wire.Hello{From: 1, Queries: []string{"marker"}}); err != nil {
		t.Fatal(err)
	}
	close(lis.open)
	waitFor(t, func() bool { return len(got.frames()) == pieces+2 }, "every frame") // + the handshake hello

	ahead := 0
	for _, m := range got.frames() {
		if h, ok := m.(*wire.Hello); ok && len(h.Queries) == 1 {
			break
		}
		if m.Type() == wire.TypePiece {
			ahead++
		}
	}
	t.Logf("the hello arrived behind %d of %d pieces; %d had left the lanes when it was queued", ahead, pieces, pieces-queued)
	if ahead >= pieces/2 {
		t.Fatalf("the hello arrived behind %d of %d pieces queued before it; control must overtake queued data", ahead, pieces)
	}
}

// orderConn records the frames a writer hands it.
type orderConn struct {
	stubConn
	mu  sync.Mutex
	got []wire.Msg
}

func (c *orderConn) Send(ctx context.Context, m wire.Msg) error {
	c.mu.Lock()
	c.got = append(c.got, m)
	c.mu.Unlock()
	return nil
}

func (c *orderConn) frames() []wire.Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.Msg(nil), c.got...)
}

// TestLanesFIFOPerPeer: frames interleaved across two peers and both
// classes reach each peer's conn control-first, and in send order within
// each class — one peer's traffic never reorders another's.
func TestLanesFIFOPerPeer(t *testing.T) {
	const n = 40
	m := NewManager(fastCfg(1, nil))
	conns := map[trace.NodeID]*orderConn{2: {}, 3: {}}
	sessions := map[trace.NodeID]*session{}
	for id, c := range conns {
		sessions[id] = parked(t, m, id, c)
	}
	for i := 0; i < n; i++ {
		for id := range conns {
			// Round and Index carry the send order, offset per peer.
			seq := i + 1000*int(id)
			if err := m.Send(id, tinyPiece(seq)); err != nil {
				t.Fatal(err)
			}
			if err := m.Send(id, &wire.Grant{From: 1, To: id, Round: uint64(seq)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			m.writeLoop(ctx, s)
		}(s)
	}
	waitFor(t, func() bool { return m.Stats().PiecesSent == 2*n }, "both writers to drain")
	cancel()
	wg.Wait()
	for id, c := range conns {
		got := c.frames()
		if len(got) != 2*n {
			t.Fatalf("peer %d received %d frames, want %d", id, len(got), 2*n)
		}
		for i, msg := range got {
			want := i%n + 1000*int(id)
			switch v := msg.(type) {
			case *wire.Grant:
				if i >= n || int(v.Round) != want {
					t.Fatalf("peer %d frame %d: grant round %d; want control first, in order (%d)", id, i, v.Round, want)
				}
			case *wire.Piece:
				if i < n || v.Index != want {
					t.Fatalf("peer %d frame %d: piece %d; want data after control, in order (%d)", id, i, v.Index, want)
				}
			default:
				t.Fatalf("peer %d frame %d: unexpected %v", id, i, msg.Type())
			}
		}
	}
}

// TestSessionWritersExit: however sessions end — the peers hang up,
// liveness expires them, or the manager closes — their writers and
// receive pumps are gone once they have, while the manager itself keeps
// running; and what was still queued to them is counted as dropped.
// Wedged peers never read, so each writer is parked inside Conn.Send when
// its end comes; idle peers read everything, so each writer is waiting
// for work.
func TestSessionWritersExit(t *testing.T) {
	const peers = 4 // 8 session goroutines: well past NoLeaks' slack
	ends := map[string]func(t *testing.T, a *Manager, clk *testutil.Clock, conns []transport.Conn){
		"unregister": func(t *testing.T, a *Manager, _ *testutil.Clock, conns []transport.Conn) {
			for _, c := range conns {
				c.Close()
			}
			waitFor(t, func() bool { return a.Stats().Drops == peers }, "the hang-ups to be noticed")
		},
		"expiry": func(t *testing.T, a *Manager, clk *testutil.Clock, conns []transport.Conn) {
			clk.Advance(a.cfg.LivenessWindow + 1) // Run's next round finds them all silent too long
			waitFor(t, func() bool { return a.Stats().Expiries == peers }, "the silent peers to expire")
		},
		"close": func(t *testing.T, a *Manager, _ *testutil.Clock, conns []transport.Conn) {
			a.Close()
		},
	}
	for name, end := range ends {
		t.Run(name+"/wedged", func(t *testing.T) { testWritersExit(t, peers, true, end) })
		t.Run(name+"/idle", func(t *testing.T) { testWritersExit(t, peers, false, end) })
	}
}

func testWritersExit(t *testing.T, peers int, wedged bool, end func(*testing.T, *Manager, *testutil.Clock, []transport.Conn)) {
	const (
		burst   = 100 // pieces per wedged peer; its loopback conn buffers linkCap frames
		linkCap = 64
	)
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	net := transport.NewLoopback()
	defer net.Close()
	clk := testutil.NewClock()
	cfg := fastCfg(1, nil)
	cfg.Now = clk.Now
	a := NewManager(cfg)
	lis, err := net.Listen("A")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	wg.Add(2)
	go func() { defer wg.Done(); a.Serve(ctx, lis) }()
	go func() { defer wg.Done(); beat(ctx, a) }()
	sessionsGone := testutil.NoLeaks(t) // Serve and Run stay; sessions must not

	var conns []transport.Conn
	var readers sync.WaitGroup
	for i := 0; i < peers; i++ {
		c, err := net.Dial(ctx, "A")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Send(ctx, &wire.Hello{From: trace.NodeID(2 + i)}); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if !wedged {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					if _, err := c.Recv(ctx); err != nil {
						return
					}
				}
			}()
		}
	}
	// Registered, and the handshake hello dispatched (it stamps liveness).
	waitFor(t, func() bool { return len(a.Peers()) == peers && int(a.Stats().HellosRecv) == peers }, "the sessions")
	if wedged {
		for _, id := range a.Peers() {
			for i := 0; i < burst; i++ {
				if err := a.Send(id, tinyPiece(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Every link holds linkCap unread frames (hellos included): each
		// writer is inside Conn.Send with the next one, which is counted
		// sent until that Send fails.
		waitFor(t, func() bool {
			st := a.Stats()
			return int(st.HellosSent+st.PiecesSent) == peers*(linkCap+1)
		}, "the writers to fill the links")
	}

	end(t, a, clk, conns)
	waitFor(t, func() bool { return len(a.Peers()) == 0 }, "the peers to leave the table")
	readers.Wait()
	sessionsGone()
	q := a.Queues()
	if q.DataDepth != 0 || q.ControlDepth != 0 || q.Cap != 0 {
		t.Fatalf("queues after the sessions ended: %+v", q)
	}
	// All but the frame each writer had in hand is either written or
	// counted; nothing is silently lost.
	if sent := int(a.Stats().PiecesSent); wedged && (q.DropsData == 0 || sent+int(q.DropsData) < peers*(burst-1)) {
		t.Fatalf("%d pieces written + %d dropped of %d queued", sent, q.DropsData, peers*burst)
	}
	// The frame each writer had in hand failed its Send: its count was
	// taken back, leaving exactly what the links took.
	if st := a.Stats(); wedged && int(st.HellosSent+st.PiecesSent) != peers*linkCap {
		t.Fatalf("%d frames counted sent, the links took %d", st.HellosSent+st.PiecesSent, peers*linkCap)
	}
}

// BenchmarkOutboxShed measures the drop path: offering a data frame to a
// peer's full data lane (the hot path under overload).
func BenchmarkOutboxShed(b *testing.B) {
	cfg := fastCfg(1, nil)
	cfg.QueueLen = 8
	m := NewManager(cfg)
	parked(b, m, 2, &stubConn{})
	piece := tinyPiece(0)
	for m.Send(2, piece) == nil {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(2, piece)
	}
}
