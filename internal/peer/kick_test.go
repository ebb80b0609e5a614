package peer

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/wire"
)

// stampConn is a stubConn that records when each frame was sent.
type stampConn struct {
	stubConn
	mu    sync.Mutex
	sends []time.Time
}

func (c *stampConn) Send(ctx context.Context, m wire.Msg) error {
	c.mu.Lock()
	c.sends = append(c.sends, time.Now())
	c.mu.Unlock()
	return nil
}

func (c *stampConn) stamps() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Time(nil), c.sends...)
}

// kickManager builds a manager on clk over n stub peers whose ticker is
// far enough out that only kicks can beacon within a test.
func kickManager(t *testing.T, clk *testutil.Clock, n int) *Manager {
	t.Helper()
	cfg := fastCfg(1, nil)
	cfg.HelloInterval = time.Hour
	cfg.LivenessWindow = 24 * time.Hour
	cfg.Now = clk.Now
	m := NewManager(cfg)
	for i := 0; i < n; i++ {
		attach(t, m, trace.NodeID(2+i), &stubConn{})
	}
	return m
}

// run starts m.Run and returns the function that stops it and waits for
// it to return, so the counters read afterwards are final.
func run(m *Manager) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		beat(ctx, m)
	}()
	return func() {
		cancel()
		<-done
	}
}

// written waits until the session writers have handed the conns n
// hellos and the lanes are empty, so the counters read next are final.
func written(t *testing.T, m *Manager, n uint64) {
	t.Helper()
	waitFor(t, func() bool {
		q := m.Queues()
		return m.Stats().HellosSent >= n && q.ControlDepth == 0
	}, "the queued hellos to be written")
}

// TestKickCoalesces: any number of kicks ahead of Run's next round cost
// one beacon, and a kick outside Run's lifetime neither blocks nor
// panics.
func TestKickCoalesces(t *testing.T) {
	const peers = 3
	m := kickManager(t, testutil.NewClock(), peers)
	for i := 0; i < 100; i++ {
		m.Kick() // Run is not started yet
	}
	stop := run(m)
	waitFor(t, func() bool { return m.Stats().HellosKicked == 1 }, "the kicked beacon")
	stop()
	written(t, m, peers)
	if st := m.Stats(); st.HellosKicked != 1 || st.HellosSent != peers {
		t.Fatalf("100 kicks before Run: %d kicked rounds, %d hellos; want 1 round of %d",
			st.HellosKicked, st.HellosSent, peers)
	}
	m.Kick() // Run is gone
	m.Kick()
}

// TestKickRestartsInterval: a kicked round restarts the cadence instead
// of adding a beacon to it. One kick three quarters into an interval:
// the next tick is a whole interval after it, not a quarter. The sleep
// only positions the kick — oversleeping moves it into a later interval
// and changes nothing below.
func TestKickRestartsInterval(t *testing.T) {
	const interval = 200 * time.Millisecond
	cfg := fastCfg(1, nil)
	cfg.HelloInterval = interval
	cfg.LivenessWindow = time.Hour
	m := NewManager(cfg)
	conn := &stampConn{}
	attach(t, m, 2, conn)
	began := time.Now()
	defer run(m)()
	time.Sleep(3 * interval / 4)
	m.Kick()
	waitFor(t, func() bool { return m.Stats().HellosKicked == 1 }, "the kicked beacon")
	kicked := len(conn.stamps()) - 1 // any ticks that beat the kick come before it
	waitFor(t, func() bool { return len(conn.stamps()) > kicked+1 }, "the tick after the kick")
	sends := conn.stamps()
	if gap := sends[kicked+1].Sub(sends[kicked]); gap < 3*interval/4 {
		t.Fatalf("tick came %v after the kicked beacon; the %v interval did not restart", gap, interval)
	}
	// Hello counts stay flat: k intervals with one kick hold at most k + 1
	// beacons.
	n := len(conn.stamps())
	if k := int(time.Since(began) / interval); n > k+1 {
		t.Fatalf("%d beacons within %d intervals of one kick, want <= %d", n, k, k+1)
	}
}

// TestKickAlsoExpires: a kicked round is a whole round — it expires
// silent peers before it beacons, so kicks that keep restarting the
// interval cannot keep a dead peer in the table.
func TestKickAlsoExpires(t *testing.T) {
	clk := testutil.NewClock()
	m := kickManager(t, clk, 2) // peers 2 and 3
	clk.Advance(m.cfg.LivenessWindow + 1)
	m.deliver(2, &wire.Hello{From: 2}) // 2 is heard again; 3 has been silent an instant too long
	stop := run(m)
	m.Kick()
	waitFor(t, func() bool { return m.Stats().HellosKicked == 1 }, "the kicked beacon")
	stop()
	written(t, m, 1)
	st := m.Stats()
	if st.Expiries != 1 || st.HellosSent != 1 {
		t.Fatalf("kicked round: %d expiries, %d hellos; want the silent peer expired and one hello to the live one",
			st.Expiries, st.HellosSent)
	}
	if got := m.Peers(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Peers() = %v after the kicked round, want [2]", got)
	}
}

// recConn is a stubConn that keeps the frames it was handed.
type recConn struct {
	stubConn
	mu   sync.Mutex
	sent []wire.Msg
}

func (c *recConn) Send(ctx context.Context, m wire.Msg) error {
	c.mu.Lock()
	c.sent = append(c.sent, m)
	c.mu.Unlock()
	return nil
}

func (c *recConn) frames() []wire.Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.Msg(nil), c.sent...)
}

// TestAckIsDirected: an ack is one hello to one peer — the beacon's
// heard list and downloads without its queries — that nobody else hears,
// and that is not a kicked round and moves no ticker.
func TestAckIsDirected(t *testing.T) {
	cfg := fastCfg(1, nil)
	cfg.HelloInterval = time.Hour
	cfg.LivenessWindow = 24 * time.Hour
	cfg.Hello = func(h *wire.Hello) {
		h.Queries, h.Downloading = []string{"f0"}, []metadata.URI{metadata.URIFor(0)}
		h.Have = []wire.GroupWant{*wire.NewGroupWant(metadata.URIFor(0), 8, true)}
	}
	m := NewManager(cfg)
	to, other := &recConn{}, &recConn{}
	attach(t, m, 2, to)
	attach(t, m, 3, other)
	defer run(m)()

	m.Ack(2)
	written(t, m, 1)
	if st := m.Stats(); st.HellosAcked != 1 || st.HellosKicked != 0 || st.HellosSent != 1 {
		t.Fatalf("after one ack: %d acked, %d kicked rounds, %d hellos sent; want 1/0/1", st.HellosAcked, st.HellosKicked, st.HellosSent)
	}
	if n := len(other.frames()); n != 0 {
		t.Fatalf("the ack to node 2 put %d frames on node 3's link", n)
	}
	got := to.frames()
	if len(got) != 1 {
		t.Fatalf("node 2 received %d frames, want the one ack", len(got))
	}
	h, ok := got[0].(*wire.Hello)
	if !ok || h.From != 1 || len(h.Heard) != 2 || len(h.Downloading) != 1 || len(h.Have) != 1 {
		t.Fatalf("the ack is %+v, want node 1's hello with its heard list, download and bitmap", got[0])
	}
	if len(h.Queries) != 0 {
		t.Fatalf("the ack carries queries %v: every ack would be answered with records again", h.Queries)
	}

	m.Ack(9) // no session: refused, not counted
	if st := m.Stats(); st.HellosAcked != 1 {
		t.Fatalf("HellosAcked = %d after an ack to a stranger, want still 1", st.HellosAcked)
	}
	if q := m.Queues(); q.ControlDepth != 0 {
		t.Fatalf("%d frames queued by an ack that must not go out", q.ControlDepth)
	}
}
