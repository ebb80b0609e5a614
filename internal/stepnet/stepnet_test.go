package stepnet

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// read drains c on a goroutine of the live stack, as a node's session
// does, into got[key].
func read(n *Net, c interface {
	Recv(context.Context) (wire.Msg, error)
}, key string, got map[string][]wire.Msg) {
	n.Go(func() {
		for {
			m, err := c.Recv(context.Background())
			if err != nil {
				return
			}
			n.mu.Lock() // got is read between steps, written during them
			got[key] = append(got[key], m)
			n.mu.Unlock()
		}
	})
}

// serve accepts every conn at addr on tr and reads it into got.
func serve(t *testing.T, n *Net, tr transport.Transport, addr string, got map[string][]wire.Msg) {
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	n.Go(func() {
		for {
			c, err := l.Accept(context.Background())
			if err != nil {
				return
			}
			read(n, c, c.RemoteAddr(), got)
		}
	})
}

func hello(from trace.NodeID, seq int) wire.Msg {
	return &wire.Hello{From: from, Queries: []string{string(rune('a' + seq))}}
}

// drain steps until nothing is queued.
func drain(t *testing.T, n *Net) {
	t.Helper()
	for len(n.ready) > 0 {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConnDirectionsAreFIFO: whatever order the seeded scheduler picks
// conns in, each direction delivers what was sent on it in order, once.
func TestConnDirectionsAreFIFO(t *testing.T) {
	n := New(7, false)
	got := map[string][]wire.Msg{}
	serve(t, n, n.As(9), "hub", got)
	var ends []*End
	for id := trace.NodeID(1); id <= 3; id++ {
		e, err := n.Dial(id, "hub", nil)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, e)
	}
	for seq := range 5 {
		for i, e := range ends {
			e.Send(context.Background(), hello(trace.NodeID(i+1), seq))
		}
	}
	drain(t, n)
	for i, e := range ends {
		msgs := got[e.LocalAddr()]
		if len(msgs) != 5 {
			t.Fatalf("%s delivered %d frames, want 5", e.LocalAddr(), len(msgs))
		}
		for seq, m := range msgs {
			if h := m.(*wire.Hello); h.From != trace.NodeID(i+1) || h.Queries[0] != string(rune('a'+seq)) {
				t.Fatalf("%s frame %d is %+v: out of order", e.LocalAddr(), seq, h)
			}
		}
	}
}

// TestHandshakeIsNeverDropped: at a drop rate of one, a conn's first
// frame — its handshake hello — still arrives, and nothing after it.
func TestHandshakeIsNeverDropped(t *testing.T) {
	n := New(1, false)
	n.Faults.Drop = 1
	got := map[string][]wire.Msg{}
	serve(t, n, n.As(2), "b", got)
	e, err := n.Dial(1, "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := range 4 {
		e.Send(context.Background(), hello(1, seq))
	}
	drain(t, n)
	if msgs := got[e.LocalAddr()]; len(msgs) != 1 || n.Dropped[wire.TypeHello] != 3 {
		t.Fatalf("delivered %v, dropped %d; want the handshake alone, three dropped", msgs, n.Dropped[wire.TypeHello])
	}
}

// TestLaneFansOutWithSeededLoss: a lane member's transmission reaches
// every other member, each losing it by the lane's rate on its own roll;
// the same seed loses the same transmissions.
func TestLaneFansOutWithSeededLoss(t *testing.T) {
	run := func(loss float64) [3]int {
		n := New(3, false)
		var members []*End
		for id := trace.NodeID(1); id <= 3; id++ {
			members = append(members, n.Join("radio", loss, id))
		}
		got := map[string][]wire.Msg{}
		for _, m := range members[1:] {
			read(n, m, m.LocalAddr(), got)
		}
		if err := n.Quiet(); err != nil {
			t.Fatal(err)
		}
		for seq := range 200 {
			members[0].Send(context.Background(), hello(1, seq%20))
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return [3]int{len(got["radio:1"]), len(got["radio:2"]), len(got["radio:3"])}
	}
	if all := run(0); all != [3]int{0, 200, 200} {
		t.Fatalf("lossless lane delivered %v, want the sender none and every other member 200", all)
	}
	a, b := run(0.5), run(0.5)
	if a != b {
		t.Fatalf("the same seed lost differently: %v, then %v", a, b)
	}
	for _, heard := range a[1:] {
		if heard < 70 || heard > 130 {
			t.Fatalf("at 50%% loss the members heard %v of 200", a)
		}
	}
}

// TestCutNodeIsOutOfRange: a node cut by its fault transport dials
// nobody, and what it sends or is sent is lost — the per-node partition
// the swarm applies at beat boundaries — and the swarm still goes quiet.
// A conn dialed into it is closed as it is accepted, so the dialer's
// handshake ends by the time the swarm is quiet instead of waiting out
// its runtime deadline for a hello the partition would drop.
func TestCutNodeIsOutOfRange(t *testing.T) {
	n := New(5, false)
	got := map[string][]wire.Msg{}
	cut := fault.Wrap(n.As(2), fault.Config{})
	serve(t, n, cut, "b", got)
	e, err := n.Dial(1, "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Send(context.Background(), hello(1, 0))
	drain(t, n)
	cut.Cut(true)
	e.Send(context.Background(), hello(1, 1))
	drain(t, n)
	if _, err := cut.Dial(context.Background(), "b"); !errors.Is(err, fault.ErrPartitioned) {
		t.Fatalf("a cut node dialed: %v", err)
	}
	redial, err := n.Dial(1, "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	redial.Send(context.Background(), hello(1, 9))
	ended := make(chan error, 1)
	n.Go(func() {
		_, err := redial.Recv(context.Background())
		ended <- err
	})
	drain(t, n)
	select {
	case err := <-ended:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("the redial's wait ended with %v, want the conn's end", err)
		}
	default:
		t.Fatal("the swarm went quiet with a redial still waiting on a cut node")
	}
	if st := cut.Stats(); st.DialsBlocked != 2 {
		t.Fatalf("%d dials blocked, want the cut node's own and the redial", st.DialsBlocked)
	}
	cut.Cut(false)
	e.Send(context.Background(), hello(1, 2))
	drain(t, n)
	msgs := got[e.LocalAddr()]
	if len(msgs) != 2 || msgs[1].(*wire.Hello).Queries[0] != "c" {
		t.Fatalf("delivered %v; want the frames before and after the cut only", msgs)
	}
}
