package peer

import (
	"context"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestGroupDispatch sends each group message type across a live pair:
// the handler receives them all and both sides count the traffic.
func TestGroupDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	rb := newRecorder()
	a, b := startPair(t, ctx, net, fastCfg(1, nil), fastCfg(2, rb))

	msgs := []wire.Msg{
		&wire.GroupHello{From: 1, Members: []trace.NodeID{1, 2}, Round: 1},
		&wire.Grant{From: 1, To: 2, Round: 1, Piece: wire.NoPiece},
		&wire.PieceBcast{From: 1, Round: 1, URI: "dtn://files/1", Index: 0, Total: 1, Data: []byte("x")},
	}
	for _, m := range msgs {
		if err := a.Send(2, m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(rb.otherTypes()) == len(msgs) }, "group dispatch")
	for i, typ := range rb.otherTypes() {
		if typ != msgs[i].Type() {
			t.Fatalf("dispatched %v at %d, want %v", typ, i, msgs[i].Type())
		}
	}
	// The writer counts a frame once the conn has taken it, which B's
	// dispatch of the last one can beat by a moment.
	waitFor(t, func() bool { return a.Stats().GroupSent == uint64(len(msgs)) }, "A to count its group sends")
	if got := b.Stats().GroupRecv; got != uint64(len(msgs)) {
		t.Fatalf("GroupRecv = %d, want %d", got, len(msgs))
	}
}

// TestGroupMessagesWithoutGroupHandler: group traffic is counted on the
// group plane whatever the handler does with it (the name dates from
// the optional GroupHandler interface; there is one Handler now).
func TestGroupMessagesWithoutGroupHandler(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	rb := newRecorder()
	a, b := startPair(t, ctx, net, fastCfg(1, nil), fastCfg(2, rb))

	if err := a.Send(2, &wire.GroupHello{From: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return b.Stats().GroupRecv == 1 }, "group message counted")
}

// TestConfigurableHelloInterval pins the satellite guarantee: the
// beacon rhythm follows Config.HelloInterval rather than the protocol's
// hardcoded 1 s, so fast-clock broadcast tests never sleep real
// seconds. Two managers beaconing every 5 ms must exchange far more
// hellos in half a second than a 1 s beacon ever could.
func TestConfigurableHelloInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()

	cfgA, cfgB := fastCfg(1, nil), fastCfg(2, nil)
	cfgA.HelloInterval = 5 * time.Millisecond
	cfgB.HelloInterval = 5 * time.Millisecond
	a, b := startPair(t, ctx, net, cfgA, cfgB)
	_ = b

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if a.Stats().HellosRecv >= 10 {
			return // ≥10 beacons: impossible before 10 s at the 1 s default
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("only %d hellos received in 10s at a 5ms interval", a.Stats().HellosRecv)
}
