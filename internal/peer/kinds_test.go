package peer

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// kindCounter is a Handler that counts what reaches it, per frame type.
type kindCounter struct {
	mu sync.Mutex
	n  [wire.NumTypes]int
}

func (k *kindCounter) Handle(_ trace.NodeID, m wire.Msg) {
	k.mu.Lock()
	k.n[m.Type()]++
	k.mu.Unlock()
}

func (k *kindCounter) count(t wire.MsgType) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.n[t]
}

// everyKind is one valid frame of each kind in the wire table, from
// node 1.
func everyKind(t *testing.T) []wire.Msg {
	t.Helper()
	meta := testMeta(t)
	uri := meta.Record.URI
	want := wire.NewGroupWant(uri, meta.Record.NumPieces(), true)
	want.SetHave(0)
	sym := &wire.Symbol{From: 1, Round: 3, URI: uri, Piece: 1, Total: 2, Seed: 7, DataLen: 4, Index: 9, Payload: []byte("code")}
	sym.Seal()
	var key [wire.KeySize]byte
	val := wire.DHTValue{Keyword: "news", ExpiresUnixMilli: 1, Meta: *meta}
	msgs := []wire.Msg{
		&wire.Hello{From: 1, Queries: []string{"news"}, Have: []wire.GroupWant{*want}},
		meta,
		tinyPiece(0),
		&wire.GroupHello{From: 1, Members: []trace.NodeID{1, 2}, Round: 3, Wants: []wire.GroupWant{*want}},
		&wire.Grant{From: 1, To: 2, Round: 3, Piece: wire.NoPiece},
		&wire.PieceBcast{From: 1, Round: 3, URI: uri, Index: 0, Total: 2, Data: []byte("x")},
		sym,
		&wire.SymbolAck{From: 1, Round: 3, URI: uri, Total: 2, Have: []byte{1}},
		&wire.FindNode{From: 1, FromAddr: "n1", RPCID: 1, Target: key},
		&wire.FindValue{From: 1, FromAddr: "n1", RPCID: 2, Key: key},
		&wire.StoreValue{From: 1, FromAddr: "n1", RPCID: 3, Key: key, Value: val},
		&wire.NodesReply{From: 1, FromAddr: "n1", RPCID: 2, Key: key, Found: true, Values: []wire.DHTValue{val}},
		&wire.Busy{From: 1, Scope: wire.BusyDHT, RetryAfterMillis: 10},
	}
	have := map[wire.MsgType]bool{}
	for _, m := range msgs {
		have[m.Type()] = true
	}
	for tag := wire.MsgType(0); tag < wire.NumTypes; tag++ {
		if tag.Plane() != 0 && !have[tag] {
			t.Fatalf("everyKind has no %v frame", tag)
		}
	}
	return msgs
}

// planeCounter names the Stats counter pair a frame type is counted
// under: its own for the three base messages, its plane's otherwise.
func planeCounter(t wire.MsgType) string {
	switch t.Plane() {
	case wire.PlaneGroup:
		return "Group"
	case wire.PlaneDHT:
		return "DHT"
	case wire.PlaneBusy:
		return "Busy"
	}
	return map[wire.MsgType]string{
		wire.TypeHello: "Hellos", wire.TypeMetadata: "Metadata", wire.TypePiece: "Pieces",
	}[t]
}

// moved lists the Stats counters that differ between two snapshots.
func moved(before, after Stats) map[string]uint64 {
	out := map[string]uint64{}
	b, a := reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < b.NumField(); i++ {
		if d := a.Field(i).Uint() - b.Field(i).Uint(); d != 0 {
			out[b.Type().Field(i).Name] = d
		}
	}
	return out
}

// TestEveryKindReachesHandleOnce sends one frame of every kind across a
// loopback session: each reaches the receiver's Handle exactly once and
// moves exactly one counter on each side, the one its table row names.
func TestEveryKindReachesHandleOnce(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	kc := &kindCounter{}
	cfgA, cfgB := fastCfg(1, nil), fastCfg(2, kc)
	// No beacon after the handshake: every hello counted below is ours.
	cfgA.HelloInterval, cfgB.HelloInterval = time.Hour, time.Hour
	a, b := startPair(t, ctx, net, cfgA, cfgB)
	waitFor(t, func() bool { return kc.count(wire.TypeHello) == 1 }, "the handshake hello")

	msgs := everyKind(t)
	for _, m := range msgs {
		typ := m.Type()
		seen, sentBefore, recvBefore := kc.count(typ), a.Stats(), b.Stats()
		if err := a.Send(2, m); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		waitFor(t, func() bool { return kc.count(typ) == seen+1 }, typ.String()+" to reach Handle")
		// The writer counts a frame once the conn has taken it, which the
		// receiver's dispatch can beat by a moment.
		waitFor(t, func() bool { return len(moved(sentBefore, a.Stats())) > 0 }, typ.String()+" to be counted as sent")
		name := planeCounter(typ)
		if got := moved(sentBefore, a.Stats()); len(got) != 1 || got[name+"Sent"] != 1 {
			t.Fatalf("%v: sender counters moved %v, want only %sSent by 1", typ, got, name)
		}
		if got := moved(recvBefore, b.Stats()); len(got) != 1 || got[name+"Recv"] != 1 {
			t.Fatalf("%v: receiver counters moved %v, want only %sRecv by 1", typ, got, name)
		}
	}
	for _, m := range msgs {
		want := 1
		if m.Type() == wire.TypeHello {
			want = 2 // the handshake's and ours
		}
		if got := kc.count(m.Type()); got != want {
			t.Fatalf("%v reached Handle %d times, want %d", m.Type(), got, want)
		}
	}
}

// TestBusyPastDryBucket: with the sender's admission bucket empty every
// kind is shed — and reported to OnShed under its own type — except
// Busy, which is delivered and counted all the same.
func TestBusyPastDryBucket(t *testing.T) {
	kc := &kindCounter{}
	var shed []wire.MsgType
	cfg := fastCfg(1, kc)
	cfg.InboundRate = 0.001 // one token, refilled every 17 minutes
	cfg.OnShed = func(_ trace.NodeID, typ wire.MsgType) { shed = append(shed, typ) }
	m := NewManager(cfg)
	attach(t, m, 2, &stubConn{})
	m.deliver(2, &wire.Hello{From: 2}) // spends the token

	msgs := everyKind(t)
	for _, msg := range msgs {
		m.deliver(2, msg)
	}
	for i, msg := range msgs {
		typ := msg.Type()
		if typ == wire.TypeBusy {
			if kc.count(typ) != 1 {
				t.Fatal("Busy was not delivered past the dry bucket")
			}
			continue
		}
		if shed[i] != typ {
			t.Fatalf("shed #%d reported as %v, want %v", i, shed[i], typ)
		}
		if n := kc.count(typ); typ != wire.TypeHello && n != 0 || n > 1 {
			t.Fatalf("%v reached Handle %d times on a dry bucket", typ, n)
		}
	}
	if st := m.Stats(); st.BusyRecv != 1 || st.InboundShed != uint64(len(msgs)-1) || st.HellosRecv != 1 {
		t.Fatalf("stats %+v, want 1 busy received, %d frames shed, 1 hello admitted", st, len(msgs)-1)
	}
}
