package peer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestMaxPeersExactUnderConcurrency: the cap on distinct peers stays
// exact even when handshakes race across different shards.
func TestMaxPeersExactUnderConcurrency(t *testing.T) {
	const cap = 50
	const attempts = 200
	cfg := fastCfg(0, nil)
	cfg.MaxPeers = cap
	m := NewManager(cfg)
	var wg sync.WaitGroup
	var admitted, rejected sync.Map
	for i := 1; i <= attempts; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if _, err := m.register(trace.NodeID(id), &stubConn{}, nil); err != nil {
				rejected.Store(id, true)
			} else {
				admitted.Store(id, true)
			}
		}(i)
	}
	wg.Wait()
	nAdmitted := 0
	admitted.Range(func(any, any) bool { nAdmitted++; return true })
	if nAdmitted != cap {
		t.Fatalf("admitted %d distinct peers, want exactly %d", nAdmitted, cap)
	}
	if got := len(m.Peers()); got != cap {
		t.Fatalf("Peers() = %d, want %d", got, cap)
	}
	// Extra sessions to known peers always land, even at capacity.
	if _, err := m.register(trace.NodeID(pickOne(&admitted)), &stubConn{}, nil); err != nil {
		t.Fatalf("second session to a known peer rejected at capacity: %v", err)
	}
}

// checkTable asserts the table's structural invariant with every shard
// held, so no step is half-seen: each entry has at least one session,
// carries a bucket exactly when admission control is on, and peerCount
// is the number of entries.
func checkTable(t *testing.T, m *Manager, after string) {
	t.Helper()
	for _, sh := range m.shards {
		sh.mu.Lock()
	}
	entries := 0
	for _, sh := range m.shards {
		for id, e := range sh.peers {
			entries++
			if len(e.sessions) == 0 {
				t.Errorf("after %s: node %d has an entry and no session", after, id)
			}
			if (e.limiter != nil) != (m.cfg.InboundRate > 0) {
				t.Errorf("after %s: node %d bucket=%v with InboundRate %v", after, id, e.limiter != nil, m.cfg.InboundRate)
			}
		}
	}
	if got := m.peerCount.Load(); got != int64(entries) {
		t.Errorf("after %s: peerCount = %d with %d entries in the table", after, got, entries)
	}
	for _, sh := range m.shards {
		sh.mu.Unlock()
	}
}

// TestDeliverWithoutEntryMintsNothing: a frame that lost the race with
// its peer's removal (expire closed the session while Recv already held
// the message) must not create per-peer state nothing would ever reap,
// and is dropped — not dispatched, not shed — with admission control on
// or off.
func TestDeliverWithoutEntryMintsNothing(t *testing.T) {
	for _, rate := range []float64{100, 0} {
		rec := newRecorder()
		cfg := fastCfg(1, rec)
		cfg.InboundRate = rate
		m := NewManager(cfg)
		for _, msg := range []wire.Msg{&wire.Hello{From: 99}, tinyPiece(0)} {
			m.deliver(99, msg)
		}
		m.expire(time.Now())
		checkTable(t, m, "deliver for an unknown peer, then expire")
		if n := m.peerCount.Load(); n != 0 {
			t.Fatalf("rate %v: %d table entries minted by deliver for a peer with no session", rate, n)
		}
		rec.mu.Lock()
		hellos := len(rec.hellos)
		rec.mu.Unlock()
		if st := m.Stats(); hellos != 0 || st.HellosRecv != 0 || st.PiecesRecv != 0 || st.InboundShed != 0 {
			t.Fatalf("rate %v: frames from a peer with no session: %d hellos handled, stats %+v; want them dropped uncounted", rate, hellos, st)
		}
	}
}

// idleConn is a stateless transport.Conn: safe to Close from any number
// of goroutines, which stubConn's flag is not.
type idleConn struct{}

func (idleConn) Send(context.Context, wire.Msg) error { return nil }
func (idleConn) Recv(context.Context) (wire.Msg, error) {
	return nil, transport.ErrClosed
}
func (idleConn) Close() error       { return nil }
func (idleConn) LocalAddr() string  { return "idle-local" }
func (idleConn) RemoteAddr() string { return "idle-remote" }

// TestPeerTableInvariantUnderChurn races every way an entry is made or
// removed — register (against a MaxPeers cap, so the roll-back runs),
// unregister, expire, Close — with deliver, over a handful of IDs so the
// operations collide, and checks the table after every step.
func TestPeerTableInvariantUnderChurn(t *testing.T) {
	const (
		workers = 6
		ids     = 8
		steps   = 400
	)
	cfg := fastCfg(0, nil)
	cfg.InboundRate = 1000
	cfg.MaxPeers = ids - 2
	m := newManager(cfg, 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 1)
			var mine []*session
			for i := 0; i < steps; i++ {
				id := trace.NodeID(1 + r.Intn(ids))
				step := "deliver"
				switch op := r.Intn(20); {
				case op < 7:
					step = "register"
					if s, err := m.register(id, idleConn{}, nil); err == nil {
						mine = append(mine, s)
					}
				case op < 12 && len(mine) > 0:
					step = "unregister"
					k := r.Intn(len(mine))
					m.unregister(mine[k])
					mine = append(mine[:k], mine[k+1:]...)
				case op == 12:
					step = "expire"
					m.expire(time.Now().Add(2 * m.cfg.LivenessWindow)) // everyone is silent
				case op == 13:
					step = "close"
					m.Close()
				case op < 17:
					m.deliver(id, &wire.Hello{From: id})
				default:
					m.deliver(id, tinyPiece(i))
				}
				checkTable(t, m, step)
			}
			for _, s := range mine {
				m.unregister(s) // sessions expire or Close already ended are a no-op
				checkTable(t, m, "final unregister")
			}
		}(w)
	}
	wg.Wait()
	if n := m.peerCount.Load(); n != 0 {
		t.Fatalf("peerCount = %d after every session was unregistered, want 0", n)
	}
}

func pickOne(m *sync.Map) int {
	out := 0
	m.Range(func(k, _ any) bool { out = k.(int); return false })
	return out
}

// TestDHTDispatch: DHT frames reach the handler and count in the dht
// counters, never the group ones.
func TestDHTDispatch(t *testing.T) {
	rec := newRecorder()
	m := NewManager(fastCfg(1, rec))
	attach(t, m, 2, &stubConn{})
	var key [wire.KeySize]byte
	m.deliver(2, &wire.FindNode{From: 2, FromAddr: "n2", RPCID: 1, Target: key})
	m.deliver(2, &wire.FindValue{From: 2, FromAddr: "n2", RPCID: 2, Key: key})
	m.deliver(2, &wire.NodesReply{From: 2, FromAddr: "n2", RPCID: 1, Key: key})
	if got := rec.otherTypes(); len(got) != 3 {
		t.Fatalf("handler saw %v, want the 3 DHT frames", got)
	}
	st := m.Stats()
	if st.DHTRecv != 3 || st.GroupRecv != 0 {
		t.Fatalf("stats DHTRecv=%d GroupRecv=%d, want 3 and 0", st.DHTRecv, st.GroupRecv)
	}

	// Sends of DHT frames count as DHT traffic, not group traffic.
	if err := m.Send(2, &wire.FindNode{From: 1, FromAddr: "n1", RPCID: 3, Target: key}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m.Stats().DHTSent == 1 }, "the DHT frame to be written")
	if st = m.Stats(); st.GroupSent != 0 {
		t.Fatalf("stats GroupSent=%d after a DHT send, want 0", st.GroupSent)
	}

	// A manager with no handler at all still counts them.
	plain := NewManager(fastCfg(1, nil))
	if _, err := plain.register(2, &stubConn{}, nil); err != nil {
		t.Fatal(err)
	}
	plain.deliver(2, &wire.FindNode{From: 2, FromAddr: "n2", RPCID: 9, Target: key})
	if st = plain.Stats(); st.DHTRecv != 1 {
		t.Fatalf("DHT frame not counted without a handler: %+v", st)
	}
}

// BenchmarkPeerTableContention hammers the table's hot pair — Send and
// hello delivery — from GOMAXPROCS goroutines over many peers, at one
// shard (the old single-lock layout) and the sharded default. The
// ns/op gap under parallelism is the point of the sharding satellite.
func BenchmarkPeerTableContention(b *testing.B) {
	const peers = 256
	for _, shards := range []int{1, DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m := newManager(fastCfg(0, nil), shards)
			for i := 1; i <= peers; i++ {
				attach(b, m, trace.NodeID(i), &stubConn{})
			}
			raw := wire.NewRaw(m.helloMsg())
			b.SetParallelism(max(1, 8/runtime.GOMAXPROCS(0)))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := trace.NodeID(1)
				for pb.Next() {
					id = id%peers + 1
					if err := m.Send(id, raw); err != nil && !errors.Is(err, ErrQueueFull) {
						b.Fatal(err)
					}
					m.deliver(id, &wire.Hello{From: id})
				}
			})
		})
	}
}
