package peer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/trace"
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
			if _, err := m.register(trace.NodeID(id), &stubConn{}, false); err != nil {
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
	if _, err := m.register(trace.NodeID(pickOne(&admitted)), &stubConn{}, true); err != nil {
		t.Fatalf("second session to a known peer rejected at capacity: %v", err)
	}
}

func pickOne(m *sync.Map) int {
	out := 0
	m.Range(func(k, _ any) bool { out = k.(int); return false })
	return out
}

// dhtRecorder collects DHT dispatches alongside the base handler.
type dhtRecorder struct {
	recorder
	mu2 sync.Mutex
	dht []wire.MsgType
}

func (r *dhtRecorder) HandleDHT(from trace.NodeID, msg wire.Msg) {
	r.mu2.Lock()
	defer r.mu2.Unlock()
	r.dht = append(r.dht, msg.Type())
}

// TestDHTDispatch: DHT frames reach the DHTHandler extension and count
// in the dht counters; a handler without the extension drops them
// without touching the group counters.
func TestDHTDispatch(t *testing.T) {
	rec := &dhtRecorder{}
	m := NewManager(fastCfg(1, rec))
	attach(t, m, 2, &stubConn{})
	var key [wire.KeySize]byte
	m.deliver(2, &wire.FindNode{From: 2, FromAddr: "n2", RPCID: 1, Target: key})
	m.deliver(2, &wire.FindValue{From: 2, FromAddr: "n2", RPCID: 2, Key: key})
	m.deliver(2, &wire.NodesReply{From: 2, FromAddr: "n2", RPCID: 1, Key: key})
	rec.mu2.Lock()
	got := len(rec.dht)
	rec.mu2.Unlock()
	if got != 3 {
		t.Fatalf("DHT handler saw %d messages, want 3", got)
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

	// A DHT-oblivious handler drops DHT frames without crashing.
	plain := NewManager(fastCfg(1, newRecorder()))
	if _, err := plain.register(2, &stubConn{}, false); err != nil {
		t.Fatal(err)
	}
	plain.deliver(2, &wire.FindNode{From: 2, FromAddr: "n2", RPCID: 9, Target: key})
	if st = plain.Stats(); st.DHTRecv != 1 {
		t.Fatalf("DHT frame not counted by oblivious handler: %+v", st)
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
			cfg := fastCfg(0, nil)
			cfg.Shards = shards
			m := NewManager(cfg)
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
