package daemon

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestHealthzSaturationRecovers: a peer's saturated data lane degrades
// /healthz; draining it walks the verdict back to ok — the reason must
// read live state, not latch.
func TestHealthzSaturationRecovers(t *testing.T) {
	const lane = 4
	d := bench(t, func(c *Config) { c.OutboxLen = lane })
	p := wedge(t, d, 2)
	piece := &wire.Piece{URI: metadata.URIFor(0), Index: 0, Total: 1, Data: []byte("x")}
	for i := 0; i < lane; i++ {
		d.mgr.Send(2, piece)
	}
	h := d.Health()
	if h.Status != "degraded" {
		t.Fatalf("health = %q with a saturated data lane, want degraded", h.Status)
	}
	found := false
	for _, r := range h.Reasons {
		if strings.Contains(r, "saturated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons = %v, want a saturation reason", h.Reasons)
	}
	if h.OutboxDataDepth != lane || h.OutboxControlDepth != 0 {
		t.Fatalf("depths = control %d, data %d", h.OutboxControlDepth, h.OutboxDataDepth)
	}
	if got := p.flush(); len(got) != lane {
		t.Fatalf("the peer received %d frames, want the %d queued", len(got), lane)
	}
	if h := d.Health(); h.Status != "ok" {
		t.Fatalf("health = %q %v after draining, want ok", h.Status, h.Reasons)
	}
}

// floodRate is the per-peer admission rate the flood tests configure on
// their victim (legit traffic at ~100/s fits; the flood does not).
const floodRate = 200

// floodBurst sizes one tick of a test flood: 5× the admission rate over
// the time since the previous tick. A bare 1 ms ticker offers 1000/s
// only while the scheduler honours it; on a busy box ticks coalesce and
// the offered rate sinks under the admission rate, so nothing is shed.
// Sized from elapsed time, the flood is a flood at any granularity.
func floodBurst(last *time.Time) int {
	now := time.Now()
	n := int(5 * floodRate * now.Sub(*last).Seconds())
	*last = now
	return max(n, 1)
}

// TestFloodVictimStaysLive is the overload acceptance test: one raw
// connection floods the victim's listener at ~10× its per-peer rate
// while a legitimate daemon downloads a file from it. The victim must
// shed the flood (answering with Busy, one per lane per window), go
// degraded while shedding, serve the legitimate peer to completion
// throughout, and report healthy again once the flood stops. The flood
// is one table input: hellos driving the catalog and the piece lane, or
// FindNode frames driving the DHT — which has no limiter of its own, so
// the per-peer dispatch limit is all that stands in front of it.
func TestFloodVictimStaysLive(t *testing.T) {
	var key [wire.KeySize]byte
	for _, tc := range []struct {
		name  string
		dht   bool
		frame wire.Msg
		lane  wire.BusyScope // the lane the shed frames are answered on
	}{
		{"hello", false, &wire.Hello{
			From:        99,
			Queries:     []string{"f0"},
			Downloading: []metadata.URI{metadata.URIFor(0)},
		}, wire.BusyPiece},
		{"find-node", true, &wire.FindNode{From: 99, RPCID: 1, Target: key}, wire.BusyDHT},
	} {
		t.Run(tc.name, func(t *testing.T) { floodVictim(t, tc.dht, tc.frame, tc.lane) })
	}
}

func floodVictim(t *testing.T, withDHT bool, frame wire.Msg, lane wire.BusyScope) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()

	const busyWindow = 50 * time.Millisecond
	victimCfg := fastCfg(1, net)
	victimCfg.ListenAddr = "victim"
	victimCfg.InternetAccess = true
	victimCfg.PublishFiles = 1
	victimCfg.PeerRate = floodRate
	victimCfg.BusyRetryAfter = busyWindow
	victimCfg.EnableDHT = withDHT
	victim, err := New(victimCfg)
	if err != nil {
		t.Fatal(err)
	}

	legitCfg := fastCfg(2, net)
	legitCfg.PeerAddrs = []string{"victim"}
	legitCfg.Queries = []string{"f0"}
	legitCfg.EnableDHT = withDHT
	legit, err := New(legitCfg)
	if err != nil {
		t.Fatal(err)
	}

	start(ctx, victim)
	start(ctx, legit)
	waitFor(t, func() bool { return len(legit.Manager().Peers()) == 1 }, "legit hello exchange")

	// The flooder speaks just enough protocol to register and stay live —
	// a hello handshake and beacon — and sends the flood frame in per-tick
	// bursts, ≥ 1000/s against a 200/s admission rate. A reader drains the
	// victim's replies and keeps the Busy frames among them.
	conn, err := net.Dial(ctx, "victim")
	if err != nil {
		t.Fatal(err)
	}
	var (
		busyMu sync.Mutex
		busies []*wire.Busy
	)
	busySeen := func(sc wire.BusyScope) (n int) {
		busyMu.Lock()
		defer busyMu.Unlock()
		for _, b := range busies {
			if b.Scope == sc {
				n++
			}
		}
		return n
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			m, err := conn.Recv(ctx)
			if err != nil {
				return
			}
			if b, ok := m.(*wire.Busy); ok {
				busyMu.Lock()
				busies = append(busies, b)
				busyMu.Unlock()
			}
		}
	}()
	floodCtx, stopFlood := context.WithCancel(ctx)
	defer stopFlood()
	floodStart := time.Now()
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		var beaconed time.Time
		for {
			// A beacon per hello interval — the first is the handshake —
			// keeps the flooder in the victim's table whatever it floods.
			if time.Since(beaconed) >= victimCfg.HelloInterval {
				if err := conn.Send(floodCtx, &wire.Hello{From: 99}); err != nil {
					return
				}
				beaconed = time.Now()
			}
			select {
			case <-floodCtx.Done():
				return
			case <-tick.C:
			}
			for n := floodBurst(&last); n > 0; n-- {
				if err := conn.Send(floodCtx, frame); err != nil {
					return
				}
			}
		}
	}()

	// While the flood runs: the victim sheds, degrades, and answers
	// Busy on the flooded lane — and still serves the legitimate peer:
	// its download completes and, with the DHT on, its lookup is answered.
	waitFor(t, func() bool { return victim.Stats().Transport.InboundShed > 0 }, "admission shedding")
	waitFor(t, func() bool { return victim.Health().Status == "degraded" }, "degraded under flood")
	waitFor(t, func() bool { return busySeen(lane) > 0 }, "flooder received Busy on the flooded lane")
	waitFor(t, func() bool { return legit.Completed(metadata.URIFor(0)) }, "legit download under flood")
	if withDHT {
		res, err := legit.DHT().Lookup(ctx, dht.NodeKey(2), false)
		if err != nil || len(res.Closest) == 0 || res.Closest[0].ID != 1 {
			t.Fatalf("legit lookup under flood: %+v, %v; want the victim to answer", res, err)
		}
	}

	stopFlood()
	<-floodDone
	conn.Close()
	<-readerDone
	flooded := time.Since(floodStart)

	st := victim.Stats()
	if st.BusyReplies == 0 {
		t.Fatalf("victim sent no Busy replies: %+v", st)
	}
	if st.Transport.BusySent == 0 {
		t.Fatal("transport layer counted no Busy sends")
	}
	// Paced: sends to one peer on one lane are a window apart, so however
	// long the flood ran it bought at most one Busy per window per lane.
	for sc := wire.BusyQuery; sc <= wire.BusySymbol; sc++ {
		if n, most := busySeen(sc), int(flooded/busyWindow)+1; n > most {
			t.Errorf("%d Busy frames on the %v lane in %v, want at most one per %v (%d)", n, sc, flooded, busyWindow, most)
		}
	}
	if withDHT {
		// The flood's frames never reached the engine unadmitted, and the
		// Busy they earned still routes a lookup around its sender: fed to
		// the legitimate node as if it had been the one shed, the victim is
		// skipped for the window — not queried, not declared dead.
		busyMu.Lock()
		var shed *wire.Busy
		for _, b := range busies {
			if b.Scope == wire.BusyDHT {
				shed = b
			}
		}
		busyMu.Unlock()
		before := legit.DHT().Stats()
		legit.onBusy(1, shed)
		if _, err := legit.DHT().Lookup(ctx, dht.NodeKey(2), false); err != nil {
			t.Fatalf("lookup around a busy contact: %v", err)
		}
		after := legit.DHT().Stats()
		if after.BusySkips == before.BusySkips || after.RPCsSent != before.RPCsSent {
			t.Errorf("lookup inside the Busy window: %d skips, %d RPCs; want the victim skipped and no RPC sent",
				after.BusySkips-before.BusySkips, after.RPCsSent-before.RPCsSent)
		}
		if cs := legit.DHT().Contacts(); len(cs) == 0 {
			t.Error("the busy contact was dropped from the routing table; busy is not dead")
		}
	}
	// Recovery: once the flood stops, the shed window ages out and the
	// verdict walks back to ok.
	waitFor(t, func() bool { return victim.Health().Status == "ok" }, "health recovery after flood")
}

// TestSubUnitPeerRate: a rate below one per second is still a rate, in
// both places it used not to be. The catalog admits the peer's first
// query and sheds the second (answering Busy on the query lane) where it
// truncated the rate to an integer and 0.4/s became "unlimited"; and a
// DHT request that passed the per-peer limit is served, where the
// engine's own bucket (burst 2×rate < 1 token) refused every one forever.
func TestSubUnitPeerRate(t *testing.T) {
	d := bench(t, func(c *Config) {
		c.InternetAccess = true
		c.PublishFiles = 1
		c.PeerRate = 0.4
		c.EnableDHT = true
	})
	if got := d.answerQuery(protoTime(d.clock()), 2, "f0", nil); len(got) != 1 {
		t.Fatalf("first query answered with %d records, want the file's", len(got))
	}
	if got := d.answerQuery(protoTime(d.clock()), 2, "f0", nil); got != nil {
		t.Fatalf("second query at once answered with %d records at 0.4/s", len(got))
	}
	if st := d.Stats(); st.QueriesShed != 1 || st.BusyReplies != 1 {
		t.Fatalf("queries_shed = %d, busy_replies = %d; want the second query shed and answered Busy", st.QueriesShed, st.BusyReplies)
	}
	if reply, ok := d.dht.HandleMessage(&wire.FindNode{From: 2, RPCID: 1}).(*wire.NodesReply); !ok || reply.RPCID != 1 {
		t.Fatalf("an admitted FindNode was not served at 0.4/s (reply %+v)", reply)
	}
}
