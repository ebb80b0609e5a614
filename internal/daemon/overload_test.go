package daemon

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/stepnet"
	"repro/internal/trace"
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

// TestSeedLanesOverflowAtScale: a seeder streams one file to a hundred
// leechers at once over real loopback conns whose every frame takes a
// millisecond, so each session's writer blocks in Send while the serving
// burst piles into a four-frame data lane. The stepped network never
// blocks a writer and so never overflows a lane; this wall-clock swarm
// is the one that does, at scale: data frames are dropped by the
// thousand, no control frame is, and every leecher still completes, on
// the resend deadline.
func TestSeedLanesOverflowAtScale(t *testing.T) {
	const leechers, pieces = 100, 32
	ctx, cancel := context.WithCancel(context.Background())
	net := transport.NewLoopback()
	done := make(chan metadata.URI, leechers)
	cfg := func(id int, tr transport.Transport) Config {
		c := fastCfg(trace.NodeID(id), tr)
		c.HelloInterval, c.LivenessWindow = 50*time.Millisecond, 2*time.Second
		c.FileSize, c.PieceSize, c.PiecesPerHello = pieces*1024, 1024, 16
		c.OutboxLen = 4
		c.ResendAfter = 200 * time.Millisecond
		c.OnComplete = func(uri metadata.URI) { done <- uri }
		return c
	}
	sc := cfg(1, fault.Wrap(net, fault.Config{Seed: 1, DelayMin: time.Millisecond, DelayMax: time.Millisecond + 1}))
	sc.ListenAddr, sc.InternetAccess, sc.PublishFiles = "seed", true, 1
	seed, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	ran := []chan error{start(ctx, seed)}
	waitFor(t, waitLimit, func() bool { return seed.Addr() != "" }, "the seed's listener")
	for id := 2; id < leechers+2; id++ {
		lc := cfg(id, net)
		lc.PeerAddrs, lc.Queries = []string{"seed"}, []string{"f0"}
		d, err := New(lc)
		if err != nil {
			t.Fatal(err)
		}
		ran = append(ran, start(ctx, d))
	}
	defer func() {
		cancel()
		for _, r := range ran {
			<-r
		}
		net.Close()
	}()
	for i := range leechers {
		select {
		case <-done:
		case <-time.After(waitLimit):
			t.Fatalf("%d of %d leechers completed", i, leechers)
		}
	}
	st := seed.Stats()
	t.Logf("seed: %d data frames dropped, %d pieces resent", st.OutboxDropsData, st.PiecesResent)
	if st.OutboxDropsData < leechers || st.OutboxDropsControl != 0 {
		t.Fatalf("outbox drops: data %d, control %d; want at least one data drop per leecher and no control drop",
			st.OutboxDropsData, st.OutboxDropsControl)
	}
}

// TestFloodVictimStaysLive is the overload acceptance test, on the
// stepped swarm: one scripted connection floods the victim's listener at
// five times its per-peer rate while a legitimate daemon downloads a file
// from it. The victim must shed the flood (answering with Busy, one per
// lane per window), go degraded while shedding, serve the legitimate
// peer to completion throughout, and report healthy again once the flood
// stops. The flood is one table input: hellos driving the catalog and the
// piece lane, or FindNode frames driving the DHT — which has no limiter
// of its own, so the per-peer dispatch limit is all that stands in front
// of it.
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
		t.Run(tc.name, func(t *testing.T) { floodVictim(t, tc.name, tc.dht, tc.frame, tc.lane) })
	}
}

func floodVictim(t *testing.T, name string, withDHT bool, frame wire.Msg, lane wire.BusyScope) {
	s := newStepSwarm(t, "TestFloodVictimStaysLive/"+name, 1, stepnet.Faults{})
	vc := stepCfg(1)
	vc.ListenAddr, vc.InternetAccess, vc.PublishFiles = "victim", true, 1
	vc.PeerRate, vc.EnableDHT = stepFloodRate, withDHT
	stepFile(&vc)
	victim := s.start(vc).d
	busyWindow := victim.busyWindow()
	lc := stepCfg(2)
	lc.PeerAddrs, lc.Queries, lc.EnableDHT = []string{"victim"}, []string{"f0"}, withDHT
	legit := s.start(lc).d
	s.until(1000, "legit hello exchange", func() bool { return len(legit.Manager().Peers()) == 1 })

	// While the flood runs: the victim sheds, degrades, and answers Busy
	// on the flooded lane — and still serves the legitimate peer: its
	// download completes and, with the DHT on, its lookup is answered.
	flood := newFlooder(s, "victim", frame)
	s.until(10000, "admission shedding", func() bool { return victim.Stats().Transport.InboundShed > 0 })
	s.until(10000, "degraded under flood", func() bool { return victim.Health().Status == "degraded" })
	s.until(10000, "flooder received Busy on the flooded lane", func() bool { return flood.seen(lane) > 0 })
	s.until(10000, "legit download under flood", func() bool { return legit.Completed(metadata.URIFor(0)) })
	if withDHT {
		var res *dht.LookupResult
		var err error
		s.await(10000, "the legit lookup", func() { res, err = legit.DHT().Lookup(s.ctx, dht.NodeKey(2), false) })
		if err != nil || len(res.Closest) == 0 || res.Closest[0].ID != 1 {
			t.Fatalf("legit lookup under flood: %+v, %v; want the victim to answer", res, err)
		}
	}
	flooded := s.net.Now().Sub(flood.since)
	s.act("the flood stops", flood.stop)

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
		if n, most := flood.seen(sc), int(flooded/busyWindow)+1; n > most {
			t.Errorf("%d Busy frames on the %v lane in %v, want at most one per %v (%d)", n, sc, flooded, busyWindow, most)
		}
	}
	if withDHT {
		// The flood's frames never reached the engine unadmitted, and the
		// Busy they earned still routes a lookup around its sender: fed to
		// the legitimate node as if it had been the one shed, the victim is
		// skipped for the window — not queried, not declared dead.
		var shed *wire.Busy
		for _, b := range flood.busies {
			if b.Scope == wire.BusyDHT {
				shed = b
			}
		}
		before := legit.DHT().Stats()
		s.act("the legit node hears the victim's Busy", func() { legit.onBusy(1, shed) })
		var err error
		s.await(10000, "the lookup around a busy contact", func() { _, err = legit.DHT().Lookup(s.ctx, dht.NodeKey(2), false) })
		if err != nil {
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
	s.until(10000, "health recovery after flood", func() bool { return victim.Health().Status == "ok" })
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

// TestShedSymbolYieldsNoBusy: a shed symbol or symbol ack is dropped
// silently, like a response — nothing re-drives either on a Busy — while
// the shed still counts toward degraded health; a shed hello on the same
// link is answered with the one Busy that goes out.
func TestShedSymbolYieldsNoBusy(t *testing.T) {
	d := bench(t, func(c *Config) { c.PeerRate = 1 })
	p := wedge(t, d, 2)
	d.onShed(2, wire.TypeSymbol)
	d.onShed(2, wire.TypeSymbolAck)
	if q := d.mgr.Queues(); q.ControlDepth+q.DataDepth != 0 {
		t.Fatalf("shed symbols queued %+v", q)
	}
	if h := d.Health(); h.Status != "degraded" {
		t.Fatalf("health %q after two sheds, want degraded", h.Status)
	}
	d.onShed(2, wire.TypeHello)
	got := p.flush()
	if len(got) != 1 {
		t.Fatalf("the peer was sent %d frames, want the hello's one Busy", len(got))
	}
	if b, ok := got[0].(*wire.Busy); !ok || b.Scope != wire.BusyPiece {
		t.Fatalf("the peer was sent %+v, want Busy{piece}", got[0])
	}
	if st := d.Stats(); st.BusyReplies != 1 {
		t.Fatalf("busy_replies = %d, want 1", st.BusyReplies)
	}
}
