package daemon

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The node has one beat (peer.Manager.Run, Daemon.beat): every test below
// runs a whole daemon on a hand-driven clock and fires its tick by hand,
// so nothing periodic happens unless the test says so. waitFor only hands
// over to the daemon's goroutines; no test waits for time to pass.

// airtap is a broadcast medium with nobody else on it: what the daemon
// sends goes to onSend, on the sending goroutine, and nowhere else.
type airtap struct {
	onSend func(wire.Msg)
}

func (a *airtap) Send(_ context.Context, m wire.Msg) error {
	if a.onSend != nil {
		a.onSend(m)
	}
	return nil
}

func (a *airtap) Recv(ctx context.Context) (wire.Msg, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (a *airtap) Close() error { return nil }
func (a *airtap) Addr() string { return "airtap" }

// beatRig is a running daemon — group plane on an airtap, DHT on, no
// queries — whose clock and tick the test holds. The beat is a minute,
// the liveness window fifteen, DHT maintenance due two minutes after
// start and every ten from then on.
type beatRig struct {
	t    *testing.T
	d    *Daemon
	clk  *testutil.Clock
	net  *transport.Loopback
	air  *airtap
	tick chan time.Time
	stop func() // ends Run and waits for it; safe to call twice
	// links are the rig's peers' ends; close hangs them up after stop.
	links []func()
}

// close stops the daemon and hangs up its peers, before a deferred
// testutil.NoLeaks looks.
func (r *beatRig) close() {
	r.stop()
	for _, hangUp := range r.links {
		hangUp()
	}
}

func newBeatRig(t *testing.T, mutate func(*Config)) *beatRig {
	t.Helper()
	r := &beatRig{
		t: t, clk: testutil.NewClock(), net: transport.NewLoopback(),
		air: &airtap{}, tick: make(chan time.Time),
	}
	cfg := fastCfg(1, r.net)
	cfg.ListenAddr = "rig"
	cfg.HelloInterval = time.Minute
	cfg.LivenessWindow = 15 * time.Minute
	cfg.EnableBcast, cfg.Broadcast = true, r.air
	cfg.EnableDHT = true
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := NewDriven(cfg, r.clk.Now, r.tick)
	if err != nil {
		t.Fatal(err)
	}
	r.d = d
	ctx, cancel := context.WithCancel(context.Background())
	ran := start(ctx, d)
	var once sync.Once
	r.stop = func() {
		once.Do(func() {
			cancel()
			<-ran
			r.net.Close()
		})
	}
	waitFor(t, waitLimit, func() bool { return d.Addr() != "" }, "the listener")
	return r
}

// fire delivers one tick; it returns once the beat loop has taken it,
// which it can only do between two beats.
func (r *beatRig) fire() { r.tick <- r.clk.Now() }

// kick brings one beacon round forward and waits until it is counted.
func (r *beatRig) kick() {
	r.t.Helper()
	want := r.d.mgr.Stats().HellosKicked + 1
	r.d.mgr.Kick()
	waitFor(r.t, waitLimit, func() bool { return r.d.mgr.Stats().HellosKicked == want }, "the kicked round")
}

// peer handshakes node id with the daemon and returns its end of the link.
// Its handshake hello hears nobody, so it adds no edge and kicks nothing.
func (r *beatRig) peer(id trace.NodeID) transport.Conn {
	r.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	conn, err := r.net.Dial(ctx, "rig")
	if err != nil {
		r.t.Fatal(err)
	}
	r.links = append(r.links, func() { conn.Close() })
	if err := conn.Send(ctx, &wire.Hello{From: id}); err != nil {
		r.t.Fatal(err)
	}
	if _, err := conn.Recv(ctx); err != nil { // the daemon's handshake hello
		r.t.Fatal(err)
	}
	waitFor(r.t, waitLimit, func() bool { return slices.Contains(r.d.mgr.Peers(), id) }, "the peer's session")
	return conn
}

// hello has the peer behind conn say hello, heard listing who it hears,
// and waits until the daemon has taken it in: it says it twice, and the
// second is dispatched only once the first has been handled.
func (r *beatRig) hello(conn transport.Conn, id trace.NodeID, heard ...trace.NodeID) {
	r.t.Helper()
	want := r.d.mgr.Stats().HellosRecv + 2
	for i := 0; i < 2; i++ {
		if err := conn.Send(context.Background(), &wire.Hello{From: id, Heard: heard}); err != nil {
			r.t.Fatal(err)
		}
	}
	waitFor(r.t, waitLimit, func() bool { return r.d.mgr.Stats().HellosRecv == want }, "the peer's hello")
}

// recv reads n frames off a peer's link and returns their types.
func (r *beatRig) recv(conn transport.Conn, n int) (got []wire.MsgType) {
	r.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for len(got) < n {
		m, err := conn.Recv(ctx)
		if err != nil {
			r.t.Fatalf("after frames %v: %v", got, err)
		}
		got = append(got, m.Type())
	}
	return got
}

// answerDHT has the peer behind conn read its link until it dies,
// answering every FindNode with an empty reply, so the daemon's DHT
// rounds finish at once.
func (r *beatRig) answerDHT(conn transport.Conn, id trace.NodeID) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := conn.Recv(context.Background())
			if err != nil {
				return
			}
			if f, ok := m.(*wire.FindNode); ok {
				conn.Send(context.Background(), &wire.NodesReply{From: id, RPCID: f.RPCID, Key: f.Target})
			}
		}
	}()
	r.links = append(r.links, func() {
		conn.Close()
		<-done
	})
}

// beatCounts is one of each thing a beat does.
type beatCounts struct {
	hellos, expiries, groupHellos, dhtRounds uint64
}

// counts reads them. A DHT round of a node with no query and no catalog
// is exactly one lookup — the routing table's refresh.
func (r *beatRig) counts() beatCounts {
	ps := r.d.mgr.Stats()
	return beatCounts{
		hellos: ps.HellosSent, expiries: ps.Expiries,
		groupHellos: r.d.bcast.Stats().GroupHellosSent, dhtRounds: r.d.dht.Stats().Lookups,
	}
}

// sweptAt is the reading of the last sweep that found a live peer.
func (r *beatRig) sweptAt() time.Time {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	return r.d.lastPeerAt
}

// TestNothingPeriodicWithoutATick: nodes 2 and 3 say they hear each
// other, and the clique they make with the node forms on those hellos:
// it is announced with one GroupHello, and each hello that added an edge
// kicks one beacon round. Then, with the tick never fired, an hour goes
// by on the clock and the node does nothing periodic — no frame, no
// expiry, no GroupHello, no DHT round, although every one of them is long
// due — and the same hellos heard again add no edge and change nothing.
// One tick then does exactly one of each, in the beat's order: the peer
// round (expire, beacon), the sweep, the group beat, the DHT round. The
// download that gained nothing all that hour gets no hello of its own:
// the beacon already advertises it.
func TestNothingPeriodicWithoutATick(t *testing.T) {
	defer testutil.NoLeaks(t)()
	r := newBeatRig(t, func(c *Config) { c.Queries = []string{"f0"} })
	defer r.close()
	d := r.d
	c2, c3, c4 := r.peer(2), r.peer(3), r.peer(4)
	rec := d.syntheticFile(0)
	d.onMetadata(2, &wire.Metadata{Popularity: 0.5, Record: *rec}) // selected: a download nobody serves
	// The selection kicked: three handshakes, then a round of three.
	waitFor(t, waitLimit, func() bool {
		st := d.mgr.Stats()
		return st.HellosKicked == 1 && st.HellosSent == 6
	}, "the selection's kicked round")
	// Nodes 2 and 3 hear each other: node 2's hello adds the edges 2-1
	// and 2-3, which make the clique, and node 3's the edge 3-1. Each
	// kicks a round of three, taken before the next hello is said.
	for i, h := range []struct {
		conn  transport.Conn
		id    trace.NodeID
		heard []trace.NodeID
	}{{c2, 2, []trace.NodeID{1, 3}}, {c3, 3, []trace.NodeID{1, 2}}} {
		r.hello(h.conn, h.id, h.heard...)
		waitFor(t, waitLimit, func() bool {
			st := d.mgr.Stats()
			return st.HellosKicked == uint64(2+i) && st.HellosSent == uint64(9+3*i)
		}, "the new edge's kicked round")
	}
	for _, conn := range []transport.Conn{c2, c3, c4} {
		r.recv(conn, 3) // the three kicked rounds' beacons
	}
	if st := d.bcast.Stats(); st.GroupHellosAnnounced != 1 || st.GroupHellosSent != 1 || len(st.Group) != 3 {
		t.Fatalf("group %v, %d GroupHellos sent and %d announced on a change; want [1 2 3], 1 and 1",
			st.Group, st.GroupHellosSent, st.GroupHellosAnnounced)
	}
	d.mu.Lock()
	d.peerLocked(4).sent = map[metadata.URI]*sentFile{rec.URI: {}}
	d.mu.Unlock()
	base := r.counts()

	r.clk.Advance(time.Hour)
	// Nodes 2 and 3 are heard again, and still hear each other: no edge
	// is new. Node 4 has been silent four windows.
	r.hello(c2, 2, 1, 3)
	r.hello(c3, 3, 1, 2)
	if got := r.counts(); got != base {
		t.Fatalf("an hour on the clock and no tick: counters went %+v -> %+v", base, got)
	}
	if q := d.mgr.Queues(); q.ControlDepth+q.DataDepth != 0 {
		t.Fatalf("an hour on the clock and no tick: %+v queued", q)
	}

	// What the node has done by the time the group beat speaks.
	var atGroupHello beatCounts
	var peer4Swept bool
	r.air.onSend = func(wire.Msg) {
		atGroupHello = beatCounts{expiries: d.mgr.Stats().Expiries, dhtRounds: d.dht.Stats().Lookups}
		d.mu.Lock()
		peer4Swept = d.peers[4] == nil
		d.mu.Unlock()
	}
	r.fire()
	waitFor(t, waitLimit, func() bool { return d.mgr.Stats().DHTSent == 2 }, "the DHT round's requests")
	// Each live peer hears the beacon and the DHT request, in that order;
	// the expired one hears nothing.
	for id, conn := range map[trace.NodeID]transport.Conn{2: c2, 3: c3} {
		want := []wire.MsgType{wire.TypeHello, wire.TypeFindNode}
		if got := r.recv(conn, 2); !slices.Equal(got, want) {
			t.Errorf("node %d heard %v, want %v", id, got, want)
		}
	}
	if m, err := c4.Recv(context.Background()); err == nil {
		t.Errorf("the expired node 4 heard a %v", m.Type())
	}
	want := beatCounts{hellos: base.hellos + 2, expiries: 1, groupHellos: base.groupHellos + 1, dhtRounds: 1}
	if got := r.counts(); got != want {
		t.Fatalf("after one tick: %+v, want %+v", got, want)
	}
	if want := (beatCounts{expiries: 1}); atGroupHello != want {
		t.Errorf("when the GroupHello went out: %+v, want %+v (the round and the sweep done, the DHT round not begun)", atGroupHello, want)
	}
	if !peer4Swept {
		t.Error("the sweep still found node 4 live: it ran before the round that expired it")
	}
	if got := r.sweptAt(); !got.Equal(r.clk.Now()) {
		t.Errorf("the sweep judged %v, the beat's reading is %v", got, r.clk.Now())
	}
}

// TestKicksNeitherAddNorStarveTheBeat: a kick between beats is one beacon
// round and nothing else; and a stream of kicks that never lets the ticker
// fire still gets the sweep, the group beat and DHT maintenance run within
// an interval of being due, because every wake-up judges them on the clock.
// The clique's own announcement, made when it formed, is no group beat.
func TestKicksNeitherAddNorStarveTheBeat(t *testing.T) {
	defer testutil.NoLeaks(t)()
	r := newBeatRig(t, func(c *Config) { c.LivenessWindow = 24 * time.Hour })
	defer r.close()
	d := r.d
	beat := d.cfg.HelloInterval
	for _, id := range []trace.NodeID{2, 3} {
		r.answerDHT(r.peer(id), id)
	}
	d.bcast.Observe(context.Background(), 2, []trace.NodeID{3}) // 1, 2 and 3 are a clique
	began := r.clk.Now()
	base := r.counts()

	// Half a beat in, two kicks: the second is taken only once the first
	// wake-up is over, so what the first did is final.
	r.clk.Advance(beat / 2)
	r.kick()
	r.kick()
	want := base
	want.hellos += 4
	waitFor(t, waitLimit, func() bool { return r.counts().hellos == want.hellos }, "the kicked beacons")
	if got := r.counts(); got != want {
		t.Fatalf("two kicks between beats: %+v, want %+v (two beacon rounds, nothing else)", got, want)
	}
	if got := r.sweptAt(); !got.IsZero() {
		t.Fatalf("a kick between beats swept (at %v)", got)
	}

	// Twenty kicks three quarters of a beat apart: the ticker would never
	// fire. Every other one finds a beat or more gone since the rest of the
	// beat last ran, and runs it.
	for i := 0; i < 20; i++ {
		r.clk.Advance(3 * beat / 4)
		r.kick()
		r.kick() // the wake-up before it is over
		if gap := r.clk.Now().Sub(r.sweptAt()); gap >= 2*beat {
			t.Fatalf("kick %d: the last sweep is %v old, a whole beat overdue", i, gap)
		}
		if due := began.Add(2 * beat); !r.clk.Now().Before(due.Add(beat)) && r.counts().dhtRounds == 0 {
			t.Fatalf("kick %d: DHT maintenance was due at +%v, it is +%v and no round has begun", i, 2*beat, r.clk.Now().Sub(began))
		}
		waitFor(t, waitLimit, func() bool { return !d.dhtRound.Load() }, "the DHT round to finish")
	}
	r.stop()
	got := r.counts()
	announced := d.bcast.Stats().GroupHellosAnnounced
	// 15 min of kicks: the rest of the beat ran at every other one, and DHT
	// maintenance when first due and ten minutes later.
	if got.groupHellos-announced != 10 || announced != 1 || got.dhtRounds != 2 || got.expiries != 0 {
		t.Fatalf("after twenty kicks: %+v with %d announced on a change, want 10 group beats and 1 announcement, 2 DHT rounds, no expiry",
			got, announced)
	}
	if kicked := d.mgr.Stats().HellosKicked; kicked != 42 {
		t.Fatalf("HellosKicked = %d, want 42", kicked)
	}
}

// TestCutNodeNeitherSpeaksNorHears: out of range is a partition of the
// node's transport, nothing more. A node cut off with the DHT and the
// group plane on (its clique with nodes 2 and 3 fanned out over their
// sessions) still runs four beats, a kick, an ack and a Busy, and every
// frame they put on its links is dropped on the way out: its peers hear
// no hello, FindNode, GroupHello or Busy. What its peers say in that time
// is dropped on the way in, unhandled. Uncut, it is heard at its next
// beat — the beacon is the first frame its peers read — and hears again.
func TestCutNodeNeitherSpeaksNorHears(t *testing.T) {
	defer testutil.NoLeaks(t)()
	var ft *fault.Transport
	r := newBeatRig(t, func(c *Config) {
		ft = fault.Wrap(c.Transport, fault.Config{})
		c.Transport, c.Broadcast = ft, nil
	})
	defer r.close()
	d := r.d
	c2, c3 := r.peer(2), r.peer(3)
	d.bcast.Observe(context.Background(), 2, []trace.NodeID{3}) // 1, 2 and 3 are a clique
	waitFor(t, waitLimit, func() bool { return len(d.dht.Contacts()) == 2 }, "both contacts in the routing table")
	// The baseline follows the clique's announcement, one GroupHello to
	// each member, which either peer has read.
	waitFor(t, waitLimit, func() bool { return d.mgr.Stats().GroupSent == 2 }, "the clique's announcement")
	for id, conn := range map[trace.NodeID]transport.Conn{2: c2, 3: c3} {
		if got, want := r.recv(conn, 1), []wire.MsgType{wire.TypeGroupHello}; !slices.Equal(got, want) {
			t.Fatalf("node %d heard %v before the cut, want %v", id, got, want)
		}
	}
	handled := func() [4]uint64 {
		st := d.mgr.Stats()
		return [4]uint64{st.HellosRecv, st.GroupRecv, st.DHTRecv, st.BusyRecv}
	}
	base, heard, fs := d.mgr.Stats(), handled(), ft.Stats()

	ft.Cut(true)
	inbound := map[transport.Conn][]wire.Msg{
		c2: {&wire.Hello{From: 2}, &wire.FindNode{From: 2, RPCID: 1}, &wire.GroupHello{From: 2, Members: []trace.NodeID{1, 2, 3}}},
		c3: {&wire.Hello{From: 3}, &wire.Busy{From: 3, Scope: wire.BusyPiece, RetryAfterMillis: 1}},
	}
	for conn, msgs := range inbound {
		for _, m := range msgs {
			if err := conn.Send(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, waitLimit, func() bool { return ft.Stats().PartitionDropped == fs.PartitionDropped+5 }, "the readers to drop the inbound frames")

	r.kick()
	d.mgr.Ack(2)
	d.sendBusy(2, wire.BusyPiece)
	for i := 0; i < 4; i++ {
		r.fire() // taken only once the beat before it is over
		r.clk.Advance(d.cfg.HelloInterval)
	}
	// Two hellos a beacon round (four beats and the kick) plus the ack;
	// a GroupHello to each member a beat; the DHT round, due two minutes
	// in, asks both contacts; one Busy. Each is counted once its conn's
	// Send has returned.
	want := base
	want.HellosSent += 2*5 + 1
	want.GroupSent += 2 * 4
	want.DHTSent += 2
	want.BusySent++
	waitFor(t, waitLimit, func() bool {
		st := d.mgr.Stats()
		return st.HellosSent == want.HellosSent && st.GroupSent == want.GroupSent && st.DHTSent == want.DHTSent && st.BusySent == want.BusySent
	}, "the cut node's frames to reach its conns")
	sent := 2*5 + 1 + 2*4 + 2 + 1
	if got := ft.Stats(); got.Delivered != fs.Delivered || got.PartitionDropped != fs.PartitionDropped+5+uint64(sent) {
		t.Fatalf("fault stats %+v, want all %d frames sent and 5 received dropped since %+v", got, sent, fs)
	}
	if got := handled(); got != heard {
		t.Fatalf("frames handled (hello, group, dht, busy) went %v -> %v while cut", heard, got)
	}
	if got := d.bcast.Stats().GroupHellosRecv; got != 0 {
		t.Fatalf("%d GroupHellos handled while cut", got)
	}

	ft.Cut(false)
	r.fire()
	for id, conn := range map[trace.NodeID]transport.Conn{2: c2, 3: c3} {
		want := []wire.MsgType{wire.TypeHello, wire.TypeGroupHello}
		if got := r.recv(conn, 2); !slices.Equal(got, want) {
			t.Errorf("node %d heard %v once the cut healed, want %v: a frame from the cut crossed", id, got, want)
		}
	}
	r.hello(c2, 2)
}

// TestDHTRoundInFlightIsNotDoubled: while a DHT round is still waiting on
// the network the next one, though due, is not started; and Run does not
// return before the round in flight has.
func TestDHTRoundInFlightIsNotDoubled(t *testing.T) {
	defer testutil.NoLeaks(t)()
	r := newBeatRig(t, func(c *Config) { c.LivenessWindow = 24 * time.Hour })
	defer r.close()
	d := r.d
	r.peer(2) // a contact that never answers
	// The peer is in the table before its hello is handled; the routing
	// table learns it from the hello.
	waitFor(t, waitLimit, func() bool { return len(d.dht.Contacts()) == 1 }, "the contact in the routing table")

	r.clk.Advance(2 * d.cfg.HelloInterval)
	r.fire()
	waitFor(t, waitLimit, func() bool { return d.dht.Stats().RPCsSent == 1 }, "the DHT round's request")
	for i := 0; i < 3; i++ {
		r.clk.Advance(d.cfg.DHTRepublish)
		r.fire()
	}
	r.kick() // taken only once the beat before it is over, and no beat itself
	if got := r.counts().dhtRounds; got != 1 || !d.dhtRound.Load() {
		t.Fatalf("%d DHT rounds begun (in flight: %v), want the one still in flight", got, d.dhtRound.Load())
	}
	r.stop()
	if d.dhtRound.Load() {
		t.Fatal("Run returned with a DHT round still in flight")
	}
	if st := d.dht.Stats(); st.Lookups != 1 || st.RPCTimeouts != 1 {
		t.Fatalf("after shutdown: %d lookups, %d abandoned requests; want 1 and 1", st.Lookups, st.RPCTimeouts)
	}
}

// TestGoroutinesOfAnIdleDaemon: a daemon with every subsystem on — group
// plane, DHT, durable store — and no session runs four goroutines: Run
// itself, which is the beat, the accept loop, the committer and the group
// lane's pump. (Before the beat: eight — Run only waited, and the beacon,
// the sweep, the group beat and the DHT cadence each had a ticker loop.) A
// loop added later has to raise this number.
func TestGoroutinesOfAnIdleDaemon(t *testing.T) {
	r := newBeatRig(t, func(c *Config) { c.DataDir = t.TempDir() })
	defer r.close()
	const want = 4
	waitFor(t, waitLimit, func() bool { return daemonGoroutines() == want }, "the daemon's goroutines to start")
	r.clk.Advance(time.Hour)
	r.fire()
	r.fire() // the first beat is over, its DHT round begun
	waitFor(t, waitLimit, func() bool { return !r.d.dhtRound.Load() }, "the DHT round to finish")
	if got := daemonGoroutines(); got != want {
		t.Fatalf("an idle daemon runs %d goroutines, want %d", got, want)
	}
}

// TestADeadLinkCostsNoGoroutine: the same idle daemon with a configured
// link to an address nobody listens on still runs four goroutines — the
// link has one only while its dial is in flight — at boot and after beats
// that redial it.
func TestADeadLinkCostsNoGoroutine(t *testing.T) {
	var tr *dialCount
	r := newBeatRig(t, func(c *Config) {
		tr = &dialCount{Transport: c.Transport}
		c.Transport, c.PeerAddrs, c.DataDir = tr, []string{"dead"}, t.TempDir()
	})
	defer r.close()
	const want = 4
	waitFor(t, waitLimit, func() bool { return tr.dials.Load() == 1 && daemonGoroutines() == want }, "the boot dial to be refused")
	for i := 0; i < 3; i++ {
		r.clk.Advance(time.Hour)
		r.fire()
		r.fire() // the first beat is over: its dial made, its DHT round begun
		waitFor(t, waitLimit, func() bool { return !r.d.dhtRound.Load() }, "the DHT round to finish")
		waitFor(t, waitLimit, func() bool { return daemonGoroutines() == want }, "the redial to be refused")
	}
	if got := tr.dials.Load(); got != 4 {
		t.Fatalf("%d dials, want the boot dial and one per hour-apart beat", got)
	}
}

// TestConfiguredLinkRedialsOnTheBeat: a configured address that refuses
// every dial is dialed once at Run and then only by the beat — not while
// an hour goes by on the clock with no tick, then once per tick that finds
// its step over, and not on a tick a nanosecond short of the step.
func TestConfiguredLinkRedialsOnTheBeat(t *testing.T) {
	defer testutil.NoLeaks(t)()
	var tr *dialCount
	r := newBeatRig(t, func(c *Config) {
		tr = &dialCount{Transport: c.Transport}
		c.Transport, c.PeerAddrs = tr, []string{"dead"}
	})
	defer r.close()
	idle := func(dials int32) { // the dial made and filed, nothing in flight
		t.Helper()
		waitFor(t, waitLimit, func() bool {
			return tr.dials.Load() == dials && !r.d.dhtRound.Load() && daemonGoroutines() == 3
		}, fmt.Sprintf("dial %d to be refused", dials))
	}
	idle(1)
	r.clk.Advance(time.Hour)
	if got := tr.dials.Load(); got != 1 {
		t.Fatalf("%d dials after an hour with no tick, want the boot dial alone", got)
	}
	r.fire()
	idle(2)
	for k := 1; k <= 4; k++ {
		step := r.d.cfg.Backoff.Delay(k)
		r.clk.Advance(step - 1)
		r.fire()
		r.fire() // the first tick's beat is over
		idle(int32(k + 1))
		r.clk.Advance(1)
		r.fire()
		idle(int32(k + 2))
	}
}

// TestNeverUpLinkRedialsOnAnEdge: a configured address that refused the
// boot dial is dialed again, with no tick fired, when a session registers
// and when a hello adds an edge to the clique graph: the neighbourhood
// just grew, so the node that was not yet listening may be now. Without
// it the dial waits for the beat while a loopback file moves pairwise over
// a star that holds no clique.
func TestNeverUpLinkRedialsOnAnEdge(t *testing.T) {
	defer testutil.NoLeaks(t)()
	var tr *dialCount
	r := newBeatRig(t, func(c *Config) {
		tr = &dialCount{Transport: c.Transport}
		c.Transport, c.PeerAddrs = tr, []string{"late"}
	})
	defer r.close()
	filed := func(dials int32, what string) { // the dial made, refused and filed
		t.Helper()
		waitFor(t, waitLimit, func() bool {
			return tr.dials.Load() == dials && goroutinesIn("peer.(*Manager).runLink") == 0
		}, what)
	}
	filed(1, "the boot dial to be refused")
	conn := r.peer(2)
	filed(2, "the registration's dial to be refused")
	lis, err := r.net.Listen("late")
	if err != nil {
		t.Fatal(err)
	}
	r.hello(conn, 2, 1) // node 2 hears this node: a new edge
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	far, err := lis.Accept(ctx)
	if err != nil {
		t.Fatalf("no redial of the late address: %v", err)
	}
	r.links = append(r.links, func() { far.Close() })
	if err := far.Send(ctx, &wire.Hello{From: 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, waitLimit, func() bool { return slices.Contains(r.d.mgr.Peers(), 3) }, "the session to the late node")
	if n := tr.dials.Load(); n != 3 {
		t.Fatalf("%d dials, want the boot dial and two redials", n)
	}
}

// TestConcurrentDHTSendsShareOneDial: two DHT sends to one contact outside
// the peer set, both waiting on its dial, cost one dial, and both requests
// go out on the session it brings up.
func TestConcurrentDHTSendsShareOneDial(t *testing.T) {
	defer testutil.NoLeaks(t)()
	var tr *dialCount
	r := newBeatRig(t, func(c *Config) {
		tr = &dialCount{Transport: c.Transport}
		c.Transport = tr
	})
	defer r.close()
	lis, err := r.net.Listen("far")
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 2)
	for i := range 2 {
		go func() {
			sent <- r.d.dhtSend(dht.Contact{ID: 9, Addr: "far"}, &wire.FindNode{From: 1, RPCID: uint64(i)})
		}()
	}
	// The dial cannot land before the far end accepts it, so once both
	// senders wait on it, the second has joined the first's.
	waitFor(t, waitLimit, func() bool { return goroutinesIn("peer.(*Manager).Dial(") == 2 }, "both senders to wait on the dial")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	far, err := lis.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r.links = append(r.links, func() { far.Close() })
	if err := far.Send(ctx, &wire.Hello{From: 9}); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := <-sent; err != nil {
			t.Fatalf("dhtSend: %v", err)
		}
	}
	want := []wire.MsgType{wire.TypeHello, wire.TypeFindNode, wire.TypeFindNode}
	if got := r.recv(far, 3); !slices.Equal(got, want) {
		t.Fatalf("the far end heard %v, want %v", got, want)
	}
	if got := tr.dials.Load(); got != 1 {
		t.Fatalf("%d dials for two sends, want 1", got)
	}
}

// dialCount is a transport that counts the dials made through it.
type dialCount struct {
	transport.Transport
	dials atomic.Int32
}

func (d *dialCount) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	d.dials.Add(1)
	return d.Transport.Dial(ctx, addr)
}

// daemonGoroutines counts the goroutines that are a daemon's Run or were
// started by it or by its beat, the links included — all a daemon without
// sessions has.
func daemonGoroutines() int {
	return goroutinesIn("daemon.(*Daemon).Run", "daemon.(*Daemon).beat", "peer.(*Manager).runLink")
}

// goroutinesIn counts the goroutines whose stack names any of fns.
func goroutinesIn(fns ...string) (n int) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, fn := range fns {
			if strings.Contains(g, fn) {
				n++
				break
			}
		}
	}
	return n
}
