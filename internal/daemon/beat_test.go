package daemon

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
	d, err := newDaemon(cfg, r.clk.Now, r.tick)
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
	waitFor(t, func() bool { return d.Addr() != "" }, "the listener")
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
	waitFor(r.t, func() bool { return r.d.mgr.Stats().HellosKicked == want }, "the kicked round")
}

// peer handshakes node id with the daemon and returns its end of the link.
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
	waitFor(r.t, func() bool { return slices.Contains(r.d.mgr.Peers(), id) }, "the peer's session")
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
	waitFor(r.t, func() bool { return r.d.mgr.Stats().HellosRecv == want }, "the peer's hello")
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
	hellos, expiries, stalls, groupHellos, dhtRounds uint64
}

// counts reads them. A DHT round of a node with no query and no catalog
// is exactly one lookup — the routing table's refresh.
func (r *beatRig) counts() beatCounts {
	ps := r.d.mgr.Stats()
	r.d.mu.Lock()
	stalls := r.d.counters.stalls
	r.d.mu.Unlock()
	return beatCounts{
		hellos: ps.HellosSent, expiries: ps.Expiries, stalls: stalls,
		groupHellos: r.d.bcast.Stats().GroupHellosSent, dhtRounds: r.d.dht.Stats().Lookups,
	}
}

// sweptAt is the reading of the last sweep that found a live peer.
func (r *beatRig) sweptAt() time.Time {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	return r.d.lastPeerAt
}

// TestNothingPeriodicWithoutATick: with the tick never fired an hour goes
// by on the clock and the node does nothing — no frame, no expiry, no
// stall, no GroupHello, no DHT round, although every one of them is long
// due. One tick then does exactly one of each, in the beat's order: the
// peer round (expire, beacon), the sweep, the group beat, the DHT round.
func TestNothingPeriodicWithoutATick(t *testing.T) {
	defer testutil.NoLeaks(t)()
	r := newBeatRig(t, func(c *Config) { c.Queries = []string{"f0"} })
	defer r.close()
	d := r.d
	c2, c3, c4 := r.peer(2), r.peer(3), r.peer(4)
	rec := d.syntheticFile(0)
	d.onMetadata(2, &wire.Metadata{Popularity: 0.5, Record: *rec}) // selected: a download that will stall
	// The selection kicked: three handshakes, then a round of three.
	waitFor(t, func() bool {
		st := d.mgr.Stats()
		return st.HellosKicked == 1 && st.HellosSent == 6
	}, "the selection's kicked round")
	for _, conn := range []transport.Conn{c2, c3, c4} {
		r.recv(conn, 1) // that round's beacon
	}
	d.mu.Lock()
	d.peerLocked(4).sent = map[metadata.URI]*sentFile{rec.URI: {}}
	d.mu.Unlock()
	base := r.counts()

	r.clk.Advance(time.Hour)
	// Nodes 2 and 3 are heard again, and hear each other: with this node
	// they are a clique. Node 4 has been silent four windows.
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
		atGroupHello.stalls = d.counters.stalls
		peer4Swept = d.peers[4] == nil
		d.mu.Unlock()
	}
	r.fire()
	waitFor(t, func() bool { return d.mgr.Stats().DHTSent == 2 }, "the DHT round's requests")
	// Each live peer hears the beacon, the stall's re-drive and the DHT
	// request, in that order; the expired one hears nothing.
	for id, conn := range map[trace.NodeID]transport.Conn{2: c2, 3: c3} {
		want := []wire.MsgType{wire.TypeHello, wire.TypeHello, wire.TypeFindNode}
		if got := r.recv(conn, 3); !slices.Equal(got, want) {
			t.Errorf("node %d heard %v, want %v", id, got, want)
		}
	}
	if m, err := c4.Recv(context.Background()); err == nil {
		t.Errorf("the expired node 4 heard a %v", m.Type())
	}
	want := beatCounts{hellos: base.hellos + 4, expiries: 1, stalls: 1, groupHellos: 1, dhtRounds: 1}
	if got := r.counts(); got != want {
		t.Fatalf("after one tick: %+v, want %+v", got, want)
	}
	if want := (beatCounts{expiries: 1, stalls: 1}); atGroupHello != want {
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
func TestKicksNeitherAddNorStarveTheBeat(t *testing.T) {
	defer testutil.NoLeaks(t)()
	r := newBeatRig(t, func(c *Config) { c.LivenessWindow = 24 * time.Hour })
	defer r.close()
	d := r.d
	beat := d.cfg.HelloInterval
	for _, id := range []trace.NodeID{2, 3} {
		r.answerDHT(r.peer(id), id)
	}
	d.bcast.Observe(2, []trace.NodeID{3}) // 1, 2 and 3 are a clique
	began := r.clk.Now()
	base := r.counts()

	// Half a beat in, two kicks: the second is taken only once the first
	// wake-up is over, so what the first did is final.
	r.clk.Advance(beat / 2)
	r.kick()
	r.kick()
	want := base
	want.hellos += 4
	waitFor(t, func() bool { return r.counts().hellos == want.hellos }, "the kicked beacons")
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
		waitFor(t, func() bool { return !d.dhtRound.Load() }, "the DHT round to finish")
	}
	r.stop()
	got := r.counts()
	// 15 min of kicks: the rest of the beat ran at every other one, and DHT
	// maintenance when first due and ten minutes later.
	if got.groupHellos != 10 || got.dhtRounds != 2 || got.expiries != 0 {
		t.Fatalf("after twenty kicks: %+v, want 10 group beats, 2 DHT rounds, no expiry", got)
	}
	if kicked := d.mgr.Stats().HellosKicked; kicked != 42 {
		t.Fatalf("HellosKicked = %d, want 42", kicked)
	}
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

	r.clk.Advance(2 * d.cfg.HelloInterval)
	r.fire()
	waitFor(t, func() bool { return d.dht.Stats().RPCsSent == 1 }, "the DHT round's request")
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
	waitFor(t, func() bool { return daemonGoroutines() == want }, "the daemon's goroutines to start")
	r.clk.Advance(time.Hour)
	r.fire()
	r.fire() // the first beat is over, its DHT round begun
	waitFor(t, func() bool { return !r.d.dhtRound.Load() }, "the DHT round to finish")
	if got := daemonGoroutines(); got != want {
		t.Fatalf("an idle daemon runs %d goroutines, want %d", got, want)
	}
}

// daemonGoroutines counts the goroutines that are a daemon's Run or were
// started by it or by its beat — all a daemon without sessions has.
func daemonGoroutines() (n int) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "daemon.(*Daemon).Run") || strings.Contains(g, "daemon.(*Daemon).beat") {
			n++
		}
	}
	return n
}
