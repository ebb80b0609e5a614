package daemon

import (
	"context"
	"flag"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/credit"
	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/quiet"
	"repro/internal/simtime"
	"repro/internal/stepnet"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The stepped swarm: N daemons on the stepped network (internal/stepnet)
// — one hand-driven clock, one frame or one beat per step, quiet after
// every step — with every invariant (check, checkSent; DESIGN.md
// "Invariants and the stepped harness" states them) checked after every
// step. A seed replays exactly: the step log hashes to the same digest
// on every run, plain or under -race.

// scan cross-checks every counted quiet against a look at every
// goroutine's stack (stepnet.Net.Scan): go test -run TestStep
// ./internal/daemon -args -scan.
var scan = flag.Bool("scan", false, "cross-check the stepped harness's counted quiet against a stack scan after every step")

// stepCfg is a stepped node's configuration before the seed family
// shapes it: the liveness window is four beats, redials back off from
// one beat to four, and a stalled download may re-drive for as long as
// a seed runs.
func stepCfg(id trace.NodeID) Config {
	return Config{
		ID:             id,
		HelloInterval:  stepnet.Beat,
		LivenessWindow: 4 * stepnet.Beat,
		FetchMatching:  true,
		Backoff:        transport.Backoff{Min: stepnet.Beat, Max: 4 * stepnet.Beat, Jitter: -1},
	}
}

// stepSwarm is the nodes a test steps, on the network that steps them.
type stepSwarm struct {
	tb     testing.TB
	family string
	seed   uint64
	net    *stepnet.Net
	nodes  []*stepNode
	ctx    context.Context
	cancel context.CancelFunc

	// heard is, per receiver, the Have of the last hello it was handed
	// from each sender, views the last GroupHello, and bad what the send
	// checks found.
	heard map[[2]trace.NodeID][]wire.GroupWant
	views map[[2]trace.NodeID]heardView
	badMu sync.Mutex
	bad   []string
	// tx is what a group family measured: transmissions per verified
	// piece, for TestStep to compare across planes.
	tx float64
}

// stepNode is one daemon of the swarm and the handles that drive it.
type stepNode struct {
	id   trace.NodeID
	cfg  Config
	d    *Daemon
	stop func() // ends Run and waits for it
}

func newStepSwarm(tb testing.TB, family string, seed uint64, faults stepnet.Faults) *stepSwarm {
	s := &stepSwarm{
		tb: tb, family: family, seed: seed, net: stepnet.New(seed, true),
		heard: map[[2]trace.NodeID][]wire.GroupWant{},
		views: map[[2]trace.NodeID]heardView{},
	}
	s.net.Faults, s.net.Scan = faults, *scan
	s.net.Sent, s.net.Handed = s.checkSent, s.handed
	s.net.Check = s.check
	s.ctx, s.cancel = context.WithCancel(quiet.With(context.Background(), s.net.Work()))
	// Cleanups run last first: the nodes stop, then every goroutine they
	// started must be gone.
	tb.Cleanup(testutil.NoLeaks(tb))
	tb.Cleanup(s.close)
	return s
}

// close stops every node; the cleanup of every swarm.
func (s *stepSwarm) close() {
	s.cancel()
	for _, n := range s.nodes {
		n.stop()
	}
}

// must fails the test with the seed's replay line on a harness error.
func (s *stepSwarm) must(err error) {
	if err != nil {
		s.fail("%v", err)
	}
}

// start builds a node from cfg (its transport the swarm's) and runs it
// until the swarm is quiet: listening, its configured links dialed.
func (s *stepSwarm) start(cfg Config) *stepNode {
	s.tb.Helper()
	cfg.Transport = s.net.As(cfg.ID)
	tick := make(chan time.Time)
	d, err := NewDriven(cfg, s.net.Now, tick)
	if err != nil {
		s.tb.Fatal(err)
	}
	n := &stepNode{id: cfg.ID, cfg: cfg, d: d}
	if i := slices.IndexFunc(s.nodes, func(o *stepNode) bool { return o.id == cfg.ID }); i >= 0 {
		s.nodes[i] = n
	} else {
		s.nodes = append(s.nodes, n)
	}
	n.stop, err = s.net.Start(s.ctx, cfg.ID, tick, d.Run)
	s.must(err)
	s.logf("start node %d", cfg.ID)
	s.check()
	return n
}

// restart stops node id and starts it again on the same configuration —
// a graceful restart on its data directory, if it has one — after
// mutate, when set, adjusts it.
func (s *stepSwarm) restart(id trace.NodeID, mutate func(*Config)) *stepNode {
	s.tb.Helper()
	n := s.node(id)
	n.stop()
	s.logf("stop node %d", id)
	s.quiet()
	cfg := n.cfg
	if mutate != nil {
		mutate(&cfg)
	}
	return s.start(cfg)
}

func (s *stepSwarm) node(id trace.NodeID) *stepNode {
	for _, n := range s.nodes {
		if n.id == id {
			return n
		}
	}
	s.tb.Fatalf("no node %d", id)
	return nil
}

func (s *stepSwarm) logf(format string, args ...any) { s.net.Logf(format, args...) }

// fail stops the test with the seed's reproduction line and its last steps.
func (s *stepSwarm) fail(format string, args ...any) {
	s.tb.Helper()
	run := s.tb.Name()
	if strings.HasPrefix(s.family, "TestStep/") {
		run = fmt.Sprintf("%s/seed=%d", s.family, s.seed) // the replay subtest reruns seeds too
	}
	log := s.net.Log()
	s.tb.Fatalf("%s\nreplay: go test -run '%s$' ./internal/daemon\nlast steps:\n  %s",
		fmt.Sprintf(format, args...), run, strings.Join(log[max(0, len(log)-32):], "\n  "))
}

// Digest is the step log's hash so far.
func (s *stepSwarm) Digest() string { return s.net.Digest() }

func (s *stepSwarm) quiet() { s.must(s.net.Quiet()) }

// until steps until done holds, failing after limit steps.
func (s *stepSwarm) until(limit int, what string, done func() bool) {
	s.tb.Helper()
	for end := s.net.Steps + limit; !done(); {
		if s.net.Steps >= end {
			s.fail("no %s in %d steps (%d beats)", what, limit, s.net.Beats)
		}
		s.must(s.net.Step())
	}
}

// beatsPass steps until that many more beats have gone by.
func (s *stepSwarm) beatsPass(beats int) {
	s.tb.Helper()
	end := s.net.Beats + beats
	s.until(100000, "beats", func() bool { return s.net.Beats >= end })
}

// await runs f — a call that waits on the network, such as a DHT lookup
// or an on-demand dial — beside the scheduler, stepping until it returns.
func (s *stepSwarm) await(limit int, what string, f func()) {
	s.tb.Helper()
	done := make(chan struct{})
	s.net.Go(func() {
		defer close(done)
		f()
	})
	s.quiet()
	s.until(limit, what, func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
}

// act runs f on the stepping goroutine — a user's action on a node, such
// as a new query — and lets the swarm settle before the next step.
func (s *stepSwarm) act(what string, f func()) {
	s.tb.Helper()
	s.logf("%s", what)
	f()
	s.quiet()
	s.check()
}

// heardView is a GroupHello as its receiver was handed it, and when.
type heardView struct {
	hello *wire.GroupHello
	at    time.Time
}

// handed records, for each hello a node is handed on a conn, the bitmaps
// its receiver serves against, and for each GroupHello, on a conn or a
// lane, the view it announces. Called under the network's lock.
func (s *stepSwarm) handed(to, _ trace.NodeID, onConn bool, frame []byte) {
	if len(frame) < 3 {
		return
	}
	switch wire.MsgType(frame[2]) {
	case wire.TypeHello:
		if h, err := wire.DecodeHello(frame); err == nil && onConn {
			s.heard[[2]trace.NodeID{to, h.From}] = h.Have
		}
	case wire.TypeGroupHello:
		if m, err := wire.Decode(frame); err == nil {
			g := m.(*wire.GroupHello)
			s.views[[2]trace.NodeID{to, g.From}] = heardView{g, s.net.Now()}
		}
	}
}

// checkSent holds every frame a node puts on the network to the send-side
// invariants: a pairwise piece never goes to a peer whose last hello,
// handed to the sender, marks it held; and no frame carries an expired
// record as an answer. Called under the network's lock.
func (s *stepSwarm) checkSent(from, to trace.NodeID, frame []byte) {
	s.badMu.Lock()
	defer s.badMu.Unlock()
	m, err := wire.Decode(frame)
	if err != nil {
		s.bad = append(s.bad, fmt.Sprintf("node %d sent an undecodable frame: %v", from, err))
		return
	}
	now := protoTime(s.net.Now())
	expired := func(what string, rec *metadata.Metadata) {
		if rec.Expired(now) {
			s.bad = append(s.bad, fmt.Sprintf("node %d resolved an expired record in a %s: %s expired at %d, now %d",
				from, what, rec.URI, rec.Expires, now))
		}
	}
	switch v := m.(type) {
	case *wire.Piece:
		if to >= 0 {
			for _, w := range s.heard[[2]trace.NodeID{from, to}] {
				if w.URI == v.URI && w.HaveBit(v.Index) {
					s.bad = append(s.bad, fmt.Sprintf("node %d sent piece %d of %s to node %d, whose last hello it handled holds it",
						from, v.Index, v.URI, to))
				}
			}
		}
		if v.Piggyback != nil {
			expired("piggyback", &v.Piggyback.Record)
		}
	case *wire.Metadata:
		expired("metadata answer", &v.Record)
	case *wire.NodesReply:
		for i := range v.Values {
			expired("DHT reply", &v.Values[i].Meta.Record)
		}
	}
}

// check holds every running node to the state invariants, after a step.
func (s *stepSwarm) check() {
	s.tb.Helper()
	s.badMu.Lock()
	bad := s.bad
	s.bad = nil
	s.badMu.Unlock()
	if len(bad) > 0 {
		s.fail("%s", strings.Join(bad, "\n"))
	}
	now := protoTime(s.net.Now())
	for _, n := range s.nodes {
		d := n.d
		peers := d.mgr.Peers()
		if open := s.net.Handshaken(n.id); !slices.Equal(peers, open) {
			s.fail("node %d: Peers() = %v, but its open handshaken conns reach %v", n.id, peers, open)
		}
		if q := d.mgr.Queues(); q.DropsControl > 0 {
			s.fail("node %d dropped %d control frames (data dropped: %d)", n.id, q.DropsControl, q.DropsData)
		}
		if f := d.mgr.Stats().HandshakeFail; f > 0 {
			// No fault reaches a handshake (its hello is never dropped, and a
			// kill rides behind it on its conn): a failure is a wait on the
			// runtime clock that ran out.
			s.fail("node %d failed %d handshakes", n.id, f)
		}
		d.mu.Lock()
		var held int
		for _, uri := range d.node.PieceURIs() {
			held += d.node.Pieces(uri).Count()
		}
		var earned float64
		for _, c := range d.node.Ledger.Snapshot() {
			earned += c
		}
		var problems []string
		if rewards := earned / credit.RequestedReward; rewards < float64(held)-1e-6 || rewards > float64(held)+1e-6 {
			problems = append(problems, fmt.Sprintf("credit for %.2f pieces, %d held", rewards, held))
		}
		for uri, f := range d.files {
			if f.deal == nil {
				continue
			}
			for _, id := range f.deal.Suppliers {
				if !slices.Contains(peers, id) {
					problems = append(problems, fmt.Sprintf("the deal for %s names node %d, which has no session", uri, id))
				}
			}
		}
		for _, sm := range d.node.MetadataStore() {
			if sm.Meta.Expired(now) {
				problems = append(problems, fmt.Sprintf("holds %s past its expiry", sm.Meta.URI))
			}
		}
		d.mu.Unlock()
		if d.bcast != nil {
			problems = append(problems, s.groupProblems(n)...)
		}
		if len(problems) > 0 {
			s.fail("node %d: %s", n.id, strings.Join(problems, "; "))
		}
	}
}

// groupProblems holds a node of the group plane to its two frame-speed
// rules, from the GroupHellos it was handed. A node that holds a fresh
// view naming its group from every other member is confirmed: the last
// of them confirmed it, not the beat after. And a confirmed sequencer
// that holds a member's view naming a download it can serve a piece of
// has granted: the view opened a round.
func (s *stepSwarm) groupProblems(n *stepNode) (problems []string) {
	st := n.d.bcast.Stats()
	if st.Group == nil {
		return nil
	}
	now := s.net.Now()
	agreed, wanted := true, false
	for _, m := range st.Group {
		if m == n.id {
			continue
		}
		v, ok := s.views[[2]trace.NodeID{n.id, m}]
		if !ok || now.Sub(v.at) > n.cfg.LivenessWindow {
			agreed = false
			continue
		}
		if !slices.Equal(v.hello.Members, st.Group) {
			agreed = false
		}
		for _, w := range v.hello.Wants {
			if !w.Downloading {
				continue
			}
			for i, held := range n.d.Have(w.URI) {
				wanted = wanted || held && !w.HaveBit(i)
			}
		}
	}
	if agreed && !st.Confirmed {
		problems = append(problems, fmt.Sprintf("every other member's view names its group %v, and it is unconfirmed", st.Group))
	}
	if st.Confirmed && st.Sequencer == n.id && wanted && st.GrantsSent == 0 {
		problems = append(problems, "it sequences a confirmed group, holds a piece a member's view wants, and has granted nothing")
	}
	return problems
}

// stepFile is the pairwise families' download: 16 pieces of 4 KiB, four
// pushes deep — the chaos soak's file.
func stepFile(c *Config) {
	c.FileSize, c.PieceSize, c.PiecesPerHello = 16*4096, 4096, 4
}

// stepFamilies are TestStep's seed families; every seed is a subtest,
// TestStep/<family>/seed=N, and replays exactly.
type stepFamily struct {
	name  string
	seeds uint64
	run   func(tb testing.TB, seed uint64) *stepSwarm
}

var stepFamilies = []stepFamily{
	{"chaos", 12, stepChaos},
	{"flood", 6, stepFlood},
	{"fec", 3, func(tb testing.TB, seed uint64) *stepSwarm { return stepGroup(tb, seed, true) }},
	{"grant", 3, func(tb testing.TB, seed uint64) *stepSwarm { return stepGroup(tb, seed, false) }},
	{"restart", 8, stepRestart},
	{"expiry", 2, stepExpiry},
}

// stepDigests holds, per seed, the step log of the seed's first run in
// this process: a second run — the replay subtest, or any seed under
// -count=2 — must reproduce it line for line.
var stepDigests sync.Map

// replays records s as the first run of seed of family, or compares it
// with the first: on a difference it reports the first step the two logs
// part at.
func replays(tb testing.TB, family string, seed uint64, s *stepSwarm) {
	tb.Helper()
	key := fmt.Sprintf("%s/seed=%d", family, seed)
	log := s.net.Log()
	tb.Logf("%s: %d steps, %d beats, digest %s, %d stack scans", key, s.net.Steps, s.net.Beats, s.Digest(), s.net.Scans)
	v, loaded := stepDigests.LoadOrStore(key, log)
	first := v.([]string)
	if !loaded || slices.Equal(first, log) {
		return
	}
	i := 0
	for i < len(first) && i < len(log) && first[i] == log[i] {
		i++
	}
	lo := max(0, i-8)
	tb.Fatalf("%s does not replay; the runs part at line %d:\nfirst:\n  %s\nthen:\n  %s", key, i,
		strings.Join(first[lo:min(len(first), i+4)], "\n  "), strings.Join(log[lo:min(len(log), i+4)], "\n  "))
}

// TestStep runs every seed of every family on the stepped swarm, each
// step checked against the invariants (stepSwarm.check, stepNet.checkSent),
// and each seed's step log digest against its first run in the process.
// The fountain plane must move the file in strictly fewer transmissions
// per verified piece than the grant plane, median against median; and
// the pairwise families' first seeds are run again, and must replay step
// for step. (go test -count=2 -run TestStep replays every seed.)
func TestStep(t *testing.T) {
	tx := map[string][]float64{}
	for _, f := range stepFamilies {
		t.Run(f.name, func(t *testing.T) {
			for seed := uint64(1); seed <= f.seeds; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					s := f.run(t, seed)
					replays(t, f.name, seed, s)
					if s.tx > 0 {
						tx[f.name] = append(tx[f.name], s.tx)
					}
				})
			}
		})
	}
	t.Run("fewer-transmissions", func(t *testing.T) {
		// A family whose seeds -run did not select is run here, whole.
		median := func(family string) float64 {
			f := stepFamilies[slices.IndexFunc(stepFamilies, func(f stepFamily) bool { return f.name == family })]
			if uint64(len(tx[family])) < f.seeds {
				tx[family] = nil
				for seed := uint64(1); seed <= f.seeds; seed++ {
					s := f.run(t, seed)
					s.close()
					tx[family] = append(tx[family], s.tx)
				}
			}
			v := slices.Clone(tx[family])
			slices.Sort(v)
			return v[len(v)/2]
		}
		fountain, grant := median("fec"), median("grant")
		t.Logf("transmissions per verified piece at 44%% loss on the medium: grant/resend=%.3f %.3f, fountain=%.3f %.3f",
			grant, tx["grant"], fountain, tx["fec"])
		if fountain >= grant {
			t.Fatalf("fountain plane cost %.3f transmissions per verified piece, grant/resend cost %.3f — no coding gain", fountain, grant)
		}
	})
	t.Run("replay", func(t *testing.T) {
		for _, f := range stepFamilies {
			if f.name == "fec" || f.name == "grant" {
				continue // a second of steps each; -count=2 replays them
			}
			s := f.run(t, 1)
			replays(t, f.name, 1, s)
			s.close()
		}
	})
}

// stepChaos is TestChaosSoak stepped: a seed and a leech, every frame
// but a handshake liable to be dropped (20 %), duplicated (5 %) or to kill
// its conn (1 %), early beats, and on even seeds a partition of a few
// beats. The download completes with every piece verified once; every
// piece frame the leech was handed is verified or counted a duplicate;
// a lost piece is served again; and the leech is healthy afterwards.
func stepChaos(tb testing.TB, seed uint64) *stepSwarm {
	faults := stepnet.Faults{Drop: 0.2, Dup: 0.05, Kill: 0.01, Early: 0.05}
	if seed%2 == 0 {
		faults.Cut = [2]int{3, 4 + int(seed%5)}
	}
	s := newStepSwarm(tb, "TestStep/chaos", seed, faults)
	handed := 0
	s.net.Delivered = func(to, _ trace.NodeID, m wire.Msg) {
		if _, ok := m.(*wire.Piece); ok && to == 2 {
			handed++
		}
	}
	sc := stepCfg(1)
	sc.ListenAddr, sc.InternetAccess, sc.PublishFiles = "seed", true, 1
	stepFile(&sc)
	seeder := s.start(sc).d
	lc := stepCfg(2)
	lc.PeerAddrs, lc.Queries = []string{"seed"}, []string{"f0"}
	leech := s.start(lc).d
	uri := metadata.URIFor(0)
	s.until(20000, "download completion under chaos", func() bool { return leech.Completed(uri) })

	ls, ss := leech.Stats(), seeder.Stats()
	if ls.PiecesVerified != 16 || ls.PiecesRejected != 0 {
		s.fail("leech verified %d pieces, rejected %d; want all 16, none rejected", ls.PiecesVerified, ls.PiecesRejected)
	}
	if got := ls.PiecesVerified + ls.PiecesDuplicate; got != uint64(handed) {
		s.fail("leech was handed %d pieces but verified %d and counted %d duplicates", handed, ls.PiecesVerified, ls.PiecesDuplicate)
	}
	if s.net.Dropped[wire.TypePiece]+s.net.Kills > 0 && ss.Transport.PiecesSent <= 16 {
		s.fail("%d piece frames dropped and %d kills, yet the seed sent only %d pieces", s.net.Dropped[wire.TypePiece], s.net.Kills, ss.Transport.PiecesSent)
	}
	if s.net.Dropped[wire.TypeHello]+s.net.Dropped[wire.TypePiece] == 0 {
		s.fail("no frame dropped: the seed proves nothing")
	}
	s.until(100, "a healthy leech after the storm", func() bool { return leech.Health().Status == "ok" })
	return s
}

// The flood families' admission rate, per second of the hand clock: a
// beat's flood is five times it.
const stepFloodRate = 20

// flooder is a scripted endpoint holding one conn to a node: it
// handshakes as node 99, beacons each beat, and sends a burst of frame at
// five times the victim's admission rate; it redials a conn the faults
// killed, and keeps the Busy frames it hears.
type flooder struct {
	s      *stepSwarm
	addr   string
	frame  wire.Msg
	conn   *stepnet.End
	on     bool
	sent   int
	busies []*wire.Busy
	since  time.Time // when the flood started, on the hand clock
}

func newFlooder(s *stepSwarm, addr string, frame wire.Msg) *flooder {
	f := &flooder{s: s, addr: addr, frame: frame, on: true, since: s.net.Now()}
	s.net.OnBeat = f.beat
	s.act("the flooder dials", f.beat)
	return f
}

func (f *flooder) beat() {
	if !f.on {
		return
	}
	if f.conn == nil || f.conn.Closed() {
		c, err := f.s.net.Dial(99, f.addr, func(m wire.Msg) {
			if b, ok := m.(*wire.Busy); ok {
				f.busies = append(f.busies, b)
			}
		})
		if err != nil {
			return
		}
		f.conn = c
	}
	f.conn.Send(context.Background(), &wire.Hello{From: 99})
	for i := 0; i < 5*stepFloodRate*int(stepnet.Beat/time.Second); i++ {
		if f.conn.Send(context.Background(), f.frame) == nil {
			f.sent++
		}
	}
}

// stop ends the flood and hangs up.
func (f *flooder) stop() {
	f.on = false
	if f.conn != nil {
		f.conn.Close()
	}
}

// seen counts the Busy frames the flooder heard on a lane.
func (f *flooder) seen(sc wire.BusyScope) (n int) {
	for _, b := range f.busies {
		if b.Scope == sc {
			n++
		}
	}
	return n
}

// stepFlood is TestChaosFloodSoak (and the swarm's overload scenario)
// stepped: the seed admits stepFloodRate frames a second per peer, a
// flooder sends five times that, every frame is liable to be dropped
// (15 %) or duplicated (5 %), one step in four fires the beat early, and
// a six-beat partition long enough to expire every peer falls early in
// the run — so the seed expires the flooder with its flood still on the
// wire. The legitimate download completes; the seed sheds, answers Busy
// — which the flooder hears — and reports degraded while it does, and
// healthy again once the flood stops; control frames are never dropped
// (stepSwarm.check).
func stepFlood(tb testing.TB, seed uint64) *stepSwarm {
	from := 2 + int(seed%3)
	s := newStepSwarm(tb, "TestStep/flood", seed, stepnet.Faults{Drop: 0.15, Dup: 0.05, Early: 0.25, Cut: [2]int{from, from + 6}})
	sc := stepCfg(1)
	sc.ListenAddr, sc.InternetAccess, sc.PublishFiles = "seed", true, 1
	sc.PeerRate = stepFloodRate
	stepFile(&sc)
	seeder := s.start(sc).d
	lc := stepCfg(2)
	lc.PeerAddrs, lc.Queries = []string{"seed"}, []string{"f0"}
	leech := s.start(lc).d
	flood := newFlooder(s, "seed", &wire.Hello{From: 99, Queries: []string{"f0"}, Downloading: []metadata.URI{metadata.URIFor(0)}})
	degraded := false
	s.until(20000, "download completion and shedding under flood + faults", func() bool {
		degraded = degraded || seeder.Health().Status == "degraded"
		return leech.Completed(metadata.URIFor(0)) && seeder.Stats().Transport.InboundShed > 0
	})
	s.act("the flood stops", flood.stop)
	st := seeder.Stats()
	switch {
	case st.Transport.InboundShed == 0:
		s.fail("no inbound frame shed under a 5× flood")
	case st.BusyReplies == 0:
		s.fail("the seed sent no Busy replies under flood: %+v", st)
	case flood.sent == 0 || len(flood.busies) == 0:
		s.fail("the flooder sent %d frames and heard %d Busy frames, want both > 0", flood.sent, len(flood.busies))
	case !degraded:
		s.fail("the seed never reported degraded while it shed")
	case s.net.Dropped[wire.TypeHello] == 0:
		s.fail("no hello dropped: the seed proves nothing")
	}
	s.until(1000, "the seed healthy again after the flood", func() bool { return seeder.Health().Status == "ok" })
	return s
}

// The group families' clique: one Internet seed and three downloaders of
// an 8-piece file of 16 KiB pieces (K = 64 symbols of 256 B), a full mesh
// of clean pairwise sessions, and one shared medium losing 44 % per
// receiver — 30 % drop and 20 % corruption, as the piece plane feels it.
const (
	groupNodes      = 4
	groupPieces     = 8
	groupPieceSize  = 16384
	groupSymbolSize = 256
	groupLoss       = 0.44
)

// stepGroup is the fountain acceptance run stepped, once on the
// grant/resend piece plane (PieceBcast on the medium) and once, with fec,
// on the fountain-coded symbol plane (its own lane at the same loss). The
// group confirms on the lossy medium, every downloader completes, and
// the fountain run decodes at least three times the file across the
// downloaders: the coded plane, not the pairwise fallback, carried it.
// It sets s.tx to piece-equivalent transmissions per verified piece: a
// pairwise piece or a PieceBcast costs one, a symbol (relays included)
// its share of a piece.
func stepGroup(tb testing.TB, seed uint64, fec bool) *stepSwarm {
	family := "TestStep/grant"
	if fec {
		family = "TestStep/fec"
	}
	s := newStepSwarm(tb, family, seed, stepnet.Faults{})
	nodes := s.clique(fec, groupLoss)
	leeches := nodes[1:]
	confirmed, granted := s.groupStarts(nodes)
	tb.Logf("the group confirmed %d beats after the last handshake and granted %d beats after the query", confirmed, granted)
	uri := metadata.URIFor(0)
	s.until(50000, "downloads on the lossy medium", func() bool {
		for _, d := range leeches {
			if !d.Completed(uri) {
				return false
			}
		}
		return true
	})
	var tx, verified float64
	var decodes uint64
	for i, d := range nodes {
		st := d.Stats()
		tx += float64(st.Transport.PiecesSent + st.Bcast.PieceBcastsSent)
		tx += float64(st.Bcast.SymbolsSent+st.Bcast.SymbolsRelayed) * groupSymbolSize / groupPieceSize
		verified += float64(st.PiecesVerified)
		if i > 0 {
			decodes += st.Bcast.FECDecodes
		}
	}
	if fec && decodes < 3*groupPieces {
		s.fail("only %d fountain decodes across %d downloaders, want >= %d", decodes, len(leeches), 3*groupPieces)
	}
	s.tx = tx / verified
	return s
}

// clique starts the group families' clique on the swarm: a full mesh
// of groupNodes daemons, node 1 the seed, on one shared medium losing
// loss per receiver — with fec, and a symbol lane at the same loss.
func (s *stepSwarm) clique(fec bool, loss float64) (nodes []*Daemon) {
	var addrs []string
	for id := trace.NodeID(1); id <= groupNodes; id++ {
		c := stepCfg(id)
		// A view lives twenty beats: at 44 % loss a member misses all of a
		// peer's group hellos in four beats one time in 27 (0.44⁴), and a group
		// that flaps hands its pieces to the pairwise path.
		c.LivenessWindow = 20 * stepnet.Beat
		c.ListenAddr = fmt.Sprintf("n%d", id)
		c.PeerAddrs = slices.Clone(addrs)
		if id == 1 {
			c.InternetAccess, c.PublishFiles = true, 1
			c.FileSize, c.PieceSize = groupPieces*groupPieceSize, groupPieceSize
		}
		c.EnableBcast = true
		c.Broadcast = s.net.Join("radio", loss, id)
		if fec {
			c.Symbols = s.net.Join("symbols", loss, id)
			c.EnableFEC, c.SymbolSize = true, groupSymbolSize
			// A relay rarely reaches a member the sender's own broadcast
			// missed; fresh top-ups do the repair.
			c.RelayBudget = 1
		}
		nodes = append(nodes, s.start(c).d)
		addrs = append(addrs, c.ListenAddr)
	}
	return nodes
}

// groupStarts steps the clique from its handshakes to its first grant:
// every session up, the whole group confirmed on every node, a query
// for the seed's file at every downloader, the sequencer's first grant.
// It reports the beats from the last handshake to the confirmation and
// from the queries to the grant.
func (s *stepSwarm) groupStarts(nodes []*Daemon) (confirmed, granted int) {
	s.tb.Helper()
	s.until(20000, "every handshake", func() bool {
		for _, d := range nodes {
			if len(d.mgr.Peers()) != len(nodes)-1 {
				return false
			}
		}
		return true
	})
	at := s.net.Beats
	s.until(20000, "group confirmation", func() bool {
		for _, d := range nodes {
			if st := d.bcast.Stats(); !st.Confirmed || len(st.Group) != len(nodes) {
				return false
			}
		}
		return true
	})
	confirmed, at = s.net.Beats-at, s.net.Beats
	s.act("query f0 at every downloader", func() {
		for _, d := range nodes[1:] {
			d.AddQuery("f0")
		}
	})
	s.until(20000, "the first grant", func() bool { return nodes[0].bcast.Stats().GrantsSent > 0 })
	return confirmed, s.net.Beats - at
}

// TestGroupStartsBeforeTheBeat: on a medium that loses nothing the group
// plane's start takes round trips, not beats. The clique confirms its
// group before the first beat after its last handshake, and the
// downloaders' selections reach the sequencer, which grants the first
// piece, before the beat after the queries: formation and confirmation
// run on the hellos and GroupHellos that carry them, and a selection
// announces itself. On the lossy medium of TestStep's group families a
// lost GroupHello waits for the keep-alive at the beat; the frame-speed
// rules themselves are held on every step there (groupProblems).
func TestGroupStartsBeforeTheBeat(t *testing.T) {
	for _, fec := range []bool{false, true} {
		s := newStepSwarm(t, "TestGroupStartsBeforeTheBeat", 1, stepnet.Faults{})
		if confirmed, granted := s.groupStarts(s.clique(fec, 0)); confirmed != 0 || granted != 0 {
			s.fail("fec=%v: the group confirmed %d beats after the last handshake and granted %d beats after the query, want 0 and 0",
				fec, confirmed, granted)
		}
		s.close()
	}
}

// stepRestart is the crash-recovery soak stepped: a leech with a data
// directory one write in ten of which tears (and is repaired),
// every frame liable to be dropped (10 %) or duplicated (5 %), is
// restarted gracefully at a seeded point of its download. The second
// incarnation resumes from what the first made durable: its fetched and
// recovered pieces add up to the file, it is never handed a piece it
// recovered, and the seed skips what the restarted leech advertises as
// held. Credit stays conserved against pieces across failed commits and
// the restart (stepSwarm.check).
func stepRestart(tb testing.TB, seed uint64) *stepSwarm {
	s := newStepSwarm(tb, "TestStep/restart", seed, stepnet.Faults{Drop: 0.1, Dup: 0.05, Early: 0.05})
	sc := stepCfg(1)
	sc.ListenAddr, sc.InternetAccess, sc.PublishFiles = "seed", true, 1
	stepFile(&sc)
	seeder := s.start(sc).d
	disk := func(n uint64) store.FS {
		return fault.WrapFS(store.OSFS{}, fault.FSConfig{Seed: 100*seed + n, ShortWrite: 0.1})
	}
	lc := stepCfg(2)
	lc.PeerAddrs, lc.Queries = []string{"seed"}, []string{"f0"}
	lc.DataDir, lc.StoreFS = tb.TempDir(), disk(1)
	compactAt(tb, 4096)
	leech := s.start(lc).d
	uri := metadata.URIFor(0)
	at := uint64(1 + s.net.Rand().Intn(15))
	s.until(20000, "the download under way", func() bool { return leech.Stats().PiecesVerified >= at })

	leech = s.restart(2, func(c *Config) { c.StoreFS = disk(2) }).d
	restored := pieceCount(leech.store.State(), uri)
	s.until(20000, "the resumed download", func() bool { return leech.Completed(uri) })
	st := leech.Stats()
	switch {
	case st.PiecesRefetched != 0:
		s.fail("the restarted leech was re-sent %d persisted pieces", st.PiecesRefetched)
	case int(st.PiecesVerified)+restored != 16:
		s.fail("%d pieces fetched on top of %d recovered, want 16 in all", st.PiecesVerified, restored)
	case restored > 0 && restored < 16 && seeder.Stats().PiecesSkippedHeld == 0:
		s.fail("the seed never skipped a piece the restarted leech advertised as held (%d recovered)", restored)
	}
	return s
}

// stepExpiry puts a record that lives twelve beats into the catalog of a
// DHT node and lets it spread: a downloader fetches it — caching it in
// the index — and the DHT replicates it to every node, until it expires.
// Then the third node, a replica, starts searching for it, and a fourth
// joins searching for it, its lookups answered by the replicas; both keep
// at it for twenty beats. No node may resolve the record once it has
// expired, by a metadata answer or a DHT reply (stepNet.checkSent), or
// keep it (stepSwarm.check); and the seed must have replicated it, or it
// proves nothing. The DHT's frames are never faulted: a lost RPC would
// leave a lookup waiting out its runtime deadline, and none may.
func stepExpiry(tb testing.TB, seed uint64) *stepSwarm {
	s := newStepSwarm(tb, "TestStep/expiry", seed, stepnet.Faults{Early: 0.05})
	const publisher = "mbtd"
	rec := metadata.NewSynthetic(0, "f0 short-lived file", publisher, "", 8*1024, 1024,
		protoTime(s.net.Now()), simtime.Duration(12*stepnet.Beat/time.Millisecond), workload.KeyFor(publisher))
	sc := stepCfg(1)
	sc.ListenAddr, sc.InternetAccess, sc.EnableDHT = "s", true, true
	server := s.start(sc).d
	s.act("publish the short-lived record", func() {
		if err := server.catalog.Publish(rec); err != nil {
			s.fail("publish: %v", err)
		}
	})
	c2 := stepCfg(2)
	c2.ListenAddr, c2.PeerAddrs, c2.Queries, c2.EnableDHT = "n2", []string{"s"}, []string{"f0"}, true
	fetcher := s.start(c2).d
	c3 := stepCfg(3)
	c3.ListenAddr, c3.PeerAddrs, c3.EnableDHT = "n3", []string{"n2"}, true
	replica := s.start(c3).d
	s.until(20000, "the record's download", func() bool { return fetcher.Completed(rec.URI) })
	s.until(20000, "the record's expiry", func() bool { return rec.Expired(protoTime(s.net.Now())) })
	var stored uint64
	for _, d := range []*Daemon{server, fetcher, replica} {
		stored += d.dht.Stats().StoresRecv
	}
	if stored == 0 {
		s.fail("the DHT replicated nothing: the seed proves nothing")
	}
	s.act("query f0 at the third node", func() { replica.AddQuery("f0") })
	c4 := stepCfg(4)
	c4.PeerAddrs, c4.Queries, c4.EnableDHT = []string{"n3"}, []string{"f0"}, true
	late := s.start(c4).d
	s.beatsPass(20)
	for _, d := range []*Daemon{replica, late} {
		if d.KnowsMetadata(rec.URI) {
			s.fail("node %d resolved the expired record", d.cfg.ID)
		}
	}
	if late.dht.Stats().Lookups == 0 {
		s.fail("the late node never looked the record up: the seed proves nothing")
	}
	for _, d := range []*Daemon{server, fetcher, replica, late} {
		if n := d.dht.Stats().RPCTimeouts; n > 0 {
			s.fail("node %d waited out %d DHT requests on the runtime clock", d.cfg.ID, n)
		}
	}
	return s
}

// BenchmarkStepGroupTransmissions emits the stepped group runs' numbers
// — seed 1 of the grant and fec families — into the bench JSON baseline
// (results/BENCH_swarm.json via make bench-json), so the coding gain is
// tracked across commits, not just asserted once.
func BenchmarkStepGroupTransmissions(b *testing.B) {
	var grant, fountain float64
	for i := 0; i < b.N; i++ {
		s := stepGroup(b, 1, false)
		s.close()
		grant = s.tx
		s = stepGroup(b, 1, true)
		s.close()
		fountain = s.tx
	}
	b.ReportMetric(grant, "grant_tx/piece")
	b.ReportMetric(fountain, "fountain_tx/piece")
}
