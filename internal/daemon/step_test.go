package daemon

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/credit"
	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The stepped swarm: N daemons on one hand-driven clock, over a network
// the test owns. A Send only queues; nothing moves until the scheduler
// takes a step, and a step is one of:
//
//   - release the head of one queue (FIFO per conn direction) to its
//     receiver — or, by a seeded roll, drop it, deliver it twice, or kill
//     its conn instead; a lane member's queue, and what the test's
//     scripted flooder sent, go out whole;
//   - when nothing is queued — or, by a seeded roll, while something is,
//     to model a slow link — advance the clock one beat and fire every
//     node's tick. An early beat first latches the head of one queue, up
//     to two frames, into their receiver's inbox, invisible until the
//     beat is over: frames already on the wire when the beat expired
//     their sender.
//
// After each step the scheduler waits until the swarm is quiet — every
// released frame taken by its reader and no goroutine of the live stack
// runnable (quiet) — and then checks every invariant (check, checkSent;
// DESIGN.md "Invariants and the stepped harness" states them). Which
// queue goes next and every fault come from one seeded generator, and
// every name the scheduler sorts by (a conn is its dialer, the address
// it dialed and the ordinal of that dial) is independent of goroutine
// timing, so a seed replays exactly: the step log hashes to the same
// digest on every run, plain or under -race.

// stepBeat is the hello interval of a stepped node. Every deadline the
// runtime still keeps — the handshake's (the liveness window) and a DHT
// RPC's (half of it) — is then seconds of wall time, far beyond what
// any step takes, so a fault never leaves a goroutine waiting on one.
const stepBeat = time.Second

// stepCfg is a stepped node's configuration before the seed family
// shapes it: the liveness window is four beats, redials back off from
// one beat to four, and a stalled download may re-drive for as long as
// a seed runs.
func stepCfg(id trace.NodeID) Config {
	return Config{
		ID:             id,
		HelloInterval:  stepBeat,
		LivenessWindow: 4 * stepBeat,
		FetchMatching:  true,
		Backoff:        transport.Backoff{Min: stepBeat, Max: 4 * stepBeat, Jitter: -1},
	}
}

// stepItem is one thing in flight: an encoded frame, or its sender's
// close (eof). A held item is in its receiver's inbox but not yet
// visible to Recv (an early beat's latch).
type stepItem struct {
	frame []byte
	eof   bool
	held  bool
	// hs marks a conn's first frame, the handshake hello: never dropped,
	// or the handshake would wait out its runtime deadline.
	hs bool
	// epoch is the step that queued the item (Send orders a step's
	// frames on a conn).
	epoch int
	// syn, the first item a dial queues, hands the conn to its listener.
	syn bool
}

// stepPipe is one FIFO queue: a conn's direction, or one lane member's
// transmissions (each delivered to every other member at once).
type stepPipe struct {
	name string
	q    []stepItem
	sent int
	conn *stepConn // nil for a lane
	to   *stepEnd  // the receiving end of a conn direction
	from *stepEnd  // the sending member of a lane
}

// stepConn is one harness conn: ends[0] dialed, ends[1] accepted;
// pipes[i] carries what ends[i] sends.
type stepConn struct {
	name     string
	ends     [2]*stepEnd
	pipes    [2]*stepPipe
	listener *stepListener
}

// stepEnd is one end of a conn, or one member of a lane. It is both a
// transport.Conn and a transport.BroadcastConn.
type stepEnd struct {
	net    *stepNet
	owner  trace.NodeID
	local  string
	remote string
	conn   *stepConn
	out    *stepPipe
	lane   *stepLane
	sig    chan struct{} // wakes Recv; capacity 1
	inbox  []stepItem
	closed bool
	// hello is who the first frame received came from: the end has
	// handshaken once it is set.
	hello trace.NodeID
	// sink, for an end the test holds, takes each frame delivered to it
	// on the stepping goroutine instead of queueing it for Recv.
	sink func(wire.Msg)
}

// stepLane is a shared medium: every member hears every other member's
// Send, each receiver losing each transmission with probability loss.
type stepLane struct {
	loss    float64
	members []*stepEnd
}

type stepListener struct {
	net     *stepNet
	owner   trace.NodeID
	addr    string
	pending []*stepEnd
	sig     chan struct{}
	closed  bool
}

// stepNet is the network: every conn, lane and listener, under one lock.
type stepNet struct {
	mu        sync.Mutex
	now       func() time.Time
	listeners map[string]*stepListener
	conns     []*stepConn
	lanes     map[string]*stepLane
	pipes     map[string]*stepPipe
	dials     map[string]int
	// cut refuses dials and drops every frame on a conn but a handshake
	// while set: a partition of the unicast mesh (a shared medium stays
	// up).
	cut bool
	// epoch is the step under way, stamped on what it queues.
	epoch int
	// activity counts the nodes' calls into the network and reads of the
	// clock: while it moves, the swarm is certainly not quiet.
	activity atomic.Uint64
	// heard is, per receiver, the Have of the last hello it was handed
	// from each sender, and bad what the send checks found.
	heard map[[2]trace.NodeID][]wire.GroupWant
	bad   []string
}

func newStepNet(now func() time.Time) *stepNet {
	return &stepNet{
		now: now, listeners: map[string]*stepListener{}, lanes: map[string]*stepLane{},
		pipes: map[string]*stepPipe{}, dials: map[string]int{},
		heard: map[[2]trace.NodeID][]wire.GroupWant{},
	}
}

// as is node id's view of the network: its Dial names its conns.
func (n *stepNet) as(id trace.NodeID) transport.Transport { return stepDialer{n, id} }

type stepDialer struct {
	net *stepNet
	id  trace.NodeID
}

func (sd stepDialer) Listen(addr string) (transport.Listener, error) {
	n := sd.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listeners[addr] != nil {
		return nil, fmt.Errorf("%q: %w", addr, transport.ErrAddrInUse)
	}
	l := &stepListener{net: n, owner: sd.id, addr: addr, sig: make(chan struct{}, 1)}
	n.listeners[addr] = l
	return l, nil
}

func (sd stepDialer) Dial(_ context.Context, addr string) (transport.Conn, error) {
	return sd.net.dial(sd.id, addr, nil)
}

// dial connects dialer to the listener at addr. A sink makes the dialing
// end one the test holds.
func (n *stepNet) dial(dialer trace.NodeID, addr string, sink func(wire.Msg)) (*stepEnd, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.listeners[addr]
	if l == nil || l.closed || n.cut {
		return nil, fmt.Errorf("%q: %w", addr, transport.ErrNoListener)
	}
	key := fmt.Sprintf("%d>%s", dialer, addr)
	n.dials[key]++
	c := &stepConn{name: fmt.Sprintf("%s#%d", key, n.dials[key])}
	for i, owner := range []trace.NodeID{dialer, l.owner} {
		e := &stepEnd{net: n, owner: owner, conn: c, sig: make(chan struct{}, 1)}
		e.out = &stepPipe{name: fmt.Sprintf("%s/%d", c.name, i), conn: c}
		c.ends[i], c.pipes[i] = e, e.out
		n.pipes[e.out.name] = e.out
	}
	c.ends[0].local, c.ends[0].remote = fmt.Sprintf("node%d", dialer), addr
	c.ends[1].local, c.ends[1].remote = addr, fmt.Sprintf("node%d", dialer)
	c.pipes[0].to, c.pipes[1].to = c.ends[1], c.ends[0]
	c.ends[0].sink = sink
	c.listener = l
	// The listener hears of the conn only when a step releases the dial:
	// what the listening node does about it then waits for what the
	// dialing node did before it to settle.
	c.pipes[0].q = []stepItem{{syn: true, epoch: n.epoch}}
	n.conns = append(n.conns, c)
	return c.ends[0], nil
}

func wake(sig chan struct{}) {
	select {
	case sig <- struct{}{}:
	default:
	}
}

func (l *stepListener) Accept(ctx context.Context) (transport.Conn, error) {
	l.net.activity.Add(1)
	for {
		l.net.mu.Lock()
		if l.closed {
			l.net.mu.Unlock()
			return nil, transport.ErrClosed
		}
		if len(l.pending) > 0 {
			e := l.pending[0]
			l.pending = l.pending[1:]
			l.net.mu.Unlock()
			return e, nil
		}
		l.net.mu.Unlock()
		select {
		case <-l.sig:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func (l *stepListener) Addr() string { return l.addr }

func (l *stepListener) Close() error {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	if !l.closed {
		l.closed = true
		delete(l.net.listeners, l.addr)
		wake(l.sig)
	}
	return nil
}

// join adds node id to the named lane, made on first use with loss.
func (n *stepNet) join(name string, loss float64, id trace.NodeID) *stepEnd {
	n.mu.Lock()
	defer n.mu.Unlock()
	ln := n.lanes[name]
	if ln == nil {
		ln = &stepLane{loss: loss}
		n.lanes[name] = ln
	}
	e := &stepEnd{net: n, owner: id, local: fmt.Sprintf("%s:%d", name, id), lane: ln, sig: make(chan struct{}, 1)}
	e.out = &stepPipe{name: e.local, from: e}
	n.pipes[e.out.name] = e.out
	ln.members = append(ln.members, e)
	return e
}

func (e *stepEnd) Send(_ context.Context, m wire.Msg) error {
	frame := wire.Encode(m)
	n := e.net
	n.activity.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	if e.conn != nil && e.out.to.closed {
		// Gone with the peer's close, as on a socket whose peer hung up:
		// this side learns of the close from the close itself, after
		// everything the peer sent before it.
		return nil
	}
	it := stepItem{frame: frame, hs: e.conn != nil && e.out.sent == 0, epoch: n.epoch}
	e.out.q = enqueue(e.out.q, it)
	e.out.sent++
	n.checkSent(e, frame)
	return nil
}

// enqueue queues it at the tail of q — but among what one step
// queued, control frames go first, data frames next, DHT frames last and
// in the order of their bytes. A node's session writer drains its
// control lane before its data lane, so whether a data frame queued
// before a control frame leaves first depends on how far the writer got;
// and a node's DHT requests and answers are sent from goroutines of
// their own. Within one step nothing is delivered, so every order the
// node could produce is as good as any other; this one is the same on
// every run. Frames of one class keep the order they were sent in.
func enqueue(q []stepItem, it stepItem) []stepItem {
	i := len(q)
	for i > 0 && q[i-1].epoch == it.epoch && !q[i-1].hs && !q[i-1].syn && !q[i-1].eof && goesAfter(q[i-1], it) {
		i--
	}
	return slices.Insert(q, i, it)
}

// goesAfter reports whether queued frame a goes after it, sent in the
// same step.
func goesAfter(a, it stepItem) bool {
	ra, rit := rank(a), rank(it)
	if ra != rit {
		return ra > rit
	}
	return ra == 2 && bytes.Compare(rpcFree(a.frame), rpcFree(it.frame)) > 0
}

// rank orders a step's frames on one conn: 0 control, 1 data, 2 DHT.
func rank(it stepItem) int {
	switch t := wire.MsgType(it.frame[2]); {
	case t.Plane() == wire.PlaneDHT:
		return 2
	case t.Class() == wire.ClassData:
		return 1
	}
	return 0
}

func (e *stepEnd) Recv(ctx context.Context) (wire.Msg, error) {
	e.net.activity.Add(1)
	for {
		e.net.mu.Lock()
		if len(e.inbox) > 0 && !e.inbox[0].held {
			it := e.inbox[0]
			e.inbox = e.inbox[1:]
			e.net.mu.Unlock()
			if it.eof {
				return nil, io.EOF
			}
			m, err := wire.Decode(it.frame)
			if err != nil {
				e.Close()
				return nil, err
			}
			return m, nil
		}
		// What was released before the close is still read, as on a
		// loopback conn; a latched frame holds Recv until it is released.
		if e.closed && len(e.inbox) == 0 {
			e.net.mu.Unlock()
			return nil, transport.ErrClosed
		}
		e.net.mu.Unlock()
		select {
		case <-e.sig:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Close ends this side: what it queued is still delivered, then its
// close; what was queued toward it is discarded.
func (e *stepEnd) Close() error {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closeLocked(e, true)
	return nil
}

func (n *stepNet) closeLocked(e *stepEnd, eof bool) {
	if e.closed {
		return
	}
	e.closed = true
	wake(e.sig)
	if e.lane != nil {
		e.lane.members = slices.DeleteFunc(e.lane.members, func(m *stepEnd) bool { return m == e })
		return
	}
	peer := e.out.to
	peer.out.q = nil
	if eof && !peer.closed {
		e.out.q = append(e.out.q, stepItem{eof: true})
	}
}

// kill cuts c: both ends close at once and nothing queued arrives.
func (n *stepNet) kill(c *stepConn) {
	for i, e := range c.ends {
		n.closeLocked(e, false)
		c.pipes[i].q = nil
	}
}

func (e *stepEnd) LocalAddr() string  { return e.local }
func (e *stepEnd) RemoteAddr() string { return e.remote }
func (e *stepEnd) Addr() string       { return e.local }

// ready lists the pipes with something to release, by name.
func (n *stepNet) ready() []*stepPipe {
	var out []*stepPipe
	for name, p := range n.pipes {
		switch {
		case len(p.q) > 0:
			out = append(out, p)
		case p.conn != nil && p.conn.ends[0].closed && p.conn.ends[1].closed:
			delete(n.pipes, name) // both ends shut and drained: gone for good
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// handshaken lists, sorted, the peers id has an open conn end with that
// has received its peer's hello.
func (n *stepNet) handshaken(id trace.NodeID) []trace.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []trace.NodeID
	for _, c := range n.conns {
		for _, e := range c.ends {
			if e.owner == id && !e.closed && e.hello != 0 && !slices.Contains(out, e.hello) {
				out = append(out, e.hello)
			}
		}
	}
	slices.Sort(out)
	return out
}

// drained reports whether every open end has taken what was released to
// it: a reader still holding a frame in its inbox is certainly not idle.
func (n *stepNet) drained() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.conns {
		for _, e := range c.ends {
			if !e.closed && len(e.inbox) > 0 && !e.inbox[0].held {
				return false
			}
		}
	}
	for _, ln := range n.lanes {
		for _, e := range ln.members {
			if len(e.inbox) > 0 && !e.inbox[0].held {
				return false
			}
		}
	}
	return true
}

// checkSent holds every frame a node puts on the network to the send-side
// invariants: a pairwise piece never goes to a peer whose last hello,
// handed to the sender, marks it held; and no frame carries an expired
// record as an answer. Caller holds n.mu.
func (n *stepNet) checkSent(e *stepEnd, frame []byte) {
	m, err := wire.Decode(frame)
	if err != nil {
		n.bad = append(n.bad, fmt.Sprintf("node %d sent an undecodable frame: %v", e.owner, err))
		return
	}
	now := protoTime(n.now())
	expired := func(what string, rec *metadata.Metadata) {
		if rec.Expired(now) {
			n.bad = append(n.bad, fmt.Sprintf("node %d resolved an expired record in a %s: %s expired at %d, now %d",
				e.owner, what, rec.URI, rec.Expires, now))
		}
	}
	switch v := m.(type) {
	case *wire.Piece:
		if e.conn != nil {
			to := e.out.to.owner
			for _, w := range n.heard[[2]trace.NodeID{e.owner, to}] {
				if w.URI == v.URI && w.HaveBit(v.Index) {
					n.bad = append(n.bad, fmt.Sprintf("node %d sent piece %d of %s to node %d, whose last hello it handled holds it",
						e.owner, v.Index, v.URI, to))
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

// stepFaults is a seed family's fault model. Each roll is per released
// frame (drop, dup, kill) or per step (early); lanes lose by their own
// rate.
type stepFaults struct {
	drop, dup, kill float64
	early           float64
	// cut is the beats during which the unicast mesh is partitioned:
	// [from, to).
	cut [2]int
}

// stepSwarm is the scheduler and the nodes it steps.
type stepSwarm struct {
	tb     testing.TB
	family string
	seed   uint64
	rng    *rng.Rand
	clk    *testutil.Clock
	net    *stepNet
	nodes  []*stepNode
	faults stepFaults
	ctx    context.Context
	cancel context.CancelFunc

	steps, beats int
	scans        int
	digest       hash.Hash
	log          []string // every step, for a failure or replay report
	stack        []byte
	// What the faults did: drops by frame type, drops a partition made,
	// and kills.
	dropped           map[wire.MsgType]int
	cutDropped, kills int
	// onDeliver, when set, sees every frame released to a node, after it
	// was handed over; onBeat runs once the ticks of a beat are fired,
	// before the swarm goes quiet — a scripted endpoint's beacon.
	onDeliver func(to trace.NodeID, from trace.NodeID, m wire.Msg)
	onBeat    func()
	// tx is what a group family measured: transmissions per verified
	// piece, for TestStep to compare across planes.
	tx float64
}

// stepNode is one daemon of the swarm and the handles that drive it.
type stepNode struct {
	id   trace.NodeID
	cfg  Config
	d    *Daemon
	tick chan time.Time
	stop func() // ends Run and waits for it
}

func newStepSwarm(tb testing.TB, family string, seed uint64, faults stepFaults) *stepSwarm {
	clk := testutil.NewClock()
	s := &stepSwarm{
		tb: tb, family: family, seed: seed, rng: rng.New(seed), clk: clk,
		net: newStepNet(clk.Now), faults: faults, digest: sha256.New(),
		stack:   make([]byte, 1<<20),
		dropped: map[wire.MsgType]int{},
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
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

// start builds a node from cfg (its transport the swarm's) and runs it
// until the swarm is quiet: listening, its configured links dialed.
func (s *stepSwarm) start(cfg Config) *stepNode {
	s.tb.Helper()
	cfg.Transport = s.net.as(cfg.ID)
	n := &stepNode{id: cfg.ID, cfg: cfg, tick: make(chan time.Time)}
	clock := func() time.Time {
		s.net.activity.Add(1)
		return s.clk.Now()
	}
	d, err := newDaemon(cfg, clock, n.tick)
	if err != nil {
		s.tb.Fatal(err)
	}
	n.d = d
	ctx, cancel := context.WithCancel(s.ctx)
	ran := start(ctx, d)
	var once sync.Once
	n.stop = func() {
		once.Do(func() {
			cancel()
			<-ran
		})
	}
	if i := slices.IndexFunc(s.nodes, func(o *stepNode) bool { return o.id == cfg.ID }); i >= 0 {
		s.nodes[i] = n
	} else {
		s.nodes = append(s.nodes, n)
	}
	s.logf("start node %d", cfg.ID)
	s.quiet()
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

func (s *stepSwarm) logf(format string, args ...any) {
	line := fmt.Sprintf("step %d beat %d: %s", s.steps, s.beats, fmt.Sprintf(format, args...))
	fmt.Fprintln(s.digest, line)
	s.log = append(s.log, line)
}

// fail stops the test with the seed's reproduction line and its last steps.
func (s *stepSwarm) fail(format string, args ...any) {
	s.tb.Helper()
	run := s.tb.Name()
	if strings.HasPrefix(s.family, "TestStep/") {
		run = fmt.Sprintf("%s/seed=%d", s.family, s.seed) // the replay subtest reruns seeds too
	}
	s.tb.Fatalf("%s\nreplay: go test -run '%s$' ./internal/daemon\nlast steps:\n  %s",
		fmt.Sprintf(format, args...), run, strings.Join(s.log[max(0, len(s.log)-32):], "\n  "))
}

// Digest is the step log's hash so far.
func (s *stepSwarm) Digest() string { return fmt.Sprintf("%x", s.digest.Sum(nil)[:8]) }

func (s *stepSwarm) roll(p float64) bool { return p > 0 && s.rng.Float64() < p }

// step takes one scheduler step, waits for quiet and checks.
func (s *stepSwarm) step() {
	s.tb.Helper()
	s.steps++
	s.net.mu.Lock()
	s.net.epoch = s.steps
	ready := s.net.ready()
	s.net.mu.Unlock()
	if len(ready) == 0 || s.roll(s.faults.early) {
		var latch *stepPipe
		if len(ready) > 0 {
			latch = ready[s.rng.Intn(len(ready))]
		}
		s.beat(latch)
	} else {
		s.release(ready[s.rng.Intn(len(ready))])
	}
	s.check()
}

// beat advances the clock one beat and fires every running node's tick,
// the head of latch (if any) held in its receiver's inbox until it is
// over. Two frames, so that the reader handed the first is still reading
// when the swarm is checked.
func (s *stepSwarm) beat(latch *stepPipe) {
	s.beats++
	var held *stepEnd
	if latch != nil && latch.conn != nil && !latch.to.closed && latch.to.sink == nil && !latch.q[0].syn {
		s.net.mu.Lock()
		held = latch.to
		n := min(len(latch.q), 2)
		for _, it := range latch.q[:n] {
			it.held = true
			held.inbox = append(held.inbox, it)
		}
		latch.q = latch.q[n:]
		s.net.mu.Unlock()
		s.logf("latch %s", latch.name)
	}
	s.net.mu.Lock()
	s.net.cut = s.beats >= s.faults.cut[0] && s.beats < s.faults.cut[1]
	s.net.mu.Unlock()
	s.clk.Advance(stepBeat)
	now := s.clk.Now()
	s.logf("beat cut=%v", s.net.cut)
	for _, n := range s.nodes {
		select {
		case n.tick <- now:
		case <-time.After(10 * time.Second):
			s.fail("node %d never took its tick", n.id)
		}
	}
	if s.onBeat != nil {
		s.onBeat()
	}
	s.quiet()
	if held == nil {
		return
	}
	for {
		var after []func()
		s.net.mu.Lock()
		i := slices.IndexFunc(held.inbox, func(it stepItem) bool { return it.held })
		if i >= 0 {
			held.inbox[i].held = false
			if !held.closed { // else its reader drops it: nothing was handled
				after = s.handLocked(latch, held, held.inbox[i])
			}
			wake(held.sig)
		}
		s.net.mu.Unlock()
		if i < 0 {
			return
		}
		s.settle(after)
		s.check()
	}
}

// handLocked records one copy of it handed to e off p — the first frame
// on a conn end is its handshake, a hello's bitmaps are what its receiver
// serves against — and returns what is to run once s.net.mu is released:
// e's sink, if the test holds e, and onDeliver. Caller holds s.net.mu.
func (s *stepSwarm) handLocked(p *stepPipe, e *stepEnd, it stepItem) (after []func()) {
	s.logf("  to %s %x", e.local, sha256.Sum256(rpcFree(it.frame)))
	if it.eof {
		if e.sink != nil { // the scripted end hears the close and hangs up
			s.net.closeLocked(e, false)
		}
		return nil
	}
	if h, ok := decodeHello(it.frame); ok && p.conn != nil {
		if e.hello == 0 {
			e.hello = h.From
		}
		s.net.heard[[2]trace.NodeID{e.owner, h.From}] = h.Have
	}
	if e.sink == nil && s.onDeliver == nil {
		return nil
	}
	m, err := wire.Decode(it.frame)
	if err != nil {
		return nil
	}
	from := p.from
	if p.conn != nil {
		from = p.conn.ends[0]
		if from == e {
			from = p.conn.ends[1]
		}
	}
	if e.sink != nil {
		after = append(after, func() { e.sink(m) })
	}
	if s.onDeliver != nil {
		after = append(after, func() { s.onDeliver(e.owner, from.owner, m) })
	}
	return after
}

// rpcFree is frame as the step log hashes it: a DHT frame with its RPC
// ID zeroed. A lookup's parallel requests draw their IDs in whatever
// order their goroutines run — the one thing a node puts on the network
// that its state does not decide.
func rpcFree(frame []byte) []byte {
	if len(frame) < 3 || wire.MsgType(frame[2]).Plane() != wire.PlaneDHT {
		return frame
	}
	m, err := wire.Decode(frame)
	if err != nil {
		return frame
	}
	switch v := m.(type) {
	case *wire.FindNode:
		v.RPCID = 0
	case *wire.FindValue:
		v.RPCID = 0
	case *wire.StoreValue:
		v.RPCID = 0
	case *wire.NodesReply:
		v.RPCID = 0
	}
	return wire.Encode(m)
}

func decodeHello(frame []byte) (*wire.Hello, bool) {
	if len(frame) < 3 || wire.MsgType(frame[2]) != wire.TypeHello {
		return nil, false
	}
	h, err := wire.DecodeHello(frame)
	return h, err == nil
}

// release takes the head of a conn direction and delivers it, or
// suffers a fault instead. What a scripted endpoint (the test's flooder)
// sends goes out whole, back to back, each frame faulted on its own; so
// does a lane member's queue, each transmission lost at each receiver by
// the lane's rate.
func (s *stepSwarm) release(p *stepPipe) {
	s.net.mu.Lock()
	var after []func()
	if p.conn == nil {
		for _, it := range p.q {
			for _, m := range p.from.lane.members {
				if m != p.from && !s.roll(p.from.lane.loss) {
					after = append(after, s.handLocked(p, m, it)...)
					m.inbox = append(m.inbox, it)
					wake(m.sig)
				}
			}
		}
		s.logf("deliver %s ×%d", p.name, len(p.q))
		p.q = nil
		s.net.mu.Unlock()
		s.settle(after)
		return
	}
	burst := p.conn.ends[0].sink != nil && p.conn.ends[0].out == p
	after = s.releaseLocked(p)
	// A close ends a burst and goes in a step of its own: the receiving
	// node's teardown must not race its writer still draining the replies.
	for burst && len(p.q) > 0 && !p.q[0].eof {
		after = append(after, s.releaseLocked(p)...)
	}
	s.net.mu.Unlock()
	s.settle(after)
}

// releaseLocked takes the head of conn direction p and delivers it, or
// drops it, delivers it twice or kills the conn instead. Caller holds
// s.net.mu.
func (s *stepSwarm) releaseLocked(p *stepPipe) (after []func()) {
	it := p.q[0]
	p.q = p.q[1:]
	if it.syn {
		s.logf("accept %s", p.conn.name)
		if l := p.conn.listener; l.closed || s.net.listeners[l.addr] != l {
			s.net.kill(p.conn) // refused: nobody listens there any more
		} else {
			l.pending = append(l.pending, p.to)
			wake(l.sig)
		}
		return nil
	}
	var t wire.MsgType
	if !it.eof {
		t = wire.MsgType(it.frame[2])
	}
	fate := "deliver"
	if !it.eof && !it.hs {
		switch r := s.rng.Float64(); {
		case s.net.cut:
			fate = "drop"
			s.cutDropped++
		case r < s.faults.kill:
			fate = "kill"
		case r < s.faults.kill+s.faults.drop:
			fate = "drop"
		case r < s.faults.kill+s.faults.drop+s.faults.dup:
			fate = "dup"
		}
	}
	s.logf("%s %s %v", fate, p.name, t)
	switch fate {
	case "kill":
		s.kills++
		s.net.kill(p.conn)
	case "drop":
		s.dropped[t]++
	default:
		copies := 1
		if fate == "dup" {
			copies = 2
		}
		for e, c := p.to, 0; c < copies && !e.closed; c++ {
			after = append(after, s.handLocked(p, e, it)...)
			if e.sink == nil {
				e.inbox = append(e.inbox, it)
				wake(e.sig)
			}
		}
	}
	return after
}

// settle runs what a release left to do off the lock, then waits for
// quiet.
func (s *stepSwarm) settle(after []func()) {
	for _, f := range after {
		f()
	}
	s.quiet()
}

// quiet returns once the swarm has nothing left to do without a step: no
// node has called into the network or read the clock since the last
// look, every released frame is taken, and — only then, it is the costly
// part — no goroutine of the live stack is runnable, by one look at every
// stack.
func (s *stepSwarm) quiet() {
	s.tb.Helper()
	deadline := time.Now().Add(20 * time.Second)
	wait := 5 * time.Microsecond
	for seen := s.net.activity.Load(); ; {
		time.Sleep(wait)
		now := s.net.activity.Load()
		if now != seen {
			seen = now
			continue
		}
		if s.net.drained() && s.idle() {
			return
		}
		if time.Now().After(deadline) {
			s.fail("the swarm never went quiet:\n%s", s.stack)
		}
		// A look at every stack costs as much as a few hundred
		// microseconds of waiting: after one that found work, wait longer.
		wait = min(max(2*wait, 100*time.Microsecond), time.Millisecond)
	}
}

// idle reports whether every goroutine but the caller's, among those
// running this module's code, is parked on a channel, a select, a
// condition or a wait group — the goroutinesIn rule applied to every stack
// at once. Anything else — running, runnable, in a syscall, queued on a
// lock, or parked by the collector in the middle of its work — is busy.
func (s *stepSwarm) idle() bool {
	s.scans++
	buf := s.stack[:runtime.Stack(s.stack, true)]
	first := true
	for len(buf) > 0 {
		var g []byte
		if i := bytes.Index(buf, []byte("\n\n")); i >= 0 {
			g, buf = buf[:i], buf[i+2:]
		} else {
			g, buf = buf, nil
		}
		if first { // the caller's own
			first = false
			continue
		}
		open, close := bytes.IndexByte(g, '['), bytes.IndexByte(g, ']')
		if open < 0 || close < open || !bytes.Contains(g, []byte("repro/internal/")) {
			continue
		}
		state := g[open+1 : close]
		if !slices.ContainsFunc(parked, func(p []byte) bool { return bytes.HasPrefix(state, p) }) {
			return false
		}
	}
	return true
}

// parked are the goroutine states in which only another goroutine, or
// the scheduler's own next step, can wake a goroutine of the swarm.
var parked = [][]byte{
	[]byte("chan receive"), []byte("chan send"), []byte("select"),
	[]byte("sync.Cond.Wait"), []byte("sync.WaitGroup.Wait"),
}

// check holds every running node to the state invariants, after a step.
func (s *stepSwarm) check() {
	s.tb.Helper()
	s.net.mu.Lock()
	bad := s.net.bad
	s.net.bad = nil
	s.net.mu.Unlock()
	if len(bad) > 0 {
		s.fail("%s", strings.Join(bad, "\n"))
	}
	now := protoTime(s.clk.Now())
	for _, n := range s.nodes {
		d := n.d
		peers := d.mgr.Peers()
		if open := s.net.handshaken(n.id); !slices.Equal(peers, open) {
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
		if len(problems) > 0 {
			s.fail("node %d: %s", n.id, strings.Join(problems, "; "))
		}
	}
}

// until steps until done holds, failing after limit steps.
func (s *stepSwarm) until(limit int, what string, done func() bool) {
	s.tb.Helper()
	for end := s.steps + limit; !done(); {
		if s.steps >= end {
			s.fail("no %s in %d steps (%d beats)", what, limit, s.beats)
		}
		s.step()
	}
}

// beatsPass steps until that many more beats have gone by.
func (s *stepSwarm) beatsPass(beats int) {
	s.tb.Helper()
	end := s.beats + beats
	s.until(100000, "beats", func() bool { return s.beats >= end })
}

// await runs f — a call that waits on the network, such as a DHT lookup
// or an on-demand dial — beside the scheduler, stepping until it returns.
func (s *stepSwarm) await(limit int, what string, f func()) {
	s.tb.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
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
	s.logf("%s", what)
	f()
	s.quiet()
	s.check()
}

// The harness's ends satisfy both link interfaces.
var (
	_ transport.Conn          = (*stepEnd)(nil)
	_ transport.BroadcastConn = (*stepEnd)(nil)
)

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
	tb.Logf("%s: %d steps, %d beats, digest %s, %d stack scans", key, s.steps, s.beats, s.Digest(), s.scans)
	v, loaded := stepDigests.LoadOrStore(key, s.log)
	first := v.([]string)
	if !loaded || slices.Equal(first, s.log) {
		return
	}
	i := 0
	for i < len(first) && i < len(s.log) && first[i] == s.log[i] {
		i++
	}
	lo := max(0, i-8)
	tb.Fatalf("%s does not replay; the runs part at line %d:\nfirst:\n  %s\nthen:\n  %s", key, i,
		strings.Join(first[lo:min(len(first), i+4)], "\n  "), strings.Join(s.log[lo:min(len(s.log), i+4)], "\n  "))
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
	faults := stepFaults{drop: 0.2, dup: 0.05, kill: 0.01, early: 0.05}
	if seed%2 == 0 {
		faults.cut = [2]int{3, 4 + int(seed%5)}
	}
	s := newStepSwarm(tb, "TestStep/chaos", seed, faults)
	handed := 0
	s.onDeliver = func(to, _ trace.NodeID, m wire.Msg) {
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
	if s.dropped[wire.TypePiece]+s.kills > 0 && ss.Transport.PiecesSent <= 16 {
		s.fail("%d piece frames dropped and %d kills, yet the seed sent only %d pieces", s.dropped[wire.TypePiece], s.kills, ss.Transport.PiecesSent)
	}
	if s.dropped[wire.TypeHello]+s.dropped[wire.TypePiece] == 0 {
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
	conn   *stepEnd
	on     bool
	sent   int
	busies []*wire.Busy
	since  time.Time // when the flood started, on the hand clock
}

func newFlooder(s *stepSwarm, addr string, frame wire.Msg) *flooder {
	f := &flooder{s: s, addr: addr, frame: frame, on: true, since: s.clk.Now()}
	s.onBeat = f.beat
	s.act("the flooder dials", f.beat)
	return f
}

func (f *flooder) beat() {
	if !f.on {
		return
	}
	f.s.net.mu.Lock()
	dead := f.conn == nil || f.conn.closed
	f.s.net.mu.Unlock()
	if dead {
		c, err := f.s.net.dial(99, f.addr, func(m wire.Msg) {
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
	for i := 0; i < 5*stepFloodRate*int(stepBeat/time.Second); i++ {
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
	s := newStepSwarm(tb, "TestStep/flood", seed, stepFaults{drop: 0.15, dup: 0.05, early: 0.25, cut: [2]int{from, from + 6}})
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
	case s.dropped[wire.TypeHello] == 0:
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
	s := newStepSwarm(tb, family, seed, stepFaults{})
	var nodes []*Daemon
	var addrs []string
	for id := trace.NodeID(1); id <= groupNodes; id++ {
		c := stepCfg(id)
		// A view lives twenty beats: at 44 % loss a member misses all of a
		// peer's group hellos in four beats one time in 27 (0.44⁴), and a group
		// that flaps hands its pieces to the pairwise path.
		c.LivenessWindow = 20 * stepBeat
		c.ListenAddr = fmt.Sprintf("n%d", id)
		c.PeerAddrs = slices.Clone(addrs)
		if id == 1 {
			c.InternetAccess, c.PublishFiles = true, 1
			c.FileSize, c.PieceSize = groupPieces*groupPieceSize, groupPieceSize
		}
		c.EnableBcast = true
		c.Broadcast = s.net.join("radio", groupLoss, id)
		if fec {
			c.Symbols = s.net.join("symbols", groupLoss, id)
			c.EnableFEC, c.SymbolSize = true, groupSymbolSize
			// A relay rarely reaches a member the sender's own broadcast
			// missed; fresh top-ups do the repair.
			c.RelayBudget = 1
		}
		nodes = append(nodes, s.start(c).d)
		addrs = append(addrs, c.ListenAddr)
	}
	leeches := nodes[1:]
	s.until(20000, "group confirmation on the lossy medium", func() bool {
		for _, d := range nodes {
			if st := d.bcast.Stats(); !st.Confirmed || len(st.Group) != groupNodes {
				return false
			}
		}
		return true
	})
	s.act("query f0 at every downloader", func() {
		for _, d := range leeches {
			d.AddQuery("f0")
		}
	})
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
	s := newStepSwarm(tb, "TestStep/restart", seed, stepFaults{drop: 0.1, dup: 0.05, early: 0.05})
	sc := stepCfg(1)
	sc.ListenAddr, sc.InternetAccess, sc.PublishFiles = "seed", true, 1
	stepFile(&sc)
	seeder := s.start(sc).d
	disk := func(n uint64) store.FS {
		return fault.WrapFS(store.OSFS{}, fault.FSConfig{Seed: 100*seed + n, ShortWrite: 0.1})
	}
	lc := stepCfg(2)
	lc.PeerAddrs, lc.Queries = []string{"seed"}, []string{"f0"}
	lc.DataDir, lc.StoreFS, lc.StoreCompactEvery = tb.TempDir(), disk(1), 4096
	leech := s.start(lc).d
	uri := metadata.URIFor(0)
	at := uint64(1 + s.rng.Intn(15))
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
	s := newStepSwarm(tb, "TestStep/expiry", seed, stepFaults{early: 0.05})
	const publisher = "mbtd"
	rec := metadata.NewSynthetic(0, "f0 short-lived file", publisher, "", 8*1024, 1024,
		protoTime(s.clk.Now()), simtime.Duration(12*stepBeat/time.Millisecond), workload.KeyFor(publisher))
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
	s.until(20000, "the record's expiry", func() bool { return rec.Expired(protoTime(s.clk.Now())) })
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
