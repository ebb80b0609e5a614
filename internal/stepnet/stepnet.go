// Package stepnet is the stepped network: live daemons on one hand-driven
// clock, over a network the harness owns. A Send only queues; nothing
// moves until the scheduler takes a step, and a step is one of:
//
//   - release the head of one queue (FIFO per conn direction) to its
//     receiver — or, by a seeded roll, drop it, deliver it twice, or kill
//     its conn instead; a lane member's queue, and what a scripted end
//     sent, go out whole;
//   - when nothing is queued — or, by a seeded roll, while something is,
//     to model a slow link — advance the clock one beat and fire every
//     node's tick. An early beat first latches the head of one queue, up
//     to two frames, into their receiver's inbox, invisible until the
//     beat is over: frames already on the wire when the beat expired
//     their sender.
//
// After each step the scheduler waits until the swarm is quiet: every
// frame it released taken by a reader, and no unit of the live stack's
// work outstanding (internal/quiet: the nodes count their own hand-offs,
// and a goroutine parked in this network's Recv or Accept has given its
// unit back). Then it runs the caller's per-step check. Which queue goes next and every
// fault come from one seeded generator, and every name the scheduler
// sorts by (a conn is its dialer, the address it dialed and the ordinal
// of that dial) is independent of goroutine timing, so a seed replays
// exactly: the step log hashes to the same digest on every run, plain or
// under -race.
//
// The package knows nothing of the daemon: a node is a transport (As), a
// lane membership (Join), a tick channel (SetTick) and the goroutines it
// runs under Go.
package stepnet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/quiet"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Faults is a run's fault model. Each roll is per released frame (Drop,
// Dup, Kill) or per step (Early); lanes lose by their own rate.
type Faults struct {
	Drop, Dup, Kill float64
	Early           float64
	// Cut is the beats during which the unicast mesh is partitioned:
	// [from, to). A shared medium stays up.
	Cut [2]int
}

// item is one thing in flight: an encoded frame, or its sender's close
// (eof). A held item is in its receiver's inbox but not yet visible to
// Recv (an early beat's latch).
type item struct {
	frame []byte
	eof   bool
	held  bool
	// hs marks a conn's first frame, the handshake hello: never dropped,
	// or the handshake would wait out its runtime deadline.
	hs bool
	// epoch is the step that queued the item (Send orders a step's frames
	// on a conn).
	epoch int
	// syn, the first item a dial queues, hands the conn to its listener.
	syn bool
}

// pipe is one FIFO queue: a conn's direction, or one lane member's
// transmissions (each delivered to every other member at once).
type pipe struct {
	name string
	q    []item
	sent int
	conn *conn // nil for a lane
	to   *End  // the receiving end of a conn direction
	from *End  // the sending member of a lane
}

// conn is one harness conn: ends[0] dialed, ends[1] accepted; pipes[i]
// carries what ends[i] sends.
type conn struct {
	name     string
	ends     [2]*End
	pipes    [2]*pipe
	listener *listener
}

// End is one end of a conn, or one member of a lane: both a
// transport.Conn and a transport.BroadcastConn.
type End struct {
	net    *Net
	owner  trace.NodeID
	local  string
	remote string
	conn   *conn
	out    *pipe
	lane   *lane
	sig    chan struct{} // wakes Recv; capacity 1
	inbox  []item
	closed bool
	// waiting is set while a Recv is parked on the end; notice while a
	// wake-up other than a frame — its close, a latch let go on a closed
	// end — is on its way to that Recv, counted in Net.pending.
	waiting, notice bool
	// hello is who the first frame received came from: the end has
	// handshaken once it is set.
	hello trace.NodeID
	// sink, for an end a script holds, takes each frame delivered to it on
	// the stepping goroutine instead of queueing it for Recv.
	sink func(wire.Msg)
}

// lane is a shared medium: every member hears every other member's Send,
// each receiver losing each transmission with probability loss.
type lane struct {
	loss    float64
	members []*End
}

type listener struct {
	net     *Net
	owner   trace.NodeID
	addr    string
	pending []*End
	sig     chan struct{}
	closed  bool
}

type tickNode struct {
	id trace.NodeID
	ch chan<- time.Time
}

// Net is the network, its hand clock and the scheduler that steps it.
// Steps, Beats and the fault tallies are the run's to read; Faults, the
// hooks and Scan are the caller's to set between steps.
type Net struct {
	mu        sync.Mutex
	listeners map[string]*listener
	conns     []*conn
	lanes     map[string]*lane
	// ready is every pipe with something queued, sorted by name: the
	// scheduler's choice is an index into it.
	ready []*pipe
	dials map[string]int
	// cut refuses dials and drops every frame on a conn but a handshake
	// while set.
	cut bool
	// epoch is the step under way, stamped on what it queues.
	epoch int
	// pending counts the items released to a reader (or a listener) that
	// it has not taken yet, over open ends, and the notices (End.notice)
	// on their way to a parked Recv.
	pending int
	ticks   []tickNode

	clockMu sync.Mutex
	now     time.Time

	work *quiet.Work
	// activity counts the nodes' calls into the network and reads of the
	// clock; the stack-scan cross-check (Scan) holds it still.
	activity atomic.Uint64

	Faults       Faults
	rng          *rng.Rand
	Steps, Beats int
	digest       hash.Hash
	log          []string
	keepLog      bool
	// What the faults did: drops by frame type, drops a partition made,
	// and kills.
	Dropped           map[wire.MsgType]int
	CutDropped, Kills int

	// Sent sees every frame put on the network, under the network's lock:
	// to is the receiving node of a conn, -1 on a lane.
	Sent func(from, to trace.NodeID, frame []byte)
	// Handed sees every copy of a frame handed to a node, under the lock,
	// before the node can read it.
	Handed func(to, from trace.NodeID, onConn bool, frame []byte)
	// Delivered sees every frame released to a node, after it was handed
	// over, off the lock.
	Delivered func(to, from trace.NodeID, m wire.Msg)
	// BeforeBeat runs as a beat begins (Beats counts it already), before
	// the clock moves and the ticks fire — a script's change of who is in
	// range. OnBeat runs once the ticks are fired, before the swarm goes
	// quiet — a scripted endpoint's beacon.
	BeforeBeat, OnBeat func()
	// Check holds the swarm to the caller's invariants after every step.
	Check func()
	// Scan cross-checks the counted quiet against a look at every
	// goroutine's stack; Scans counts the looks.
	Scan  bool
	Scans int
	stack []byte
}

// Beat is how far the hand clock moves per beat, and a stepped node's
// hello interval. Every deadline the runtime still keeps — a handshake's
// (the liveness window) and a DHT RPC's (half of it) — is then seconds
// of wall time, far beyond what any step takes, so no fault the network
// injects leaves a goroutine waiting on one.
const Beat = time.Second

// New is an empty network whose clock starts at a fixed instant and
// moves Beat per beat; seed drives the scheduler and every fault roll.
// keepLog keeps the whole step log (for a replay's line-by-line
// comparison) instead of its last lines.
func New(seed uint64, keepLog bool) *Net {
	return &Net{
		listeners: map[string]*listener{}, lanes: map[string]*lane{}, dials: map[string]int{},
		now: time.Unix(1_700_000_000, 0), work: quiet.New(),
		rng: rng.New(seed), digest: sha256.New(), keepLog: keepLog,
		Dropped: map[wire.MsgType]int{},
	}
}

// Work is the counter every node on the network shares.
func (n *Net) Work() *quiet.Work { return n.work }

// Rand is the scheduler's generator, for a script's seeded draws.
func (n *Net) Rand() *rng.Rand { return n.rng }

// Now reads the hand clock: the nodes' clock.
func (n *Net) Now() time.Time {
	n.activity.Add(1)
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	return n.now
}

// Go runs f on a goroutine of the live stack — a node's Run, or a call a
// script makes beside the scheduler — holding one unit of work, which it
// gives back when f returns.
func (n *Net) Go(f func()) {
	n.work.Add(1)
	go func() {
		defer n.work.Done()
		f()
	}()
}

// Start runs node id — run, a daemon's Run on a beat woken by tick — on
// a goroutine of the live stack under ctx, fires tick at every beat, and
// lets the swarm settle. stop ends the node and waits for it; a node
// started again under the same id keeps its place in the beat's order.
func (n *Net) Start(ctx context.Context, id trace.NodeID, tick chan<- time.Time, run func(context.Context) error) (stop func(), err error) {
	ctx, cancel := context.WithCancel(ctx)
	ran := make(chan struct{})
	n.Go(func() {
		defer close(ran)
		run(ctx)
	})
	n.setTick(id, tick)
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-ran
			n.setTick(id, nil)
		})
	}
	return stop, n.Quiet()
}

// setTick names node id's tick channel, fired at every beat; nil stops
// firing it (a node that is down).
func (n *Net) setTick(id trace.NodeID, ch chan<- time.Time) {
	if i := slices.IndexFunc(n.ticks, func(t tickNode) bool { return t.id == id }); i >= 0 {
		n.ticks[i].ch = ch
		return
	}
	n.ticks = append(n.ticks, tickNode{id, ch})
}

// Logf appends one line to the step log.
func (n *Net) Logf(format string, args ...any) {
	line := fmt.Sprintf("step %d beat %d: %s", n.Steps, n.Beats, fmt.Sprintf(format, args...))
	fmt.Fprintln(n.digest, line)
	n.log = append(n.log, line)
	if !n.keepLog && len(n.log) > 64 {
		n.log = slices.Delete(n.log, 0, 32)
	}
}

// Log is the step log: every line, or the last ones.
func (n *Net) Log() []string { return n.log }

// Digest is the step log's hash so far.
func (n *Net) Digest() string { return fmt.Sprintf("%x", n.digest.Sum(nil)[:8]) }

// As is node id's view of the network: its Dial names its conns.
func (n *Net) As(id trace.NodeID) transport.Transport { return dialer{n, id} }

type dialer struct {
	net *Net
	id  trace.NodeID
}

func (d dialer) Work() *quiet.Work { return d.net.work }

func (d dialer) Listen(addr string) (transport.Listener, error) {
	n := d.net
	n.activity.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listeners[addr] != nil {
		return nil, fmt.Errorf("%q: %w", addr, transport.ErrAddrInUse)
	}
	l := &listener{net: n, owner: d.id, addr: addr, sig: make(chan struct{}, 1)}
	n.listeners[addr] = l
	return l, nil
}

func (d dialer) Dial(_ context.Context, addr string) (transport.Conn, error) {
	return d.net.Dial(d.id, addr, nil)
}

// Dial connects dialer to the listener at addr. A sink makes the dialing
// end one a script holds.
func (n *Net) Dial(dialer trace.NodeID, addr string, sink func(wire.Msg)) (*End, error) {
	n.activity.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.listeners[addr]
	if l == nil || l.closed || n.cut {
		return nil, fmt.Errorf("%q: %w", addr, transport.ErrNoListener)
	}
	key := fmt.Sprintf("%d>%s", dialer, addr)
	n.dials[key]++
	c := &conn{name: fmt.Sprintf("%s#%d", key, n.dials[key])}
	for i, owner := range []trace.NodeID{dialer, l.owner} {
		e := &End{net: n, owner: owner, conn: c, sig: make(chan struct{}, 1)}
		e.out = &pipe{name: fmt.Sprintf("%s/%d", c.name, i), conn: c}
		c.ends[i], c.pipes[i] = e, e.out
	}
	c.ends[0].local, c.ends[0].remote = fmt.Sprintf("node%d", dialer), addr
	c.ends[1].local, c.ends[1].remote = addr, fmt.Sprintf("node%d", dialer)
	c.pipes[0].to, c.pipes[1].to = c.ends[1], c.ends[0]
	c.ends[0].sink = sink
	c.listener = l
	// The listener hears of the conn only when a step releases the dial:
	// what the listening node does about it then waits for what the
	// dialing node did before it to settle.
	n.setQ(c.pipes[0], []item{{syn: true, epoch: n.epoch}})
	n.conns = append(n.conns, c)
	return c.ends[0], nil
}

// setQ replaces p's queue, keeping the ready index. Caller holds n.mu.
func (n *Net) setQ(p *pipe, q []item) {
	was := len(p.q) > 0
	p.q = q
	if now := len(q) > 0; now != was {
		i, found := slices.BinarySearchFunc(n.ready, p.name, func(x *pipe, name string) int { return strings.Compare(x.name, name) })
		switch {
		case now:
			n.ready = slices.Insert(n.ready, i, p)
		case found:
			n.ready = slices.Delete(n.ready, i, i+1)
		}
	}
}

// show makes it visible in e's inbox and wakes e's reader. Caller holds
// n.mu.
func (n *Net) show(e *End, it item) {
	e.inbox = append(e.inbox, it)
	if !e.closed {
		n.pending++
	}
	wake(e.sig)
}

// rouse wakes e's reader for something that is no frame of its own — a
// close, a latch let go — counting the wake-up while a Recv is parked
// there. Caller holds n.mu.
func (n *Net) rouse(e *End) {
	if e.waiting && !e.notice {
		e.notice = true
		n.pending++
	}
	wake(e.sig)
}

func wake(sig chan struct{}) {
	select {
	case sig <- struct{}{}:
	default:
	}
}

func (l *listener) Accept(ctx context.Context) (transport.Conn, error) {
	n := l.net
	parked := false
	for {
		n.mu.Lock()
		if parked { // woken: the caller's unit back
			n.work.Add(1)
			parked = false
		}
		if l.closed {
			n.mu.Unlock()
			return nil, transport.ErrClosed
		}
		if len(l.pending) > 0 {
			e := l.pending[0]
			l.pending = l.pending[1:]
			n.pending--
			n.mu.Unlock()
			return e, nil
		}
		parked = true
		n.work.Done()
		n.mu.Unlock()
		select {
		case <-l.sig:
		case <-ctx.Done():
			n.work.Add(1)
			return nil, ctx.Err()
		}
	}
}

func (l *listener) Addr() string { return l.addr }

func (l *listener) Close() error {
	n := l.net
	n.activity.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if !l.closed {
		l.closed = true
		n.pending -= len(l.pending)
		delete(n.listeners, l.addr)
		wake(l.sig)
	}
	return nil
}

// Join adds node id to the named lane, made on first use with loss.
func (n *Net) Join(name string, loss float64, id trace.NodeID) *End {
	n.mu.Lock()
	defer n.mu.Unlock()
	ln := n.lanes[name]
	if ln == nil {
		ln = &lane{loss: loss}
		n.lanes[name] = ln
	}
	e := &End{net: n, owner: id, local: fmt.Sprintf("%s:%d", name, id), lane: ln, sig: make(chan struct{}, 1)}
	e.out = &pipe{name: e.local, from: e}
	ln.members = append(ln.members, e)
	return e
}

func (e *End) Send(_ context.Context, m wire.Msg) error {
	frame := wire.Encode(m)
	n := e.net
	n.activity.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed {
		return transport.ErrClosed
	}
	to := trace.NodeID(-1)
	if e.conn != nil {
		if e.out.to.closed {
			// Gone with the peer's close, as on a socket whose peer hung up:
			// this side learns of the close from the close itself, after
			// everything the peer sent before it.
			return nil
		}
		to = e.out.to.owner
	}
	it := item{frame: frame, hs: e.conn != nil && e.out.sent == 0, epoch: n.epoch}
	n.setQ(e.out, enqueue(e.out.q, it))
	e.out.sent++
	if n.Sent != nil {
		n.Sent(e.owner, to, frame)
	}
	return nil
}

// enqueue queues it at the tail of q — but among what one step queued,
// control frames go first, data frames next, DHT frames last and in the
// order of their bytes. A node's session writer drains its control lane
// before its data lane, so whether a data frame queued before a control
// frame leaves first depends on how far the writer got; and a node's DHT
// requests and answers are sent from goroutines of their own. Within one
// step nothing is delivered, so every order the node could produce is as
// good as any other; this one is the same on every run. Frames of one
// class keep the order they were sent in.
func enqueue(q []item, it item) []item {
	i := len(q)
	for i > 0 && q[i-1].epoch == it.epoch && !q[i-1].hs && !q[i-1].syn && !q[i-1].eof && goesAfter(q[i-1], it) {
		i--
	}
	return slices.Insert(q, i, it)
}

// goesAfter reports whether queued frame a goes after it, sent in the
// same step.
func goesAfter(a, it item) bool {
	ra, rit := rank(a), rank(it)
	if ra != rit {
		return ra > rit
	}
	return ra == 2 && bytes.Compare(rpcFree(a.frame), rpcFree(it.frame)) > 0
}

// rank orders a step's frames on one conn: 0 control, 1 data, 2 DHT.
func rank(it item) int {
	switch t := wire.MsgType(it.frame[2]); {
	case t.Plane() == wire.PlaneDHT:
		return 2
	case t.Class() == wire.ClassData:
		return 1
	}
	return 0
}

// Recv hands the caller the next visible frame, a close, or ctx's end.
// The caller holds a unit of work through the call, and Recv gives it
// back while it is parked — under the network's lock, so that a quiet
// swarm's readers are all registered as waiting — and takes it again on
// waking.
func (e *End) Recv(ctx context.Context) (wire.Msg, error) {
	n := e.net
	parked := false
	for {
		n.mu.Lock()
		e.waiting = false
		if parked {
			n.work.Add(1)
			parked = false
		}
		if e.notice {
			e.notice = false
			n.pending--
		}
		if len(e.inbox) > 0 && !e.inbox[0].held {
			it := e.inbox[0]
			e.inbox = e.inbox[1:]
			if !e.closed {
				n.pending--
			}
			n.mu.Unlock()
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
			n.mu.Unlock()
			return nil, transport.ErrClosed
		}
		e.waiting, parked = true, true
		n.work.Done()
		n.mu.Unlock()
		select {
		case <-e.sig:
		case <-ctx.Done():
			n.mu.Lock()
			e.waiting = false
			if e.notice {
				e.notice = false
				n.pending--
			}
			n.work.Add(1)
			n.mu.Unlock()
			return nil, ctx.Err()
		}
	}
}

// Close ends this side: what it queued is still delivered, then its
// close; what was queued toward it is discarded.
func (e *End) Close() error {
	n := e.net
	n.activity.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closeLocked(e, true)
	return nil
}

// Closed reports whether e has been closed, by either side.
func (e *End) Closed() bool {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	return e.closed
}

func (n *Net) closeLocked(e *End, eof bool) {
	if e.closed {
		return
	}
	e.closed = true
	for _, it := range e.inbox {
		if !it.held {
			n.pending--
		}
	}
	n.rouse(e)
	if e.lane != nil {
		e.lane.members = slices.DeleteFunc(e.lane.members, func(m *End) bool { return m == e })
		return
	}
	peer := e.out.to
	n.setQ(peer.out, nil)
	if eof && !peer.closed {
		n.setQ(e.out, append(e.out.q, item{eof: true}))
	}
}

// kill cuts c: both ends close at once and nothing queued arrives.
func (n *Net) kill(c *conn) {
	for i, e := range c.ends {
		n.closeLocked(e, false)
		n.setQ(c.pipes[i], nil)
	}
}

func (e *End) LocalAddr() string  { return e.local }
func (e *End) RemoteAddr() string { return e.remote }
func (e *End) Addr() string       { return e.local }

// Handshaken lists, sorted, the peers id has an open conn end with that
// has received its peer's hello.
func (n *Net) Handshaken(id trace.NodeID) []trace.NodeID {
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

func (n *Net) roll(p float64) bool { return p > 0 && n.rng.Float64() < p }

// Step takes one scheduler step, waits for quiet and checks.
func (n *Net) Step() error {
	n.Steps++
	n.mu.Lock()
	n.epoch = n.Steps
	k := len(n.ready)
	early := k == 0 || n.roll(n.Faults.Early)
	var p *pipe // the pipe released, or the one an early beat latches
	if k > 0 {
		p = n.ready[n.rng.Intn(k)]
	}
	n.mu.Unlock()
	var err error
	if early {
		err = n.beatOnce(p)
	} else {
		err = n.release(p)
	}
	if err == nil {
		n.check()
	}
	return err
}

func (n *Net) check() {
	if n.Check != nil {
		n.Check()
	}
}

// beatOnce advances the clock one beat and fires every running node's
// tick, the head of latch (if any) held in its receiver's inbox until it
// is over. Two frames, so that the reader handed the first is still
// reading when the swarm is checked.
func (n *Net) beatOnce(latch *pipe) error {
	n.Beats++
	var held *End
	if latch != nil && latch.conn != nil && !latch.to.closed && latch.to.sink == nil && !latch.q[0].syn {
		n.mu.Lock()
		held = latch.to
		k := min(len(latch.q), 2)
		for _, it := range latch.q[:k] {
			it.held = true
			held.inbox = append(held.inbox, it)
		}
		n.setQ(latch, latch.q[k:])
		n.mu.Unlock()
		n.Logf("latch %s", latch.name)
	}
	if n.BeforeBeat != nil {
		n.BeforeBeat()
	}
	n.mu.Lock()
	n.cut = n.Beats >= n.Faults.Cut[0] && n.Beats < n.Faults.Cut[1]
	n.mu.Unlock()
	n.clockMu.Lock()
	n.now = n.now.Add(Beat)
	now := n.now
	n.clockMu.Unlock()
	n.Logf("beat cut=%v", n.cut)
	var timer *time.Timer
	for _, t := range n.ticks {
		if t.ch == nil {
			continue
		}
		n.work.Add(1) // the node's beat gives it back
		select {
		case t.ch <- now:
			continue
		default:
		}
		if timer == nil {
			timer = time.NewTimer(10 * time.Second)
			defer timer.Stop()
		}
		select {
		case t.ch <- now:
		case <-timer.C:
			n.work.Done()
			return fmt.Errorf("node %d never took its tick", t.id)
		}
	}
	if n.OnBeat != nil {
		n.OnBeat()
	}
	if err := n.Quiet(); err != nil {
		return err
	}
	if held == nil {
		return nil
	}
	for {
		var after []func()
		n.mu.Lock()
		i := slices.IndexFunc(held.inbox, func(it item) bool { return it.held })
		if i >= 0 {
			held.inbox[i].held = false
			if !held.closed { // else its reader drops it: nothing was handled
				n.pending++
				after = n.handLocked(latch, held, held.inbox[i])
				wake(held.sig)
			} else {
				n.rouse(held)
			}
		}
		n.mu.Unlock()
		if i < 0 {
			return nil
		}
		if err := n.settle(after); err != nil {
			return err
		}
		n.check()
	}
}

// handLocked records one copy of it handed to e off p — the first frame
// on a conn end is its handshake — and returns what is to run once n.mu
// is released: e's sink, if a script holds e, and Delivered. Caller
// holds n.mu.
func (n *Net) handLocked(p *pipe, e *End, it item) (after []func()) {
	n.Logf("  to %s %x", e.local, sha256.Sum256(rpcFree(it.frame)))
	if it.eof {
		if e.sink != nil { // the scripted end hears the close and hangs up
			n.closeLocked(e, false)
		}
		return nil
	}
	from := p.from
	if p.conn != nil {
		from = p.conn.ends[0]
		if from == e {
			from = p.conn.ends[1]
		}
		if e.hello == 0 {
			if h, ok := decodeHello(it.frame); ok {
				e.hello = h.From
			}
		}
	}
	if n.Handed != nil {
		n.Handed(e.owner, from.owner, p.conn != nil, it.frame)
	}
	if e.sink == nil && n.Delivered == nil {
		return nil
	}
	m, err := wire.Decode(it.frame)
	if err != nil {
		return nil
	}
	if e.sink != nil {
		after = append(after, func() { e.sink(m) })
	}
	if n.Delivered != nil {
		after = append(after, func() { n.Delivered(e.owner, from.owner, m) })
	}
	return after
}

// rpcFree is frame as the step log hashes it: a DHT frame with its RPC ID
// zeroed. A lookup's parallel requests draw their IDs in whatever order
// their goroutines run — the one thing a node puts on the network that
// its state does not decide.
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

// release takes the head of a conn direction and delivers it, or suffers
// a fault instead. What a scripted end sends goes out whole, back to
// back, each frame faulted on its own; so does a lane member's queue,
// each transmission lost at each receiver by the lane's rate.
func (n *Net) release(p *pipe) error {
	n.mu.Lock()
	var after []func()
	if p.conn == nil {
		for _, it := range p.q {
			for _, m := range p.from.lane.members {
				if m != p.from && !n.roll(p.from.lane.loss) {
					after = append(after, n.handLocked(p, m, it)...)
					n.show(m, it)
				}
			}
		}
		n.Logf("deliver %s ×%d", p.name, len(p.q))
		n.setQ(p, nil)
		n.mu.Unlock()
		return n.settle(after)
	}
	burst := p.conn.ends[0].sink != nil && p.conn.ends[0].out == p
	after = n.releaseLocked(p)
	// A close ends a burst and goes in a step of its own: the receiving
	// node's teardown must not race its writer still draining the replies.
	for burst && len(p.q) > 0 && !p.q[0].eof {
		after = append(after, n.releaseLocked(p)...)
	}
	n.mu.Unlock()
	return n.settle(after)
}

// releaseLocked takes the head of conn direction p and delivers it, or
// drops it, delivers it twice or kills the conn instead. Caller holds
// n.mu.
func (n *Net) releaseLocked(p *pipe) (after []func()) {
	it := p.q[0]
	n.setQ(p, p.q[1:])
	if it.syn {
		n.Logf("accept %s", p.conn.name)
		if l := p.conn.listener; l.closed || n.listeners[l.addr] != l {
			n.kill(p.conn) // refused: nobody listens there any more
		} else {
			l.pending = append(l.pending, p.to)
			n.pending++
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
		switch r := n.rng.Float64(); {
		case n.cut:
			fate = "drop"
			n.CutDropped++
		case r < n.Faults.Kill:
			fate = "kill"
		case r < n.Faults.Kill+n.Faults.Drop:
			fate = "drop"
		case r < n.Faults.Kill+n.Faults.Drop+n.Faults.Dup:
			fate = "dup"
		}
	}
	n.Logf("%s %s %v", fate, p.name, t)
	switch fate {
	case "kill":
		n.Kills++
		n.kill(p.conn)
	case "drop":
		n.Dropped[t]++
	default:
		copies := 1
		if fate == "dup" {
			copies = 2
		}
		for e, c := p.to, 0; c < copies && !e.closed; c++ {
			after = append(after, n.handLocked(p, e, it)...)
			if e.sink == nil {
				n.show(e, it)
			}
		}
	}
	return after
}

// settle runs what a release left to do off the lock, then waits for
// quiet.
func (n *Net) settle(after []func()) error {
	for _, f := range after {
		f()
	}
	return n.Quiet()
}

// Quiet returns once the swarm has nothing left to do without a step:
// every released frame taken and no unit of work outstanding. With Scan
// set it then holds that against the stacks: within a second every
// goroutine of the live stack must be parked, with no call into the
// network or read of the clock on the way.
func (n *Net) Quiet() error {
	var timer *time.Timer
	for {
		n.mu.Lock()
		pending := n.pending
		n.mu.Unlock()
		if pending == 0 && n.work.Count() == 0 {
			break
		}
		if timer == nil {
			timer = time.NewTimer(20 * time.Second)
			defer timer.Stop()
		}
		select {
		case <-n.work.Idle():
		case <-timer.C:
			return fmt.Errorf("the swarm never went quiet: %d frames untaken, %d units of work outstanding", pending, n.work.Count())
		}
	}
	if n.Scan {
		return n.scan()
	}
	return nil
}

// scan is the counted quiet's cross-check: the old quiet, one look at
// every stack.
func (n *Net) scan() error {
	if n.stack == nil {
		n.stack = make([]byte, 1<<20)
	}
	seen := n.activity.Load()
	for deadline := time.Now().Add(time.Second); ; {
		if n.idle() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("counted quiet, but a goroutine of the live stack is still busy:\n%s", n.stack)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if now := n.activity.Load(); now != seen || n.work.Count() != 0 {
		return fmt.Errorf("counted quiet, but the live stack went on: %d calls into the network or the clock, %d units of work", now-seen, n.work.Count())
	}
	return nil
}

// idle reports whether every goroutine but the caller's, among those
// running this module's code, is parked on a channel, a select, a
// condition or a wait group. Anything else — running, runnable, in a
// syscall, queued on a lock, or parked by the collector in the middle of
// its work — is busy.
func (n *Net) idle() bool {
	n.Scans++
	buf := n.stack[:runtime.Stack(n.stack, true)]
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

// The network's ends satisfy both link interfaces.
var (
	_ transport.Conn          = (*End)(nil)
	_ transport.BroadcastConn = (*End)(nil)
)
