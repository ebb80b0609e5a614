// Package peer manages live protocol sessions over a transport.
//
// A Manager owns every connection of one daemon: it performs the hello
// handshake that identifies the node on the other end, keeps a peer
// table keyed by trace.NodeID, beacons hellos at the protocol interval
// (§III-B: at least once per second), at once when Kick reports that
// the node's interests changed and to one peer alone when Ack answers a
// piece it sent, and expires peers that fall silent past
// the 5-second hello window. Inbound connections arrive via
// Serve, outbound links are maintained by Connect, which redials with
// exponential backoff when a link drops.
//
// The peer table is hash-sharded: peers spread across Config.Shards
// independent buckets, each with its own lock, so hot paths touching
// different peers (a send racing a deliver racing an accept) never
// contend on one global mutex. Aggregate views (Peers, Table, Stats)
// stitch the shards together; the MaxPeers cap stays exact through one
// shared atomic count. Activity counters are plain atomics and take no
// lock at all.
//
// Ownership rules: the Manager owns its Conns — callers never touch a
// Conn directly. Each session has exactly one receive goroutine and one
// writer goroutine, the only caller of Conn.Send once the handshake is
// done. Send and BroadcastExcept only enqueue on the session's own two
// lanes (lanes.go) and never block, so handler callbacks may call Send,
// Kick or BroadcastExcept from any goroutine, including from inside a
// callback, and a peer that stops reading fills its own lanes and dies
// at its own write deadline without delaying anyone else's frames.
// Callbacks run on session goroutines, one message at a time per peer,
// and must not block for long (they stall only that peer's inbox).
package peer

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/limit"
	"repro/internal/metadata"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Protocol timing defaults. The beacon pair is the paper's (§III-B).
const (
	// DefaultHelloInterval: every node beacons at least once per second.
	DefaultHelloInterval = time.Second
	// DefaultLivenessWindow: a node is a neighbour while a hello from it
	// was heard in the past 5 seconds; a peer silent that long is gone.
	DefaultLivenessWindow = 5 * time.Second
	// DefaultShards is the peer-table shard count when Config.Shards is
	// zero. Sixteen keeps per-shard occupancy low even at swarm scale
	// while costing only a few empty maps on small nodes.
	DefaultShards = 16
	// DefaultQueueLen is the per-session, per-class send lane cap when
	// Config.QueueLen is zero.
	DefaultQueueLen = 256
)

// Handler receives every decoded message from live peers, whatever its
// kind — the daemon's one type switch routes it to the engine that
// consumes it. From identifies the sending peer (already handshaken).
// Calls are serialized per peer but concurrent across peers.
type Handler interface {
	Handle(from trace.NodeID, msg wire.Msg)
}

// Config parameterizes a Manager.
type Config struct {
	// Self is this node's identity, announced in every hello.
	Self trace.NodeID
	// Hello supplies the node's current beacon content: active query
	// strings, the URIs being downloaded, and the per-file have-bitmaps
	// advertising which pieces are already held. Called on every beacon;
	// must be safe for concurrent use.
	Hello func() (queries []string, downloading []metadata.URI, have []wire.GroupWant)
	// Handler receives peer messages; nil handlers drop them.
	Handler Handler
	// HelloInterval and LivenessWindow default to the protocol constants
	// above. The liveness window is also the handshake deadline (the wait
	// for a new connection's first hello) and the flap threshold: a
	// session that dies younger than it counts as a flap, and Connect
	// backs off harder for each consecutive flap instead of hammering an
	// unstable address.
	HelloInterval  time.Duration
	LivenessWindow time.Duration
	// MaxPeers bounds the peer table: a handshake that would add a new
	// peer beyond the cap is rejected and its connection closed, so one
	// node in a large swarm cannot accumulate sessions without limit.
	// Additional sessions to peers already in the table are always
	// accepted (redials must win against their dying predecessors).
	// Zero means unbounded.
	MaxPeers int
	// Shards is the peer-table shard count (default DefaultShards).
	// One shard reproduces the old single-lock behavior; benchmarks
	// compare the two.
	Shards int
	// Backoff shapes Connect's redial schedule.
	Backoff transport.Backoff
	// InboundRate, when positive, caps each peer's inbound message
	// dispatch at this many messages per second sustained (admission
	// control). Hellos still refresh liveness before the limiter — a
	// flooder is shed, not expired — and Busy frames bypass it entirely
	// so backpressure always gets through. The bucket holds 2×rate, which
	// absorbs legitimate short spikes. Zero disables.
	InboundRate float64
	// QueueLen caps each session's send lanes, per frame class (default
	// DefaultQueueLen); a frame offered to a full lane is dropped.
	QueueLen int
	// OnShed, when set, is called once per message dropped by admission
	// control, from the shedding peer's session goroutine — the
	// daemon's hook for answering Busy. Must not block.
	OnShed func(from trace.NodeID, t wire.MsgType)
	// Now is the clock every time-dependent decision reads — liveness,
	// flaps, admission buckets, ConnectOnce's redial schedule, what of the
	// beat is due (default time.Now). Handshake deadlines and Connect's
	// backoff sleeps stay on the runtime clock; the beat's ticker is the
	// caller's (Run).
	Now func() time.Time
	// Logf, when set, receives one line per connection event.
	Logf func(format string, args ...any)
}

// Info describes one live peer for stats endpoints.
type Info struct {
	ID        trace.NodeID  `json:"id"`
	Addr      string        `json:"addr"`
	Inbound   bool          `json:"inbound"`
	LastHello time.Duration `json:"last_hello_ago"`
	Sessions  int           `json:"sessions"`
	// Flaps counts this peer's recent short-lived sessions; it decays
	// to zero once the link holds steady.
	Flaps int `json:"flaps"`
}

// Stats counts manager activity; all fields are cumulative.
type Stats struct {
	HellosSent uint64 `json:"hellos_sent"`
	// HellosKicked counts the beacon rounds a Kick brought forward; the
	// frames they sent are in HellosSent like any other beacon's.
	HellosKicked uint64 `json:"hellos_kicked"`
	// HellosAcked counts the directed hellos Ack queued — one peer each,
	// no round; over the daemon's pieces_verified it is how much of a
	// download was clocked by acknowledgements instead of beacons.
	HellosAcked   uint64 `json:"hellos_acked"`
	HellosRecv    uint64 `json:"hellos_recv"`
	MetadataSent  uint64 `json:"metadata_sent"`
	MetadataRecv  uint64 `json:"metadata_recv"`
	PiecesSent    uint64 `json:"pieces_sent"`
	PiecesRecv    uint64 `json:"pieces_recv"`
	GroupSent     uint64 `json:"group_sent"`
	GroupRecv     uint64 `json:"group_recv"`
	DHTSent       uint64 `json:"dht_sent"`
	DHTRecv       uint64 `json:"dht_recv"`
	Accepts       uint64 `json:"accepts"`
	Dials         uint64 `json:"dials"`
	Reconnects    uint64 `json:"reconnects"`
	Drops         uint64 `json:"drops"`
	Expiries      uint64 `json:"expiries"`
	HandshakeFail uint64 `json:"handshake_failures"`
	Flaps         uint64 `json:"flaps"`
	// PeersRejected counts handshakes refused because the peer table was
	// at MaxPeers capacity.
	PeersRejected uint64 `json:"peers_rejected"`
	// InboundShed counts messages dropped by per-peer admission control.
	InboundShed uint64 `json:"inbound_shed"`
	// BusySent / BusyRecv count 429-style backpressure frames.
	BusySent uint64 `json:"busy_sent"`
	BusyRecv uint64 `json:"busy_recv"`
	// DialsSuppressed counts ConnectOnce attempts refused because the
	// address's last failure has not yet waited out its backoff step.
	DialsSuppressed uint64 `json:"dials_suppressed"`
}

// counters is the lock-free backing for Stats.
type counters struct {
	// sent and recv count frames per wire type: put on the medium, and
	// dispatched to the handler. Stats folds them by the kind table's
	// plane.
	sent, recv    [wire.NumTypes]atomic.Uint64
	hellosKicked  atomic.Uint64
	hellosAcked   atomic.Uint64
	accepts       atomic.Uint64
	dials         atomic.Uint64
	reconnects    atomic.Uint64
	drops         atomic.Uint64
	expiries      atomic.Uint64
	handshakeFail atomic.Uint64
	flaps         atomic.Uint64
	peersRejected atomic.Uint64
	inboundShed   atomic.Uint64
	dialsSuppr    atomic.Uint64
	// queueDrops counts frames that never reached a conn: refused by a
	// full lane, or still queued when their session died.
	queueDrops [wire.NumClasses]atomic.Uint64
}

// planeTotal sums one plane's share of a per-type counter array.
func planeTotal(byType *[wire.NumTypes]atomic.Uint64, p wire.Plane) (n uint64) {
	for t := range byType {
		if wire.MsgType(t).Plane() == p {
			n += byType[t].Load()
		}
	}
	return n
}

// ErrUnknownPeer reports a Send to a peer with no live session.
var ErrUnknownPeer = errors.New("peer: no live session")

// ErrQueueFull reports a Send dropped because the peer's lane for the
// frame's class was at Config.QueueLen.
var ErrQueueFull = errors.New("peer: send queue full")

// ErrTableFull reports a handshake rejected because the peer table is at
// Config.MaxPeers capacity.
var ErrTableFull = errors.New("peer: table full")

// ErrDialSuppressed reports a ConnectOnce refused because the address
// failed recently and its next permitted attempt is still ahead.
var ErrDialSuppressed = errors.New("peer: dial suppressed, address failed recently")

// session is one handshaken connection.
type session struct {
	sid     uint64
	peer    trace.NodeID
	conn    transport.Conn
	inbound bool
	started time.Time
	out     *lanes
}

// flapInfo tracks one peer's recent short-lived sessions.
type flapInfo struct {
	count int
	last  time.Time
}

// entry is the table's one record of a live peer. It exists exactly
// while the peer has a session: register makes it with the first
// session, and whoever removes the last one (unregister, expire, Close)
// removes the entry with it — so there is no liveness stamp and no
// admission bucket without a session behind it, and peerCount is the
// number of entries.
type entry struct {
	sessions  map[uint64]*session
	lastHello time.Time
	// limiter is the peer's inbound admission bucket; nil with no
	// InboundRate. Dying with the entry, it cannot be grown by a churning
	// flooder that does not also hold a table slot.
	limiter *limit.Bucket
}

// redial is ConnectOnce's record of one address that refused a dial: how
// many steps of the backoff schedule its failures have climbed and the
// earliest instant the next attempt may go out. A successful dial
// deletes it; expire forgets it once the address has gone undialed for
// four liveness windows past that instant.
type redial struct {
	fails int
	next  time.Time
}

// shard is one bucket of the peer table; both maps are guarded by its
// own mutex. flaps outlives the sessions it scores, so it is not part of
// the entry.
type shard struct {
	mu    sync.Mutex
	peers map[trace.NodeID]*entry
	flaps map[trace.NodeID]*flapInfo
}

func newShard() *shard {
	return &shard{
		peers: make(map[trace.NodeID]*entry),
		flaps: make(map[trace.NodeID]*flapInfo),
	}
}

// Manager is the daemon's connection owner. Construct with NewManager.
type Manager struct {
	cfg Config

	// paused suspends the radio: no beacons go out and inbound messages
	// are dropped before dispatch, so a paused node looks exactly like a
	// node that walked out of range. Sessions are left to expire.
	paused atomic.Bool
	// kick (capacity 1) is the coalescing Kick signal Run selects on.
	kick chan struct{}

	nextSID atomic.Uint64
	// peerCount tracks distinct peers across all shards; register keeps
	// the MaxPeers cap exact by incrementing first and rolling back on
	// overflow, so two concurrent handshakes in different shards cannot
	// both squeeze past the bound.
	peerCount atomic.Int64
	shards    []*shard
	ctrs      counters

	redialMu sync.Mutex
	redials  map[string]redial
}

// NewManager returns a manager with defaults applied.
func NewManager(cfg Config) *Manager {
	if cfg.HelloInterval <= 0 {
		cfg.HelloInterval = DefaultHelloInterval
	}
	if cfg.LivenessWindow <= 0 {
		cfg.LivenessWindow = DefaultLivenessWindow
	}
	if cfg.Hello == nil {
		cfg.Hello = func() ([]string, []metadata.URI, []wire.GroupWant) { return nil, nil, nil }
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Manager{
		cfg: cfg, kick: make(chan struct{}, 1), shards: make([]*shard, cfg.Shards),
		redials: make(map[string]redial),
	}
	for i := range m.shards {
		m.shards[i] = newShard()
	}
	return m
}

// shardFor maps a peer ID to its shard. Node IDs are often sequential,
// so the index mixes the bits first (SplitMix64's multiplier) rather
// than taking a bare modulo.
func (m *Manager) shardFor(id trace.NodeID) *shard {
	h := uint64(int64(id)) * 0x9e3779b97f4a7c15
	return m.shards[(h>>32)%uint64(len(m.shards))]
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// helloMsg builds the current beacon.
func (m *Manager) helloMsg() *wire.Hello {
	queries, downloading, have := m.cfg.Hello()
	return &wire.Hello{
		From:        m.cfg.Self,
		Heard:       m.Peers(),
		Queries:     queries,
		Downloading: downloading,
		Have:        have,
	}
}

// Run is the node's beat until ctx ends: it wakes on tick — once per
// HelloInterval, from the one ticker its caller arms — and at once when
// Kick asks, reads the clock once, and runs the peer round on that
// reading: expire, then beacon unless paused. A kicked wake-up restarts
// the interval — reset is the ticker's Reset — so a kick moves a beacon
// forward instead of adding one, and every wake-up runs the whole round,
// so a stream of kicks cannot starve expiry. rest, when set, is
// whatever else the node does once per beat: it follows the round, on the
// same reading, at every tick — and at a kicked wake-up that finds a whole
// interval gone by the clock since rest last ran, so kicks cannot starve
// it either. The round only enqueues, so no peer's link can hold the beat
// up. Returns ctx's error.
func (m *Manager) Run(ctx context.Context, tick <-chan time.Time, reset func(time.Duration), rest func(now time.Time)) error {
	rested := m.cfg.Now()
	for {
		kicked := false
		select {
		case <-tick:
		case <-m.kick:
			kicked = true
			reset(m.cfg.HelloInterval)
			select {
			case <-tick: // a tick that fired before the restart
			default:
			}
		case <-ctx.Done():
			return ctx.Err()
		}
		now := m.cfg.Now()
		m.expire(now)
		if !m.paused.Load() { // a kick while paused is spent, not owed at resume
			m.BroadcastExcept(nil)
			if kicked {
				m.ctrs.hellosKicked.Add(1)
			}
		}
		if rest != nil && (!kicked || now.Sub(rested) >= m.cfg.HelloInterval) {
			rested = now
			rest(now)
		}
	}
}

// Kick asks Run to beacon now instead of at the next tick — the daemon's
// signal that what the hello advertises (a query, a download) just
// changed. Kicks coalesce: any number of them before Run gets to the
// next round cost one beacon. It never blocks, whether or not Run is
// running.
func (m *Manager) Kick() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// Ack queues one hello for peer id alone, right now — the daemon's
// acknowledgement that a piece from id took effect, the new have-bitmap
// being the point. It is no beacon round: nobody else hears it, the
// ticker keeps its phase, HellosKicked does not count it, and it leaves
// the queries out — an ack asks for the next piece, not for records to be
// answered again. Nothing goes out while paused; a refusal (no session, a
// full lane) is left to the next beacon.
func (m *Manager) Ack(id trace.NodeID) {
	if m.paused.Load() {
		return
	}
	h := m.helloMsg()
	h.Queries = nil
	if m.Send(id, h) == nil {
		m.ctrs.hellosAcked.Add(1)
	}
}

// SetPaused suspends (true) or resumes (false) the radio: while paused
// the manager neither beacons nor dispatches inbound messages, so to
// every peer this node has simply fallen silent and expires from their
// tables — the scenario hook for scripted attendance churn. Sessions
// are not torn down here; liveness expiry and redial handle the rest.
func (m *Manager) SetPaused(p bool) { m.paused.Store(p) }

// Paused reports whether the radio is suspended.
func (m *Manager) Paused() bool { return m.paused.Load() }

// Serve accepts inbound connections until ctx ends or the listener
// fails.
func (m *Manager) Serve(ctx context.Context, lis transport.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := lis.Accept(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		m.ctrs.accepts.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.runSession(ctx, conn, true)
		}()
	}
}

// Connect maintains an outbound link to addr: dial with backoff,
// handshake, pump messages, and redial when the link drops. A link
// that flaps — sessions dying younger than the liveness window — is
// demoted: each consecutive flap adds one more step of the backoff
// schedule before the redial, so an unstable or hostile address cannot
// consume the daemon in a reconnect storm. It returns only when ctx ends.
func (m *Manager) Connect(ctx context.Context, tr transport.Transport, addr string) error {
	first := true
	consecFlaps := 0
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		conn, err := transport.DialBackoff(ctx, tr, addr, m.cfg.Backoff)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		m.ctrs.dials.Add(1)
		if !first {
			m.ctrs.reconnects.Add(1)
		}
		first = false
		started := m.cfg.Now()
		m.runSession(ctx, conn, false)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if m.cfg.Now().Sub(started) < m.cfg.LivenessWindow {
			consecFlaps++
			delay := m.cfg.Backoff.Delay(consecFlaps - 1)
			m.logf("peer: link to %s flapped (%d in a row); demoted, redialing in %v",
				addr, consecFlaps, delay)
			timer.Reset(delay)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		} else {
			consecFlaps = 0
			m.logf("peer: link to %s dropped; redialing", addr)
		}
	}
}

// ConnectOnce dials addr once and runs a single session until it drops
// or ctx ends — no backoff loop, no redial. It is the DHT's
// dial-on-demand primitive: a lookup that learns a contact outside the
// current peer set brings up a transient link just long enough to
// exchange RPCs, and lets liveness expiry reap it.
// With no loop of its own to space retries, it keeps Connect's schedule
// per address instead: each failed dial pushes the address's next
// permitted attempt out one more Backoff step, calls before that instant
// fail fast with ErrDialSuppressed instead of hammering a dead contact —
// which is what stops DHT dial-on-demand storms — and a dial that
// succeeds clears the record (how long the transient session then lives
// says nothing about the address).
func (m *Manager) ConnectOnce(ctx context.Context, tr transport.Transport, addr string) error {
	m.redialMu.Lock()
	suppressed := m.cfg.Now().Before(m.redials[addr].next)
	m.redialMu.Unlock()
	if suppressed {
		m.ctrs.dialsSuppr.Add(1)
		return fmt.Errorf("%s: %w", addr, ErrDialSuppressed)
	}
	conn, err := tr.Dial(ctx, addr)
	m.redialMu.Lock()
	switch {
	case err == nil:
		delete(m.redials, addr)
	case ctx.Err() == nil:
		// A canceled context is our doing, not evidence the address is
		// dead; only real dial failures climb the schedule.
		r := m.redials[addr]
		r.next = m.cfg.Now().Add(m.cfg.Backoff.Delay(r.fails))
		r.fails++
		m.redials[addr] = r
	}
	m.redialMu.Unlock()
	if err != nil {
		return err
	}
	m.ctrs.dials.Add(1)
	m.runSession(ctx, conn, false)
	return ctx.Err()
}

// runSession handshakes conn and pumps its messages until it dies; the
// session's writer runs inside the call.
func (m *Manager) runSession(ctx context.Context, conn transport.Conn, inbound bool) {
	peerID, firstHello, err := m.handshake(ctx, conn)
	if err != nil {
		m.ctrs.handshakeFail.Add(1)
		m.logf("peer: handshake with %s failed: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	s, err := m.register(peerID, conn, inbound)
	if err != nil {
		m.ctrs.peersRejected.Add(1)
		m.logf("peer: rejecting node %d (%s): %v", peerID, conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	m.logf("peer: session %d with node %d up (%s, inbound=%v)",
		s.sid, peerID, conn.RemoteAddr(), inbound)
	wctx, stopWriter := context.WithCancel(ctx)
	written := make(chan struct{})
	go func() {
		defer close(written)
		m.writeLoop(wctx, s)
	}()
	m.deliver(peerID, firstHello)
	for {
		msg, err := conn.Recv(ctx)
		if err != nil {
			m.unregister(s)
			stopWriter()
			<-written
			m.ctrs.drops.Add(1)
			m.logf("peer: session %d with node %d down: %v", s.sid, peerID, err)
			return
		}
		m.deliver(peerID, msg)
	}
}

// writeLoop is the session's writer: it drains the lanes, control before
// data, into the conn until the session ends. A send failure closes the
// conn, which the receive side observes and unregisters — a peer that
// stops reading dies here, at its transport's write deadline, alone.
func (m *Manager) writeLoop(ctx context.Context, s *session) {
	for {
		msg, ok := s.out.pop()
		if !ok {
			select {
			case <-s.out.wake:
				continue
			case <-ctx.Done():
				return
			}
		}
		if err := s.conn.Send(ctx, msg); err != nil {
			if ctx.Err() == nil {
				m.logf("peer: send %v to node %d: %v", msg.Type(), s.peer, err)
			}
			s.conn.Close()
			return
		}
		m.ctrs.sent[msg.Type()].Add(1)
	}
}

// handshake announces ourselves and waits for the peer's first hello.
func (m *Manager) handshake(ctx context.Context, conn transport.Conn) (trace.NodeID, *wire.Hello, error) {
	hctx, cancel := context.WithTimeout(ctx, m.cfg.LivenessWindow)
	defer cancel()
	if err := conn.Send(hctx, m.helloMsg()); err != nil {
		return 0, nil, fmt.Errorf("send hello: %w", err)
	}
	m.ctrs.sent[wire.TypeHello].Add(1)
	for {
		msg, err := conn.Recv(hctx)
		if err != nil {
			return 0, nil, fmt.Errorf("await hello: %w", err)
		}
		h, ok := msg.(*wire.Hello)
		if !ok {
			// A peer racing data before its hello is out of spec;
			// keep waiting for the identity, drop the data.
			continue
		}
		if h.From == m.cfg.Self {
			return 0, nil, fmt.Errorf("peer: connected to self (node %d)", h.From)
		}
		return h.From, h, nil
	}
}

// register adds a handshaken session to the peer table. A session that
// would grow the table past MaxPeers is refused: the capacity bound is
// on distinct peers, so extra sessions to known peers always land.
func (m *Manager) register(peerID trace.NodeID, conn transport.Conn, inbound bool) (*session, error) {
	sh := m.shardFor(peerID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.peers[peerID]
	if e == nil {
		n := m.peerCount.Add(1)
		if m.cfg.MaxPeers > 0 && n > int64(m.cfg.MaxPeers) {
			m.peerCount.Add(-1)
			return nil, fmt.Errorf("%w (%d peers)", ErrTableFull, n-1)
		}
		e = &entry{sessions: make(map[uint64]*session)}
		if m.cfg.InboundRate > 0 {
			e.limiter = limit.NewBucket(m.cfg.InboundRate, 0, m.cfg.Now)
		}
		sh.peers[peerID] = e
	}
	s := &session{
		sid: m.nextSID.Add(1), peer: peerID, conn: conn, inbound: inbound,
		started: m.cfg.Now(), out: newLanes(m.cfg.QueueLen),
	}
	e.sessions[s.sid] = s
	e.lastHello = s.started
	return s, nil
}

// end closes a session that has left the table: its conn, and its
// lanes, whose queued frames are counted as drops of their class.
func (m *Manager) end(s *session) {
	for c, n := range s.out.close() {
		m.ctrs.queueDrops[c].Add(uint64(n))
	}
	s.conn.Close()
}

// unregister removes a dead session and ends it, counting a flap when
// the session died young.
func (m *Manager) unregister(s *session) {
	now := m.cfg.Now()
	sh := m.shardFor(s.peer)
	sh.mu.Lock()
	// The entry may be gone (expire or Close got there first) or be a
	// newer one that never held this session; only emptying it drops it.
	if e := sh.peers[s.peer]; e != nil {
		delete(e.sessions, s.sid)
		if len(e.sessions) == 0 {
			delete(sh.peers, s.peer)
			m.peerCount.Add(-1)
		}
	}
	if now.Sub(s.started) < m.cfg.LivenessWindow {
		fi := sh.flaps[s.peer]
		if fi == nil {
			fi = &flapInfo{}
			sh.flaps[s.peer] = fi
		}
		fi.count++
		fi.last = now
		m.ctrs.flaps.Add(1)
	}
	sh.mu.Unlock()
	m.end(s)
}

// deliver updates liveness and dispatches one message through
// admission control. Both read the sender's table entry; a frame that
// lost the race with its peer's removal finds none, and is then neither
// a liveness refresh nor — with admission control on — dispatched: there
// is no bucket to charge it to, and minting one would outlive the peer.
func (m *Manager) deliver(from trace.NodeID, msg wire.Msg) {
	if m.paused.Load() {
		return // radio off: the message was never heard
	}
	t := msg.Type()
	hello := t == wire.TypeHello
	// Backpressure bypasses the limiter: a peer shedding our traffic must
	// always be able to tell us so.
	limited := m.cfg.InboundRate > 0 && t.Plane() != wire.PlaneBusy
	if hello || limited {
		sh := m.shardFor(from)
		sh.mu.Lock()
		e := sh.peers[from]
		if e != nil && hello {
			// Liveness refresh happens before admission control: shedding
			// a flooder's hellos keeps it cheap, but must not expire it
			// from the table — a shed peer is overloaded-away, not gone.
			e.lastHello = m.cfg.Now()
		}
		sh.mu.Unlock()
		if limited {
			if e == nil {
				return
			}
			if !e.limiter.Allow() {
				m.ctrs.inboundShed.Add(1)
				if m.cfg.OnShed != nil {
					m.cfg.OnShed(from, t)
				}
				return
			}
		}
	}
	m.ctrs.recv[t].Add(1)
	if m.cfg.Handler != nil {
		m.cfg.Handler.Handle(from, msg)
	}
}

// pick returns the newest session for peer id, the one Send uses. The
// shard lock must be held.
func (sh *shard) pick(id trace.NodeID) *session {
	e := sh.peers[id]
	if e == nil {
		return nil
	}
	var best *session
	for _, s := range e.sessions {
		if best == nil || s.sid > best.sid {
			best = s
		}
	}
	return best
}

// Send queues one message for a live peer on its newest session and
// returns at once. The errors are ErrUnknownPeer (no session) and
// ErrQueueFull (the frame is dropped and counted against its class);
// a later hello re-drives the exchange, so most callers ignore both.
func (m *Manager) Send(id trace.NodeID, msg wire.Msg) error {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s := sh.pick(id)
	sh.mu.Unlock()
	if s == nil {
		return fmt.Errorf("node %d: %w", id, ErrUnknownPeer)
	}
	err := s.out.push(msg)
	if err == ErrQueueFull { // bare: shedding is a hot path under overload
		m.ctrs.queueDrops[msg.Type().Class()].Add(1)
	}
	return err
}

// BroadcastExcept queues a hello right now for every live peer (once per
// peer, even with duplicate sessions) except those for which a non-nil
// skip returns true, without waiting on any of their links. Run's
// rounds skip nobody; the daemon's stall re-drive skips the peers inside
// a Busy window — it must not re-hammer the very peer that just asked
// for room to breathe. The beacon is built and encoded exactly once and
// fanned out as a pre-encoded frame: with hundreds of live peers the
// per-round cost is one serialization, not one per peer, which keeps the
// thousand-node hello path linear in links instead of quadratic in
// bytes encoded.
func (m *Manager) BroadcastExcept(skip func(trace.NodeID) bool) {
	peers := m.Peers()
	if len(peers) == 0 {
		return
	}
	raw := wire.NewRaw(m.helloMsg())
	for _, id := range peers {
		if skip != nil && skip(id) {
			continue
		}
		m.Send(id, raw) // a refusal is counted; the next round beacons again
	}
}

// expire drops peers whose last hello is older than the liveness
// window, closing their sessions, decays flap scores of links that have
// since held steady, and forgets redial records nobody has dialed since.
// Shards are swept one at a time, so an expiry pass never stalls traffic
// on the whole table.
func (m *Manager) expire(now time.Time) {
	var dead []*session
	for _, sh := range m.shards {
		sh.mu.Lock()
		for id, e := range sh.peers {
			if now.Sub(e.lastHello) <= m.cfg.LivenessWindow {
				continue
			}
			for _, s := range e.sessions {
				dead = append(dead, s)
			}
			delete(sh.peers, id)
			m.peerCount.Add(-1)
			m.ctrs.expiries.Add(1)
		}
		for id, fi := range sh.flaps {
			if now.Sub(fi.last) > 4*m.cfg.LivenessWindow {
				fi.count--
				fi.last = now
				if fi.count <= 0 {
					delete(sh.flaps, id)
				}
			}
		}
		sh.mu.Unlock()
	}
	m.redialMu.Lock()
	for addr, r := range m.redials {
		if now.Sub(r.next) > 4*m.cfg.LivenessWindow {
			delete(m.redials, addr)
		}
	}
	m.redialMu.Unlock()
	for _, s := range dead {
		m.end(s)
		m.logf("peer: node %d expired (no hello in %v)", s.peer, m.cfg.LivenessWindow)
	}
}

// Peers returns the live peer IDs, sorted.
func (m *Manager) Peers() []trace.NodeID {
	out := make([]trace.NodeID, 0, m.peerCount.Load())
	for _, sh := range m.shards {
		sh.mu.Lock()
		for id := range sh.peers {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Table snapshots the peer table for stats endpoints.
func (m *Manager) Table() []Info {
	now := m.cfg.Now()
	out := make([]Info, 0, m.peerCount.Load())
	for _, sh := range m.shards {
		sh.mu.Lock()
		for id, e := range sh.peers {
			s := sh.pick(id)
			info := Info{
				ID:        id,
				Addr:      s.conn.RemoteAddr(),
				Inbound:   s.inbound,
				LastHello: now.Sub(e.lastHello),
				Sessions:  len(e.sessions),
			}
			if fi := sh.flaps[id]; fi != nil {
				info.Flaps = fi.count
			}
			out = append(out, info)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	sent, recv := &m.ctrs.sent, &m.ctrs.recv
	return Stats{
		HellosSent:      sent[wire.TypeHello].Load(),
		HellosKicked:    m.ctrs.hellosKicked.Load(),
		HellosAcked:     m.ctrs.hellosAcked.Load(),
		HellosRecv:      recv[wire.TypeHello].Load(),
		MetadataSent:    sent[wire.TypeMetadata].Load(),
		MetadataRecv:    recv[wire.TypeMetadata].Load(),
		PiecesSent:      sent[wire.TypePiece].Load(),
		PiecesRecv:      recv[wire.TypePiece].Load(),
		GroupSent:       planeTotal(sent, wire.PlaneGroup),
		GroupRecv:       planeTotal(recv, wire.PlaneGroup),
		DHTSent:         planeTotal(sent, wire.PlaneDHT),
		DHTRecv:         planeTotal(recv, wire.PlaneDHT),
		Accepts:         m.ctrs.accepts.Load(),
		Dials:           m.ctrs.dials.Load(),
		Reconnects:      m.ctrs.reconnects.Load(),
		Drops:           m.ctrs.drops.Load(),
		Expiries:        m.ctrs.expiries.Load(),
		HandshakeFail:   m.ctrs.handshakeFail.Load(),
		Flaps:           m.ctrs.flaps.Load(),
		PeersRejected:   m.ctrs.peersRejected.Load(),
		InboundShed:     m.ctrs.inboundShed.Load(),
		BusySent:        planeTotal(sent, wire.PlaneBusy),
		BusyRecv:        planeTotal(recv, wire.PlaneBusy),
		DialsSuppressed: m.ctrs.dialsSuppr.Load(),
	}
}

// QueueStats is the state of the send lanes: depths summed over live
// sessions and Cap what their lanes could hold in all; drops (frames
// refused by a full lane, or still queued when their session died)
// cumulative. Saturated: some session has a full lane, so frames of that
// class to that peer are being dropped now.
type QueueStats struct {
	ControlDepth, DataDepth int
	Cap                     int
	DropsControl, DropsData uint64
	Saturated               bool
}

// Queues snapshots the send lanes.
func (m *Manager) Queues() QueueStats {
	qs := QueueStats{
		DropsControl: m.ctrs.queueDrops[wire.ClassControl].Load(),
		DropsData:    m.ctrs.queueDrops[wire.ClassData].Load(),
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, e := range sh.peers {
			for _, s := range e.sessions {
				n, full := s.out.depths()
				qs.Cap += int(wire.NumClasses) * m.cfg.QueueLen
				qs.ControlDepth += n[wire.ClassControl]
				qs.DataDepth += n[wire.ClassData]
				qs.Saturated = qs.Saturated || full
			}
		}
		sh.mu.Unlock()
	}
	return qs
}

// Close ends every session; used on daemon shutdown after contexts
// are canceled.
func (m *Manager) Close() {
	var all []*session
	for _, sh := range m.shards {
		sh.mu.Lock()
		for id, e := range sh.peers {
			for _, s := range e.sessions {
				all = append(all, s)
			}
			delete(sh.peers, id)
			m.peerCount.Add(-1)
		}
		sh.mu.Unlock()
	}
	for _, s := range all {
		m.end(s)
	}
}
