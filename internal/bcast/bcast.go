// Package bcast runs the live broadcast-group protocol of §V: nodes
// derive the communication graph from overheard hellos, form the
// maximal clique containing themselves (internal/clique), and — once
// every member's announced view agrees — schedule exactly one
// transmitter per round, so a single piece broadcast serves the whole
// group at once instead of one pairwise stream per downloader.
//
// Rounds are paced by events, not by the timer: the sequencer grants
// the next piece the moment a frame from a member frees a slot in its
// small flight window of granted-but-unresolved pieces, and Tick is the
// beat that announces the view and the deadline that hands a piece
// nobody finished acking back to the schedule.
//
// The schedule is driven by a sequencer, the clique's deterministic
// coordinator (lowest ID). In the cooperative mode (§V-A) the sequencer
// also picks the piece and its sender: pieces requested by more members
// first, ties broken by decreasing popularity. In the tit-for-tat mode
// (§V-B) the sequencer merely follows the agreed cyclic order — a
// pseudo-random permutation seeded from the sum of the member IDs that
// every member can verify, so a selfish sequencer cannot bias whose
// turn it is — and the granted sender picks its own piece.
//
// The engine is transport-agnostic: its Sender either puts frames on a
// true shared medium (transport.BroadcastConn, one transmission for the
// whole group) or fans them out over the existing unicast conns. It is
// deliberately forgiving of stale views: grants for pieces a node
// cannot serve are silently skipped, duplicate broadcasts are absorbed
// by the idempotent receive path, and a member that falls silent
// (partition, flap, crash) expires from the graph so the group re-forms
// without it rather than stalling.
//
// Locking order: Engine.mu may be held while calling into Store or
// Sender (which take the daemon's lock); the daemon must never call
// Engine methods while holding its own lock.
package bcast

import (
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/clique"
	"repro/internal/metadata"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wire"
)

// DefaultMinGroupSize is the smallest clique worth scheduling: with two
// nodes a broadcast is just a unicast, so pairs stay on the pairwise
// path.
const DefaultMinGroupSize = 3

// flightWindow bounds the granted pieces the sequencer keeps unresolved
// — granted, and still lacked by some member. It is the schedule's flow
// control: the slowest member's ack is what admits the next grant. Two
// keeps the sender encoding one piece while the group decodes the
// other, and keeps what a member has yet to drain inside its lane's
// receive queue (transport's domainQueue, 256): a burst is sized so
// that a little over K of its symbols arrive (fec.go), a member acks a
// piece having drained all but the tail of its burst, and a tail plus
// two bursts at K = 64 is under 240 datagrams.
const flightWindow = 2

// Store is the engine's window into the daemon's piece state. Methods
// may be called with Engine.mu held and must not call back into the
// engine.
type Store interface {
	// LivePeers lists peers with live unicast sessions — group members
	// must be live peers, so a partitioned member drops out of every
	// group even when a side-channel broadcast medium stays up.
	LivePeers() []trace.NodeID
	// Wants reports this node's per-file piece state: downloading
	// entries for wanted files, holding entries for servable ones.
	Wants() []wire.GroupWant
	// PieceData returns the bytes and piece total of a servable piece.
	PieceData(uri metadata.URI, i int) (data []byte, total int, ok bool)
	// Popularity is the tie-breaking file popularity (0 when unknown).
	Popularity(uri metadata.URI) float64
	// DeliverPiece hands a received broadcast to the verify-and-store
	// path shared with pairwise pieces. It reports whether the piece is
	// now held (stored, or a duplicate of one already held): false means
	// the data failed verification, which on the fountain path tells the
	// engine its decode was poisoned and must restart.
	DeliverPiece(from trace.NodeID, p *wire.PieceBcast) bool
}

// Sender ships engine messages to the group: one transmission on a
// shared broadcast medium, or a fan-out over unicast conns to members.
// It must not block (enqueue-and-drop beats a stalled schedule).
type Sender interface {
	Broadcast(ctx context.Context, members []trace.NodeID, m wire.Msg)
}

// SymbolSender is the optional lossy-lane half of a Sender: one
// transmission on the best-effort datagram medium every group member
// listens to. A Sender that does not implement it (or a daemon with no
// lane configured) keeps the engine on the reliable piece plane — the
// FEC path never silently loses its transport.
type SymbolSender interface {
	BroadcastSymbol(ctx context.Context, m wire.Msg)
}

// Config parameterizes an Engine.
type Config struct {
	// Self is this node's identity.
	Self trace.NodeID
	// TitForTat selects cyclic-order scheduling over coordinator choice.
	TitForTat bool
	// Window expires graph edges and member views: a member silent this
	// long is no longer part of any group (default 5s, the protocol's
	// liveness window; tests shrink it).
	Window time.Duration
	// Store and Send connect the engine to the daemon.
	Store Store
	Send  Sender
	// FEC advertises and (when the whole group agrees) uses the
	// fountain-coded symbol plane for piece data. It only takes effect
	// when Send also implements SymbolSender.
	FEC bool
	// SymbolSize is the coded-symbol payload size in bytes (default
	// DefaultSymbolSize). Smaller symbols mean more source symbols per
	// piece — better loss granularity, more per-symbol overhead.
	SymbolSize int
	// RelayBudget bounds how many first-sight symbols a receiver
	// re-broadcasts to the group per Tick (default DefaultRelayBudget;
	// coopcast-style cooperation, capped so relays cannot storm).
	RelayBudget int
	// Now is the clock edges, member views and symbol collections are
	// stamped with and aged against (default time.Now); each entry point
	// reads it once.
	Now func() time.Time
	// Logf, when set, receives group lifecycle lines.
	Logf func(format string, args ...any)
}

// Stats is the engine's observable state.
type Stats struct {
	Group           []trace.NodeID `json:"group,omitempty"`
	Confirmed       bool           `json:"confirmed"`
	Sequencer       trace.NodeID   `json:"sequencer"` // -1 without a group
	Round           uint64         `json:"round"`
	RoundsKicked    uint64         `json:"rounds_kicked"` // of Round as sequencer: granted on a frame or a finished burst, not on a Tick
	TitForTat       bool           `json:"tit_for_tat"`
	Formations      uint64         `json:"formations"`
	Collapses       uint64         `json:"collapses"`
	GroupHellosSent uint64         `json:"group_hellos_sent"`
	GroupHellosRecv uint64         `json:"group_hellos_recv"`
	GrantsSent      uint64         `json:"grants_sent"`
	GrantsRecv      uint64         `json:"grants_recv"`
	IdleRounds      uint64         `json:"idle_rounds"`
	PieceBcastsSent uint64         `json:"piece_bcasts_sent"`
	PieceBcastsRecv uint64         `json:"piece_bcasts_recv"`

	// Fountain-coded data plane (fec.go).
	FECActive       bool   `json:"fec_active"`
	SymbolsSent     uint64 `json:"symbols_sent"`
	TopUps          uint64 `json:"top_ups"` // bursts after a piece's first
	SymbolsRecv     uint64 `json:"symbols_recv"`
	SymbolsRelayed  uint64 `json:"symbols_relayed"`
	SymbolsBadCheck uint64 `json:"symbols_bad_check"`
	SymbolAcksSent  uint64 `json:"symbol_acks_sent"`
	SymbolAcksRecv  uint64 `json:"symbol_acks_recv"`
	FECDecodes      uint64 `json:"fec_decodes"`
	FECVerifyFails  uint64 `json:"fec_verify_fails"`
}

// edge is an undirected adjacency edge, stored with a < b.
type edge struct{ a, b trace.NodeID }

func mkEdge(a, b trace.NodeID) edge {
	if a > b {
		a, b = b, a
	}
	return edge{a, b}
}

// view is one member's last announced group state.
type view struct {
	members []trace.NodeID
	wants   []wire.GroupWant
	fec     bool
	at      time.Time
}

// pieceKey identifies one piece of one file.
type pieceKey struct {
	uri   metadata.URI
	piece int
}

// Engine is one node's broadcast-group state machine. Construct with
// New; drive with Observe/HandleGroup from the receive path and Tick
// from a timer.
type Engine struct {
	cfg Config

	mu        sync.Mutex
	edges     map[edge]time.Time
	views     map[trace.NodeID]*view
	group     []trace.NodeID // nil: no group, pairwise only
	confirmed bool
	round     uint64
	counters  Stats

	// beat and prevBeat are the last two Ticks. granted is the flight
	// window: each piece's last grant — by this node as sequencer, or to
	// it — tagged, when this node answered with the piece's opening symbol
	// burst, with the sizing (fec.go) the burst was cut to. A grant keeps
	// its piece off the candidate list until a whole Tick-to-Tick interval
	// has passed since (it is no younger than prevBeat), then Tick expires
	// it. flying is how many grants were still unresolved when the last
	// round ended.
	beat, prevBeat time.Time
	granted        sched.Window[pieceKey]
	flying         int

	// Fountain-coded data plane (fec.go). symbols is non-nil only when
	// Config.FEC is set and the Sender has a symbol lane.
	symbols    SymbolSender
	fecSend    map[pieceKey]*fecStream
	fecRecv    map[pieceKey]*fecBlock
	relayQuota int
	overhead   float64 // opening-burst symbols beyond K, per source symbol
	sizing     uint64  // counts the values overhead has taken, from 1
}

// New returns an engine with defaults applied.
func New(cfg Config) *Engine {
	if cfg.Window <= 0 {
		cfg.Window = 5 * time.Second
	}
	if cfg.SymbolSize <= 0 {
		cfg.SymbolSize = DefaultSymbolSize
	}
	if cfg.RelayBudget <= 0 {
		cfg.RelayBudget = DefaultRelayBudget
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	e := &Engine{
		cfg:      cfg,
		edges:    make(map[edge]time.Time),
		views:    make(map[trace.NodeID]*view),
		overhead: initialOverhead,
		sizing:   1, // 0 tags a grant that is not an opening
		fecSend:  make(map[pieceKey]*fecStream),
		fecRecv:  make(map[pieceKey]*fecBlock),
	}
	if cfg.FEC {
		if ss, ok := cfg.Send.(SymbolSender); ok {
			e.symbols = ss
		}
	}
	return e
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// Observe feeds one overheard hello into the adjacency graph: the
// sender hears each node in heard, so those pairs can share a medium.
func (e *Engine) Observe(from trace.NodeID, heard []trace.NodeID) {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, h := range heard {
		if h != from {
			e.edges[mkEdge(from, h)] = now
		}
	}
}

// HandleGroup processes one received group message. Grants addressed
// to this node trigger the piece broadcast inline, and a frame that can
// resolve a piece in flight — an ack, a view, an overheard broadcast —
// lets the sequencer run the next round without waiting for its Tick.
func (e *Engine) HandleGroup(ctx context.Context, from trace.NodeID, msg wire.Msg) {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	switch v := msg.(type) {
	case *wire.GroupHello:
		e.counters.GroupHellosRecv++
		members := append([]trace.NodeID(nil), v.Members...)
		slices.Sort(members)
		e.views[from] = &view{members: members, wants: v.Wants, fec: v.FEC, at: now}
		if v.Round > e.round {
			e.round = v.Round
		}
	case *wire.Grant:
		e.counters.GrantsRecv++
		if v.Round > e.round {
			e.round = v.Round
		}
		if v.To == e.cfg.Self && slices.Contains(e.group, v.From) {
			e.transmitLocked(ctx, v, now)
		}
		return
	case *wire.PieceBcast:
		e.counters.PieceBcastsRecv++
		if v.Round > e.round {
			e.round = v.Round
		}
		// Optimistic: assume every member heard this broadcast; a
		// receiver that missed it resets the bit with its next
		// GroupHello and the piece becomes a candidate again.
		e.markHaveLocked(v.URI, v.Index)
		e.cfg.Store.DeliverPiece(from, v)
	case *wire.Symbol:
		e.handleSymbolLocked(ctx, v, now)
		return
	case *wire.SymbolAck:
		e.handleSymbolAckLocked(from, v)
	default:
		return
	}
	if e.sequencingLocked() {
		e.roundsLocked(ctx, now, true)
	}
}

// InGroup reports whether peer is a member of this node's confirmed
// group — the daemon's signal to suppress pairwise piece serving and
// let the schedule do the work.
func (e *Engine) InGroup(peer trace.NodeID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.confirmed && slices.Contains(e.group, peer)
}

// Group snapshots the current member set and whether it is confirmed.
func (e *Engine) Group() ([]trace.NodeID, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]trace.NodeID(nil), e.group...), e.confirmed
}

// Stats snapshots the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.counters
	st.Group = append([]trace.NodeID(nil), e.group...)
	st.Confirmed = e.confirmed
	st.Sequencer = clique.Coordinator(e.group)
	st.Round = e.round
	st.TitForTat = e.cfg.TitForTat
	st.FECActive = e.fecActiveLocked()
	return st
}

// Tick is the engine's beat: refresh the group from the graph, announce
// the view, and pass the regrant deadline — a piece granted a whole beat
// ago that some member still lacks is a candidate again. When this node
// is the confirmed group's sequencer it then runs the schedule, as
// HandleGroup does between beats.
func (e *Engine) Tick(ctx context.Context) {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.prevBeat, e.beat = e.beat, now
	e.housekeepLocked(ctx, now)
	if e.sequencingLocked() {
		e.roundsLocked(ctx, now, false)
	}
}

// sequencingLocked reports whether this node runs the schedule: its
// group is confirmed and it is the coordinator.
func (e *Engine) sequencingLocked() bool {
	return e.confirmed && clique.Coordinator(e.group) == e.cfg.Self
}

// housekeepLocked is everything a beat does besides scheduling: expire
// what went silent, re-form the group, announce this node's view and
// re-evaluate confirmation.
func (e *Engine) housekeepLocked(ctx context.Context, now time.Time) {
	e.pruneLocked(now)

	// The snapshots are taken under e.mu: a piece that decodes and acks
	// concurrently lands wholly before them or wholly after the
	// announcement, so no GroupHello carries a bitmap older than an ack
	// already sent.
	best := e.bestGroupLocked(e.cfg.Store.LivePeers())
	selfWants := e.cfg.Store.Wants()
	if !slices.Equal(best, e.group) {
		switch {
		case best == nil:
			e.counters.Collapses++
			e.logf("bcast %d: group %v collapsed; pairwise fallback", e.cfg.Self, e.group)
		case e.group == nil:
			e.counters.Formations++
			e.logf("bcast %d: forming group %v", e.cfg.Self, best)
		default:
			e.counters.Formations++
			e.logf("bcast %d: group re-forms %v -> %v", e.cfg.Self, e.group, best)
		}
		e.group = best
		e.confirmed = false
		e.granted = nil
	}
	// The view keeps its own copy of the bitsets: the announcement below
	// may sit in a send queue while markHaveLocked updates the view.
	e.views[e.cfg.Self] = &view{
		members: e.group, wants: cloneWants(selfWants),
		fec: e.symbols != nil, at: now,
	}
	e.relayQuota = e.cfg.RelayBudget
	e.pruneFECLocked(now)
	if e.group == nil {
		return
	}

	e.sendLocked(ctx, &wire.GroupHello{
		From:    e.cfg.Self,
		Members: e.group,
		Round:   e.round,
		Wants:   selfWants,
		FEC:     e.symbols != nil,
	})
	e.counters.GroupHellosSent++

	confirmed := true
	for _, m := range e.group {
		if m == e.cfg.Self {
			continue
		}
		v := e.views[m]
		if v == nil || now.Sub(v.at) > e.cfg.Window || !slices.Equal(v.members, e.group) {
			confirmed = false
			break
		}
	}
	if confirmed && !e.confirmed {
		e.logf("bcast %d: group %v live (sequencer %d, tft=%v)",
			e.cfg.Self, e.group, clique.Coordinator(e.group), e.cfg.TitForTat)
	}
	e.confirmed = confirmed
}

// pruneLocked expires stale graph edges and member views, and passes
// the regrant deadline: a grant a whole beat old stops holding its piece
// back, and the opening symbol bursts among them size the next (fec.go).
func (e *Engine) pruneLocked(now time.Time) {
	_, grants := e.granted.Settle(nil, e.prevBeat)
	lapsed, short := 0, 0
	for _, g := range grants {
		if g.Tag == e.sizing {
			lapsed++
			if e.lackedLocked(g.Key, now) {
				short++
			}
		}
	}
	e.resizeLocked(lapsed, short)
	for k, at := range e.edges {
		if now.Sub(at) > e.cfg.Window {
			delete(e.edges, k)
		}
	}
	for id, v := range e.views {
		if id != e.cfg.Self && now.Sub(v.at) > e.cfg.Window {
			delete(e.views, id)
		}
	}
}

// bestGroupLocked recomputes this node's group: the largest maximal
// clique containing Self in the graph of live-peer links plus fresh
// overheard edges, ties broken lexicographically so every member picks
// the same clique. Below DefaultMinGroupSize there is no group.
func (e *Engine) bestGroupLocked(live []trace.NodeID) []trace.NodeID {
	liveSet := make(map[trace.NodeID]bool, len(live))
	adj := make(map[trace.NodeID]map[trace.NodeID]bool)
	addEdge := func(a, b trace.NodeID) {
		if adj[a] == nil {
			adj[a] = make(map[trace.NodeID]bool)
		}
		if adj[b] == nil {
			adj[b] = make(map[trace.NodeID]bool)
		}
		adj[a][b] = true
		adj[b][a] = true
	}
	for _, p := range live {
		liveSet[p] = true
		addEdge(e.cfg.Self, p)
	}
	// Overheard edges connect peers to each other; only edges between
	// nodes this node can still reach (live peers or itself) matter for
	// cliques containing Self, and restricting to them keeps a
	// partitioned node's stale edges from holding a phantom group
	// together.
	for k := range e.edges {
		aOK := k.a == e.cfg.Self || liveSet[k.a]
		bOK := k.b == e.cfg.Self || liveSet[k.b]
		if aOK && bOK {
			addEdge(k.a, k.b)
		}
	}
	if len(adj) == 0 {
		return nil
	}
	lists := make(map[trace.NodeID][]trace.NodeID, len(adj))
	for v, set := range adj {
		for w := range set {
			lists[v] = append(lists[v], w)
		}
	}
	mine := clique.Containing(clique.MaximalCliques(lists), e.cfg.Self)
	var best []trace.NodeID
	for _, c := range mine {
		if len(c) > len(best) {
			best = c
		}
	}
	if len(best) < DefaultMinGroupSize {
		return nil
	}
	return best
}

// candidatesLocked orders the transferable pieces by the scheduling
// rule, from the members' announced piece state. Only members whose
// GroupHello lists a file take part in it — the live node cannot push
// to a member that never announced the file. Pieces granted within the
// last beat are left out: their broadcast is still landing.
func (e *Engine) candidatesLocked(now time.Time) []*sched.Candidate {
	members := make([]sched.Member, 0, len(e.group))
	for _, m := range e.group {
		v := e.views[m]
		if v == nil || now.Sub(v.at) > e.cfg.Window {
			continue
		}
		files := make([]sched.File, len(v.wants))
		for i := range v.wants {
			w := &v.wants[i]
			files[i] = sched.File{URI: w.URI, Total: w.Total, Wanted: w.Downloading, Have: w.HaveBit}
		}
		members = append(members, sched.Member{ID: m, MaySend: true, Files: files})
	}
	return slices.DeleteFunc(sched.Candidates(members, e.cfg.Store.Popularity, nil),
		func(c *sched.Candidate) bool { return e.granted.Has(pieceKey{c.URI, c.Piece}) })
}

// lackedLocked reports whether some member's fresh view lists the
// piece's file without the piece.
func (e *Engine) lackedLocked(k pieceKey, now time.Time) bool {
	for _, m := range e.group {
		v := e.views[m]
		if v == nil || now.Sub(v.at) > e.cfg.Window {
			continue
		}
		for i := range v.wants {
			if w := &v.wants[i]; w.URI == k.uri && k.piece < w.Total && !w.HaveBit(k.piece) {
				return true
			}
		}
	}
	return false
}

// roundsLocked is the sequencer's schedule, the same for a Tick and for
// a frame between Ticks (kicked). A kicked call grants only if a flight
// slot was freed since the last round ended, so frames that resolve
// nothing — and the acks of pieces the sequencer never named,
// tit-for-tat's — start no rounds. After a grant the next round follows
// at once only behind this node's own burst, already handed to the lane,
// and only if it took a slot: a piece another member was granted is
// waited for (rounds reach the medium in grant order), and what resolves
// on the spot — the piece plane's optimistic own send — stays paced by
// the beat.
func (e *Engine) roundsLocked(ctx context.Context, now time.Time, kicked bool) {
	lacked := func(k pieceKey) bool { return e.lackedLocked(k, now) }
	flying := e.granted.Out(lacked)
	next := !kicked || flying < e.flying
	for next && flying < flightWindow {
		own := e.grantLocked(ctx, now, kicked)
		was := flying
		flying = e.granted.Out(lacked)
		next, kicked = own && flying > was, true
	}
	e.flying = flying
}

// grantLocked executes one schedule round as the sequencer and reports
// whether it granted itself the turn.
func (e *Engine) grantLocked(ctx context.Context, now time.Time, kicked bool) (own bool) {
	cands := e.candidatesLocked(now)
	if len(cands) == 0 {
		if !kicked {
			e.counters.IdleRounds++
		}
		return false
	}
	e.round++
	if kicked {
		e.counters.RoundsKicked++
	}
	g := &wire.Grant{From: e.cfg.Self, Round: e.round, URI: "", Piece: wire.NoPiece}
	if e.cfg.TitForTat {
		// The cyclic order names the sender; the sender picks its piece.
		order := clique.CyclicOrder(e.group)
		g.To = order[int(e.round)%len(order)]
	} else {
		c := cands[0]
		g.To = c.Sender
		g.URI = c.URI
		g.Piece = int32(c.Piece)
		e.granted.Send(pieceKey{c.URI, c.Piece}, now, 0)
	}
	e.sendLocked(ctx, g)
	e.counters.GrantsSent++
	if g.To != e.cfg.Self {
		return false
	}
	e.transmitLocked(ctx, g, now)
	return true
}

// transmitLocked serves one grant addressed to this node: resolve the
// piece (the grant's, or this node's best candidate when the choice is
// left open), fetch the data, and broadcast it.
func (e *Engine) transmitLocked(ctx context.Context, g *wire.Grant, now time.Time) {
	uri, piece := g.URI, int(g.Piece)
	if uri == "" || g.Piece == wire.NoPiece {
		found := false
		for _, c := range e.candidatesLocked(now) {
			if c.HeldBy(e.cfg.Self) {
				uri, piece = c.URI, c.Piece
				found = true
				break
			}
		}
		if !found {
			e.counters.IdleRounds++ // our turn, nothing useful to send
			return
		}
	}
	data, total, ok := e.cfg.Store.PieceData(uri, piece)
	if !ok {
		return // stale grant: we no longer (or never did) hold it
	}
	if e.fecActiveLocked() {
		e.transmitSymbolsLocked(ctx, g.Round, uri, piece, total, data, now)
		return
	}
	e.sendLocked(ctx, &wire.PieceBcast{
		From: e.cfg.Self, Round: g.Round, URI: uri, Index: piece, Total: total, Data: data,
	})
	e.counters.PieceBcastsSent++
	e.granted.Send(pieceKey{uri, piece}, now, 0)
	e.markHaveLocked(uri, piece)
}

// markHaveLocked optimistically flips the piece's have bit in every
// member view that tracks the file.
func (e *Engine) markHaveLocked(uri metadata.URI, piece int) {
	for _, v := range e.views {
		for i := range v.wants {
			if v.wants[i].URI == uri {
				v.wants[i].SetHave(piece)
			}
		}
	}
}

// sendLocked ships one message to the current group.
func (e *Engine) sendLocked(ctx context.Context, m wire.Msg) {
	e.cfg.Send.Broadcast(ctx, e.group, m)
}

// cloneWants deep-copies the Have bitsets so view state and in-flight
// messages never share bytes.
func cloneWants(ws []wire.GroupWant) []wire.GroupWant {
	out := make([]wire.GroupWant, len(ws))
	for i := range ws {
		out[i] = ws[i]
		out[i].Have = append([]byte(nil), ws[i].Have...)
	}
	return out
}
