// The lookup engine: Kademlia's iterative, α-parallel lookup procedure
// plus the RPC plumbing that rides the host's existing peer sessions.
// The engine owns the routing table and the record store; the host
// (internal/daemon) owns the transport and feeds inbound DHT messages to
// HandleMessage, which either answers in place (returning the reply to
// send) or resolves a pending outbound RPC.
package dht

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/quiet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Defaults for the tunable parameters.
const (
	DefaultK              = 16
	DefaultAlpha          = 3
	DefaultRequestTimeout = 250 * time.Millisecond
	DefaultTTL            = 10 * time.Minute
	DefaultCacheCap       = 1024
)

// ErrNoContacts means a lookup could not start: the routing table is
// empty and no bootstrap contact is known.
var ErrNoContacts = errors.New("dht: no contacts in routing table")

// Config parameterizes an Engine.
type Config struct {
	// Self is this node's ID; Addr the listen address peers dial it at,
	// advertised in every outbound message's FromAddr.
	Self trace.NodeID
	Addr string
	// K is the bucket size and lookup width; Alpha the lookup
	// parallelism.
	K     int
	Alpha int
	// RequestTimeout bounds one RPC's wait; TTL is the lifetime granted
	// to records this node publishes; CacheCap bounds the record store.
	RequestTimeout time.Duration
	TTL            time.Duration
	CacheCap       int
	// Send delivers an encoded-able message to a contact. It must not
	// block for long; errors mean the contact is unreachable right now.
	Send func(c Contact, m wire.Msg) error
	// Verify, if set, vets a received value before it is stored or
	// returned (the host wires this to the metadata signature check).
	Verify func(v *wire.DHTValue) bool
	// SignedExpiry, if set, maps a record's signed metadata expiry onto
	// this node's clock. No stamp — published, received or cached — ever
	// outlives it; the zero time means unbounded.
	SignedExpiry func(m *wire.Metadata) time.Time
	// Now supplies the clock (defaults to time.Now; tests inject).
	Now  func() time.Time
	Logf func(format string, args ...any)
}

// Stats counts engine activity; returned by Engine.Stats.
type Stats struct {
	Lookups        uint64 `json:"lookups"`         // iterative lookups started
	LookupHits     uint64 `json:"lookup_hits"`     // lookups that returned values
	RPCsSent       uint64 `json:"rpcs_sent"`       // FindNode/FindValue requests sent
	RPCTimeouts    uint64 `json:"rpc_timeouts"`    // requests that never got a reply
	StoresSent     uint64 `json:"stores_sent"`     // StoreValue messages sent
	StoresRecv     uint64 `json:"stores_recv"`     // StoreValue messages accepted
	StoresRejected uint64 `json:"stores_rejected"` // StoreValue messages failing verification
	StoresExpired  uint64 `json:"stores_expired"`  // StoreValue messages that arrived past their stamped expiry
	FindsServed    uint64 `json:"finds_served"`    // FindNode/FindValue requests answered
	CacheHits      uint64 `json:"cache_hits"`      // queries answered from the local store
	TableSize      int    `json:"table_size"`
	StoreSize      int    `json:"store_size"`
	StoreEvicted   uint64 `json:"store_evicted"`
	BusySkips      uint64 `json:"busy_skips"` // lookup contacts skipped while backing off
}

// Engine is one node's DHT participant. All methods are safe for
// concurrent use.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	table   *Table
	store   *Store
	nextRPC uint64
	pending map[uint64]waiter
	stats   Stats
	// busyUntil records contacts that answered one of our requests with
	// Busy, skipped by lookups until the deadline. Under mu.
	busyUntil map[trace.NodeID]time.Time
}

// New returns an engine for the given configuration. Config.Send is
// required; zero tunables take the package defaults.
func New(cfg Config) *Engine {
	if cfg.K <= 0 {
		cfg.K = DefaultK
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = DefaultCacheCap
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Engine{
		cfg:       cfg,
		table:     NewTable(cfg.Self, cfg.K),
		store:     NewStore(cfg.CacheCap),
		pending:   make(map[uint64]waiter),
		busyUntil: make(map[trace.NodeID]time.Time),
	}
}

// Self returns the engine's node ID.
func (e *Engine) Self() trace.NodeID { return e.cfg.Self }

// SetAddr updates the dial-back address advertised in outbound
// messages. Hosts that listen on an ephemeral port learn their bound
// address only after the listener starts, which is after New.
func (e *Engine) SetAddr(addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.Addr = addr
}

// addr reads the advertised address under the lock.
func (e *Engine) addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg.Addr
}

// Observe records a live contact (a new session, a beacon, a message).
func (e *Engine) Observe(id trace.NodeID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table.Observe(Contact{ID: id, Addr: addr})
}

// Forget drops a contact (its session died).
func (e *Engine) Forget(id trace.NodeID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table.Remove(id)
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.TableSize = e.table.Len()
	s.StoreSize = e.store.Len()
	s.StoreEvicted = e.store.Evicted()
	return s
}

// Contacts returns the routing table's contacts (tests and /stats).
func (e *Engine) Contacts() []Contact {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.table.Contacts()
}

// CachedValues returns the unexpired records stored locally under the
// keyword, without touching the network.
func (e *Engine) CachedValues(keyword string) []wire.DHTValue {
	key := KeywordKey(keyword)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.Get(key, e.cfg.Now())
}

// StoreLocal caches one record locally for ttl (the engine's TTL when
// zero), as its origin on this node: the host stores records that
// arrive over gossip this way, Publish the ones it publishes.
func (e *Engine) StoreLocal(keyword string, meta wire.Metadata, ttl time.Duration) {
	if ttl <= 0 {
		ttl = e.cfg.TTL
	}
	now := e.cfg.Now()
	e.put(KeywordKey(keyword), keyword, meta, now.Add(ttl), now)
}

// put is the one way into the record store: the stamp is clamped to the
// record's signed expiry and reports false when that leaves it expired.
func (e *Engine) put(key Key, keyword string, meta wire.Metadata, expires, now time.Time) (time.Time, bool) {
	if e.cfg.SignedExpiry != nil {
		if bound := e.cfg.SignedExpiry(&meta); !bound.IsZero() && bound.Before(expires) {
			expires = bound
		}
	}
	if !expires.After(now) {
		return expires, false
	}
	e.mu.Lock()
	e.store.Put(key, keyword, meta, expires, now)
	e.mu.Unlock()
	return expires, true
}

// Sweep drops expired records; the host calls it periodically.
func (e *Engine) Sweep() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.cfg.Now()
	for id, until := range e.busyUntil {
		if now.After(until) {
			delete(e.busyUntil, id)
		}
	}
	return e.store.Sweep(now)
}

// HandleMessage processes one inbound DHT message and returns the reply
// to send back to its sender, or nil when no reply is due (StoreValue,
// and NodesReply which resolves a pending RPC instead). Every message
// that gets here was already admitted by the host's per-peer limiter —
// the engine has none of its own.
func (e *Engine) HandleMessage(m wire.Msg) wire.Msg {
	switch m := m.(type) {
	case *wire.FindNode:
		return e.onFind(m.From, m.FromAddr, m.RPCID, m.Target, false)
	case *wire.FindValue:
		return e.onFind(m.From, m.FromAddr, m.RPCID, m.Key, true)
	case *wire.StoreValue:
		e.onStore(m)
		return nil
	case *wire.NodesReply:
		e.onReply(m)
		return nil
	default:
		return nil
	}
}

// MarkBusy records that a contact answered us with Busy (scope dht):
// lookups skip it until the deadline instead of counting it failed —
// an overloaded node is not a dead node.
func (e *Engine) MarkBusy(id trace.NodeID, until time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.busyUntil[id] = until
}

// isBusy reports whether a contact is inside its advertised backoff
// window, dropping the entry once it expires.
func (e *Engine) isBusy(id trace.NodeID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	until, ok := e.busyUntil[id]
	if !ok {
		return false
	}
	if e.cfg.Now().After(until) {
		delete(e.busyUntil, id)
		return false
	}
	return true
}

func (e *Engine) onFind(from trace.NodeID, fromAddr string, rpcID uint64, key Key, wantValue bool) wire.Msg {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table.Observe(Contact{ID: from, Addr: fromAddr})
	e.stats.FindsServed++
	reply := &wire.NodesReply{
		From: e.cfg.Self, FromAddr: e.cfg.Addr, RPCID: rpcID, Key: key,
	}
	if wantValue {
		if vals := e.store.Get(key, e.cfg.Now()); len(vals) > 0 {
			reply.Found = true
			reply.Values = vals
			return reply
		}
	}
	for _, c := range e.table.Closest(key, e.cfg.K) {
		if c.ID == from {
			continue
		}
		reply.Nodes = append(reply.Nodes, wire.NodeInfo{ID: c.ID, Addr: c.Addr})
	}
	return reply
}

func (e *Engine) onStore(m *wire.StoreValue) {
	if e.cfg.Verify != nil && !e.cfg.Verify(&m.Value) {
		e.mu.Lock()
		e.stats.StoresRejected++
		e.mu.Unlock()
		e.cfg.Logf("dht: rejected store from n%d: bad value", m.From)
		return
	}
	// The publisher's stamp is taken as it comes, never re-based on this
	// node's clock: a store that was delayed past it is dead on arrival.
	_, live := e.put(Key(m.Key), m.Value.Keyword, m.Value.Meta,
		time.UnixMilli(m.Value.ExpiresUnixMilli), e.cfg.Now())
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table.Observe(Contact{ID: m.From, Addr: m.FromAddr})
	if live {
		e.stats.StoresRecv++
	} else {
		e.stats.StoresExpired++
	}
}

// waiter is an RPC waiting for its reply: the channel it is handed on,
// and the stepped network's work count (internal/quiet) the hand-off is
// one unit of, nil off a harness.
type waiter struct {
	ch   chan *wire.NodesReply
	work *quiet.Work
}

func (e *Engine) onReply(m *wire.NodesReply) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.table.Observe(Contact{ID: m.From, Addr: m.FromAddr})
	w, ok := e.pending[m.RPCID]
	delete(e.pending, m.RPCID)
	if ok {
		w.work.Add(1)
		w.ch <- m // buffered; never blocks
	}
}

// rpc sends one FindNode/FindValue to a contact and waits for its reply.
// Under a stepped network (quiet.From(ctx)) the caller holds a unit of
// work, gives it back while it waits, and returns holding one again.
func (e *Engine) rpc(ctx context.Context, c Contact, key Key, wantValue bool) (*wire.NodesReply, error) {
	ch := make(chan *wire.NodesReply, 1)
	work := quiet.From(ctx)
	e.mu.Lock()
	e.nextRPC++
	id := e.nextRPC
	e.pending[id] = waiter{ch, work}
	e.stats.RPCsSent++
	e.mu.Unlock()

	var m wire.Msg
	if wantValue {
		m = &wire.FindValue{From: e.cfg.Self, FromAddr: e.addr(), RPCID: id, Key: key}
	} else {
		m = &wire.FindNode{From: e.cfg.Self, FromAddr: e.addr(), RPCID: id, Target: key}
	}
	if err := e.cfg.Send(c, m); err != nil {
		e.mu.Lock()
		delete(e.pending, id)
		e.mu.Unlock()
		return nil, err
	}

	t := time.NewTimer(e.cfg.RequestTimeout)
	defer t.Stop()
	work.Done()
	select {
	case r := <-ch:
		return r, nil
	case <-t.C:
	case <-ctx.Done():
	}
	work.Add(1)
	e.mu.Lock()
	if _, waiting := e.pending[id]; !waiting {
		<-ch // the reply raced the deadline; it carried a unit of its own
		work.Done()
	}
	delete(e.pending, id)
	e.stats.RPCTimeouts++
	e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("dht: rpc timeout")
}

// LookupResult is an iterative lookup's outcome.
type LookupResult struct {
	// Values holds the records found (FindValue lookups only).
	Values []wire.DHTValue
	// Closest is the closest-to-target contact set the lookup converged
	// on, nearest first.
	Closest []Contact
}

// Lookup runs the iterative lookup procedure toward key: query the α
// closest known contacts, merge the contacts they return, re-query the
// now-closest unqueried contacts, and stop when the K closest have all
// answered (or when a FindValue lookup finds values). Learned contacts
// enter the routing table; unreachable ones leave it.
func (e *Engine) Lookup(ctx context.Context, key Key, wantValue bool) (*LookupResult, error) {
	e.mu.Lock()
	e.stats.Lookups++
	short := newShortlist(key, e.cfg.K)
	short.add(e.table.Closest(key, e.cfg.K)...)
	e.mu.Unlock()
	if short.len() == 0 {
		return nil, ErrNoContacts
	}

	res := &LookupResult{}
	work := quiet.From(ctx)
	for {
		batch := short.nextBatch(e.cfg.Alpha)
		if len(batch) == 0 {
			break
		}
		type outcome struct {
			from  Contact
			reply *wire.NodesReply
		}
		outcomes := make(chan outcome, len(batch))
		launched := 0
		for _, c := range batch {
			if e.isBusy(c.ID) {
				// A Busy contact is skipped for the rest of the round,
				// not marked dead: no RPC, no Forget.
				short.skipped(c)
				e.mu.Lock()
				e.stats.BusySkips++
				e.mu.Unlock()
				continue
			}
			launched++
			work.Add(1) // handed back with the outcome
			go func(c Contact) {
				r, err := e.rpc(ctx, c, key, wantValue)
				if err != nil {
					r = nil
				}
				outcomes <- outcome{from: c, reply: r}
			}(c)
		}
		for i := 0; i < launched; i++ {
			work.Done()
			o := <-outcomes
			if o.reply == nil {
				// An in-flight RPC can lose the race with a Busy frame:
				// the contact shed our request rather than ignoring it,
				// so honor the backoff instead of declaring it dead.
				if e.isBusy(o.from.ID) {
					short.skipped(o.from)
					continue
				}
				short.failed(o.from)
				e.Forget(o.from.ID)
				continue
			}
			short.answered(o.from)
			if wantValue && o.reply.Found {
				res.Values = append(res.Values, o.reply.Values...)
			}
			for _, n := range o.reply.Nodes {
				if n.ID == e.cfg.Self {
					continue
				}
				short.add(Contact{ID: n.ID, Addr: n.Addr})
			}
		}
		if len(res.Values) > 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	res.Closest = short.closest()
	if len(res.Values) > 0 {
		e.mu.Lock()
		e.stats.LookupHits++
		e.mu.Unlock()
	}
	return res, nil
}

// Publish stores one record under the keyword at the K closest nodes the
// lookup converges on, and in the local cache, stamped to expire one
// TTL from now (sooner if the signed record does). Returns how many
// remote stores were sent.
func (e *Engine) Publish(ctx context.Context, keyword string, meta wire.Metadata) (int, error) {
	key := KeywordKey(keyword)
	now := e.cfg.Now()
	expires, live := e.put(key, keyword, meta, now.Add(e.cfg.TTL), now)
	if !live {
		return 0, nil
	}
	res, err := e.Lookup(ctx, key, false)
	if err != nil {
		return 0, err
	}
	val := wire.DHTValue{
		Keyword:          keyword,
		ExpiresUnixMilli: expires.UnixMilli(),
		Meta:             meta,
	}
	sent := 0
	fromAddr := e.addr()
	for _, c := range res.Closest {
		m := &wire.StoreValue{
			From: e.cfg.Self, FromAddr: fromAddr,
			Key: key, Value: val,
		}
		e.mu.Lock()
		e.nextRPC++
		m.RPCID = e.nextRPC
		e.mu.Unlock()
		if e.cfg.Send(c, m) == nil {
			sent++
			e.mu.Lock()
			e.stats.StoresSent++
			e.mu.Unlock()
		}
	}
	return sent, nil
}

// Query resolves a keyword: the local cache first (a hit costs no
// traffic — the DTN-side path), then an iterative FindValue. Found
// records are cached locally so the next contact window can answer them
// without the network.
func (e *Engine) Query(ctx context.Context, keyword string) ([]wire.DHTValue, error) {
	if vals := e.CachedValues(keyword); len(vals) > 0 {
		e.mu.Lock()
		e.stats.CacheHits++
		e.mu.Unlock()
		return vals, nil
	}
	key := KeywordKey(keyword)
	res, err := e.Lookup(ctx, key, true)
	if err != nil {
		return nil, err
	}
	var out []wire.DHTValue
	seen := make(map[string]bool)
	for _, v := range res.Values {
		if e.cfg.Verify != nil && !e.cfg.Verify(&v) {
			continue
		}
		id := string(v.Meta.Record.URI)
		if seen[id] {
			continue
		}
		seen[id] = true
		// Cache under the stamp the reply carried; a value past it does
		// not resolve, whoever still serves it.
		expires, live := e.put(key, v.Keyword, v.Meta, time.UnixMilli(v.ExpiresUnixMilli), e.cfg.Now())
		if !live {
			continue
		}
		v.ExpiresUnixMilli = expires.UnixMilli()
		out = append(out, v)
	}
	return out, nil
}

// Refresh runs a lookup toward the engine's own key — the bootstrap
// move that populates the routing table from whatever contacts it has.
func (e *Engine) Refresh(ctx context.Context) {
	_, _ = e.Lookup(ctx, NodeKey(e.cfg.Self), false)
}

// shortlist tracks an iterative lookup's candidate set: contacts sorted
// by distance to the target, each unqueried, in-flight, answered, or
// failed. The lookup is done when the K closest non-failed contacts have
// all answered.
type shortlist struct {
	target Key
	k      int
	order  []trace.NodeID
	info   map[trace.NodeID]*slEntry
}

type slEntry struct {
	c     Contact
	key   Key
	state int // 0 unqueried, 1 in-flight, 2 answered, 3 failed, 4 busy-skipped
}

func newShortlist(target Key, k int) *shortlist {
	return &shortlist{target: target, k: k, info: make(map[trace.NodeID]*slEntry)}
}

func (s *shortlist) len() int { return len(s.order) }

func (s *shortlist) add(cs ...Contact) {
	for _, c := range cs {
		if e, ok := s.info[c.ID]; ok {
			if e.c.Addr == "" {
				e.c.Addr = c.Addr
			}
			continue
		}
		e := &slEntry{c: c, key: NodeKey(c.ID)}
		s.info[c.ID] = e
		// Insert keeping order sorted by distance to target.
		pos := len(s.order)
		for i, id := range s.order {
			if s.target.Closer(e.key, s.info[id].key) {
				pos = i
				break
			}
		}
		s.order = append(s.order, 0)
		copy(s.order[pos+1:], s.order[pos:])
		s.order[pos] = c.ID
	}
}

// nextBatch marks and returns up to n unqueried contacts among the K
// closest non-failed candidates; an empty batch means convergence.
// Busy-skipped contacts (state 4) count like failures here: out of the
// round, but still alive in the routing table.
func (s *shortlist) nextBatch(n int) []Contact {
	var batch []Contact
	live := 0
	for _, id := range s.order {
		e := s.info[id]
		if e.state >= 3 {
			continue
		}
		live++
		if live > s.k {
			break
		}
		if e.state == 0 {
			e.state = 1
			batch = append(batch, e.c)
			if len(batch) == n {
				break
			}
		}
	}
	return batch
}

func (s *shortlist) answered(c Contact) { s.setState(c, 2) }
func (s *shortlist) failed(c Contact)   { s.setState(c, 3) }
func (s *shortlist) skipped(c Contact)  { s.setState(c, 4) }

func (s *shortlist) setState(c Contact, st int) {
	if e, ok := s.info[c.ID]; ok {
		e.state = st
	}
}

// closest returns the K closest contacts that answered, nearest first.
func (s *shortlist) closest() []Contact {
	var out []Contact
	for _, id := range s.order {
		e := s.info[id]
		if e.state != 2 {
			continue
		}
		out = append(out, e.c)
		if len(out) == s.k {
			break
		}
	}
	return out
}
