package transport

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/rng"
	"repro/internal/wire"
)

// BroadcastConn is one endpoint of a group lane: a Send is addressed to
// every other member at once — the physical capability §V's one-sender
// schedule exploits. The daemon runs up to two, the control-plane medium
// and the fountain-coded symbol lane, and both are this one interface:
// what a lane delivers is a property of the medium behind it, not of
// the method set. A loopback BroadcastDomain delivers every frame unless
// loss shaping or a full receiver queue says otherwise, skips a
// malformed body and closes on framing garbage; a UDPLane may lose,
// duplicate or reorder, and skips anything undecodable — there is no
// stream to resynchronize. Where no shared medium exists (plain TCP),
// callers fall back to fanning the message out over unicast Conns; the
// scheduling layer is agnostic.
//
// Unlike Conn's, Send may be called from any goroutine; Recv must stay
// on a single goroutine, and frames round-trip through the wire codec.
type BroadcastConn interface {
	// Send transmits one message to every other current member.
	Send(ctx context.Context, m wire.Msg) error
	// Recv returns the next message heard on the lane.
	Recv(ctx context.Context) (wire.Msg, error)
	// Close leaves the lane; safe to call more than once.
	Close() error
	// Addr names this member for logs.
	Addr() string
}

// domainQueue bounds each member's receive buffer. A member that falls
// this far behind misses frames — exactly how a busy radio receiver
// behaves — rather than stalling every other member's sends.
const domainQueue = 256

// BroadcastDomain is a deterministic in-memory shared medium attached
// to a Loopback network: every member Joined to it hears every other
// member's sends. It models the one-transmitter-many-receivers radio
// channel of §V for tests, with the same codec round-trip guarantees as
// loopback unicast conns.
type BroadcastDomain struct {
	name string

	mu      sync.Mutex
	members map[string]*domainConn
	missed  uint64
	closed  bool

	// Loss shaping for the symbol lane: each receiver draws from its own
	// (lossSeed, addr)-derived stream, so whether a given member hears a
	// given transmission never depends on Go's map iteration order — a
	// replayed test sees the identical loss pattern.
	lossRate float64
	lossSeed uint64
	lossRNG  map[string]*rng.Rand
	lost     uint64
}

// NewBroadcastDomain returns an empty named shared medium.
func NewBroadcastDomain(name string) *BroadcastDomain {
	return &BroadcastDomain{name: name, members: make(map[string]*domainConn)}
}

// Domain returns the loopback network's named broadcast domain,
// creating it on first use. Domains share the network's lifetime but
// not its listener namespace.
func (n *Loopback) Domain(name string) *BroadcastDomain {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.domains == nil {
		n.domains = make(map[string]*BroadcastDomain)
	}
	d := n.domains[name]
	if d == nil {
		d = NewBroadcastDomain(name)
		n.domains[name] = d
	}
	return d
}

// Join adds a member under addr (any non-empty unique string) and
// returns its endpoint.
func (d *BroadcastDomain) Join(addr string) (BroadcastConn, error) {
	if addr == "" {
		return nil, fmt.Errorf("transport: empty broadcast member address")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if _, ok := d.members[addr]; ok {
		return nil, fmt.Errorf("%q: %w", addr, ErrAddrInUse)
	}
	c := &domainConn{
		domain: d,
		addr:   addr,
		in:     make(chan []byte, domainQueue),
		done:   make(chan struct{}),
	}
	d.members[addr] = c
	return c, nil
}

// Members lists the current member addresses (for tests and stats).
func (d *BroadcastDomain) Members() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.members))
	for addr := range d.members {
		out = append(out, addr)
	}
	return out
}

// Missed counts frames dropped because a member's receive queue was
// full — the shared medium's backpressure loss mode.
func (d *BroadcastDomain) Missed() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.missed
}

// Queued is how many frames sit undelivered in addr's receive queue
// (0 for a non-member): the headroom a sender's pacing leaves below
// domainQueue, and what lets a test drain a lane without blocking.
func (d *BroadcastDomain) Queued(addr string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c := d.members[addr]; c != nil {
		return len(c.in)
	}
	return 0
}

// SetLoss makes the medium drop each (transmission, receiver) pair
// independently with the given probability, from per-receiver streams
// derived from seed — the loopback model of a lossy datagram lane.
// Rate 0 restores perfect delivery. Existing members' streams restart
// from the new seed.
func (d *BroadcastDomain) SetLoss(rate float64, seed uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lossRate = rate
	d.lossSeed = seed
	d.lossRNG = make(map[string]*rng.Rand)
}

// Lost counts frames dropped by loss shaping (SetLoss), as distinct
// from queue-overflow Missed.
func (d *BroadcastDomain) Lost() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lost
}

// memberLoss returns addr's loss stream, creating it on first use.
// Callers hold d.mu.
func (d *BroadcastDomain) memberLoss(addr string) *rng.Rand {
	r := d.lossRNG[addr]
	if r == nil {
		h := fnv.New64a()
		h.Write([]byte(addr))
		r = rng.New(d.lossSeed ^ h.Sum64())
		d.lossRNG[addr] = r
	}
	return r
}

// Close evicts every member; their Recvs return ErrClosed.
func (d *BroadcastDomain) Close() error {
	d.mu.Lock()
	members := make([]*domainConn, 0, len(d.members))
	for _, c := range d.members {
		members = append(members, c)
	}
	d.closed = true
	d.mu.Unlock()
	for _, c := range members {
		c.Close()
	}
	return nil
}

// transmit delivers one encoded frame to every member except the
// sender. Delivery is best-effort per receiver: a full queue means that
// receiver misses the frame, it never blocks the sender or the rest of
// the group.
func (d *BroadcastDomain) transmit(from *domainConn, frame []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.members[from.addr] != from {
		return ErrClosed
	}
	for addr, c := range d.members {
		if addr == from.addr {
			continue
		}
		if d.lossRate > 0 && d.memberLoss(addr).Float64() < d.lossRate {
			d.lost++
			continue
		}
		select {
		case c.in <- frame:
		default:
			d.missed++
		}
	}
	return nil
}

// domainConn is one member endpoint of a BroadcastDomain.
type domainConn struct {
	domain *BroadcastDomain
	addr   string
	in     chan []byte
	done   chan struct{}
	once   sync.Once
}

func (c *domainConn) Send(ctx context.Context, m wire.Msg) error {
	select {
	case <-c.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	return c.domain.transmit(c, wire.Encode(m))
}

func (c *domainConn) Recv(ctx context.Context) (wire.Msg, error) {
	for {
		select {
		case frame := <-c.in:
			m, err := decodeFrame(frame)
			if err != nil {
				c.Close()
				return nil, err
			}
			if m == nil {
				continue // malformed body: skip, stay joined
			}
			return m, nil
		case <-c.done:
			return nil, ErrClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func (c *domainConn) Close() error {
	c.once.Do(func() {
		close(c.done)
		c.domain.mu.Lock()
		if c.domain.members[c.addr] == c {
			delete(c.domain.members, c.addr)
		}
		c.domain.mu.Unlock()
	})
	return nil
}

func (c *domainConn) Addr() string { return c.addr }
