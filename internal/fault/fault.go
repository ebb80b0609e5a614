// Package fault is a deterministic chaos decorator for transports: it
// wraps any transport.Transport (Loopback in tests, TCP in live demos)
// and injects the failures a DTN link actually exhibits — loss,
// latency, duplication, reordering, byte corruption, abrupt connection
// death, dial failures, and scripted partitions — all driven by a
// seeded RNG so a failing run replays exactly.
//
// Faults are applied on the send path of each wrapped Conn, inline on
// the caller's goroutine: Send, one call at a time by the transport
// contract, draws from the conn's own RNG stream (derived from
// Config.Seed and a conn counter), so fault decisions need no locking
// and are reproducible per connection. The injector starts no
// goroutines and queues nothing: a delay holds up the Send it is drawn
// for, and the caller's own queue waits behind it.
//
// Corruption follows the transport's decode-error policy on the
// mutated bytes: a frame whose corruption lands in the header (bad
// magic, bad version) kills the connection, a corrupted-but-framed body
// is dropped (the resync path), and a mutation that still decodes is
// delivered as-is — that last case is the interesting one, because it
// hands the daemon a well-formed message whose payload fails checksum
// or signature verification.
//
// Partitions are scripted, not random: Config.Schedule lists
// partition/heal events at offsets from the transport's creation, and
// Cut holds one open at runtime for as long as its caller says. A
// partition is out of radio range, both ways: every send is silently
// dropped, every frame a reader takes is dropped unheard, every dial
// fails and every conn dialed in is closed as it is accepted, so the
// peer layer sees exactly what a real network split
// looks like — silence, liveness expiry, and redial storms against a
// dead address.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/quiet"
	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrPartitioned reports a Dial attempted while a scripted partition is
// active.
var ErrPartitioned = errors.New("fault: network partitioned")

// ErrInjectedDialFailure reports a Dial dropped by the DialFail rate.
var ErrInjectedDialFailure = errors.New("fault: injected dial failure")

// Event is one entry of a partition schedule.
type Event struct {
	// At is the offset from transport creation when the event fires.
	At time.Duration
	// Partition starts a partition when true and heals it when false.
	Partition bool
}

// Config tunes the injector. The zero value injects nothing. All rates
// are per-message (or per-dial) probabilities in [0, 1].
type Config struct {
	// Seed drives every random fault decision; a fixed seed replays
	// the same per-connection fault streams.
	Seed uint64
	// Drop is the probability a sent message silently vanishes.
	Drop float64
	// Corrupt is the probability a sent message has 1–4 of its encoded
	// bytes flipped before delivery (see the package comment for how
	// the mutation is resolved).
	Corrupt float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back and delivered
	// after the next one (adjacent swap).
	Reorder float64
	// Kill is the probability the connection dies abruptly right after
	// a message is processed.
	Kill float64
	// DialFail is the probability a Dial fails outright.
	DialFail float64
	// SymbolLoss is the probability a symbol-lane datagram silently
	// vanishes (WrapSymbols), independent of the frame-level Drop so
	// the lossy data plane can be shaped separately from the conns.
	SymbolLoss float64
	// DelayMin and DelayMax bound the extra per-message latency, drawn
	// uniformly. Zero DelayMax means no added latency.
	DelayMin, DelayMax time.Duration
	// Schedule scripts partition/heal events, ordered by At.
	Schedule []Event
}

// Stats counts injected faults; all fields are cumulative.
type Stats struct {
	Sent             uint64 `json:"sent"`
	Delivered        uint64 `json:"delivered"`
	Dropped          uint64 `json:"dropped"`
	PartitionDropped uint64 `json:"partition_dropped"`
	Delayed          uint64 `json:"delayed"`
	Duplicated       uint64 `json:"duplicated"`
	Reordered        uint64 `json:"reordered"`
	CorruptDelivered uint64 `json:"corrupt_delivered"`
	CorruptDropped   uint64 `json:"corrupt_dropped"`
	CorruptKilled    uint64 `json:"corrupt_killed"`
	Killed           uint64 `json:"killed"`
	DialsFailed      uint64 `json:"dials_failed"`
	// DialsBlocked counts the dials a partition refused: this node's,
	// and the conns dialed into it that its listener closed.
	DialsBlocked uint64 `json:"dials_blocked"`

	// Symbol-lane datagram counters (WrapSymbols).
	SymbolsSent             uint64 `json:"symbols_sent"`
	SymbolsDelivered        uint64 `json:"symbols_delivered"`
	SymbolsLost             uint64 `json:"symbols_lost"`
	SymbolsPartitionDropped uint64 `json:"symbols_partition_dropped"`
	SymbolsCorruptDelivered uint64 `json:"symbols_corrupt_delivered"`
	SymbolsCorruptLost      uint64 `json:"symbols_corrupt_lost"`
}

// Transport wraps an inner transport with fault injection. Construct
// with Wrap.
type Transport struct {
	inner transport.Transport
	cfg   Config
	start time.Time

	// dialed and accepted number the conns of each direction. One
	// counter for both would let the dial and accept ends of the same
	// loopback link race for a number, and a fixed seed would no longer
	// replay.
	dialed, accepted atomic.Uint64
	// cut is Cut's lever, OR'd with the schedule.
	cut atomic.Bool

	mu      sync.Mutex
	dialRNG *rng.Rand
	stats   Stats
}

// Wrap decorates inner with fault injection per cfg.
func Wrap(inner transport.Transport, cfg Config) *Transport {
	return &Transport{
		inner:   inner,
		cfg:     cfg,
		start:   time.Now(),
		dialRNG: rng.New(cfg.Seed),
	}
}

// Partitioned reports whether a partition is active now: Cut's, or a
// scripted one. Without a schedule it is one atomic load.
func (t *Transport) Partitioned() bool {
	return t.cut.Load() || len(t.cfg.Schedule) > 0 && t.partitionedAt(time.Since(t.start))
}

// Cut opens (true) or heals (false) a partition at runtime, on top of
// the schedule: while either holds, the node is out of range.
func (t *Transport) Cut(on bool) { t.cut.Store(on) }

// Work passes the inner transport's count of outstanding work through,
// so a node on a wrapped stepped network counts its hand-offs on it.
func (t *Transport) Work() *quiet.Work { return quiet.Of(t.inner) }

func (t *Transport) partitionedAt(elapsed time.Duration) bool {
	p := false
	for _, e := range t.cfg.Schedule {
		if elapsed >= e.At {
			p = e.Partition
		}
	}
	return p
}

// Stats snapshots the fault counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

func (t *Transport) addStat(f func(*Stats)) {
	t.mu.Lock()
	f(&t.stats)
	t.mu.Unlock()
}

// Dial dials through the inner transport unless a partition or an
// injected dial failure intervenes.
func (t *Transport) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	if t.Partitioned() {
		t.addStat(func(s *Stats) { s.DialsBlocked++ })
		return nil, fmt.Errorf("%q: %w", addr, ErrPartitioned)
	}
	if t.cfg.DialFail > 0 {
		t.mu.Lock()
		fail := t.dialRNG.Bool(t.cfg.DialFail)
		if fail {
			t.stats.DialsFailed++
		}
		t.mu.Unlock()
		if fail {
			return nil, fmt.Errorf("%q: %w", addr, ErrInjectedDialFailure)
		}
	}
	c, err := t.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return t.newConn(c, t.dialed.Add(1)<<1), nil
}

// Listen listens through the inner transport; accepted conns are
// wrapped with injection.
func (t *Transport) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &listener{t: t, inner: l}, nil
}

type listener struct {
	t     *Transport
	inner transport.Listener
}

// Accept hands over the next conn dialed in while the node is in range.
// One that arrives during a partition is closed at once and counted as
// a blocked dial: a node out of range answers no dial, and its dialer
// sees the conn end instead of waiting out its handshake deadline for a
// hello that would be dropped.
func (l *listener) Accept(ctx context.Context) (transport.Conn, error) {
	for {
		c, err := l.inner.Accept(ctx)
		if err != nil {
			return nil, err
		}
		if !l.t.Partitioned() {
			return l.t.newConn(c, l.t.accepted.Add(1)<<1|1), nil
		}
		l.t.addStat(func(s *Stats) { s.DialsBlocked++ })
		c.Close()
	}
}

func (l *listener) Addr() string { return l.inner.Addr() }
func (l *listener) Close() error { return l.inner.Close() }

// conn is one faulty link: sends run the fault pipeline, receives pass
// through to the inner conn unless a partition drops them.
type conn struct {
	t     *Transport
	inner transport.Conn
	rng   *rng.Rand // Send's, like held
	held  wire.Msg  // the one message a reorder roll holds back
	done  chan struct{}
	once  sync.Once
}

// newConn wraps inner. Each conn's fault stream is seeded from the
// master seed and seq — the conn's direction bit under its
// per-direction creation number — so decisions are independent per conn
// and reproducible for a fixed seed.
func (t *Transport) newConn(inner transport.Conn, seq uint64) *conn {
	return &conn{
		t:     t,
		inner: inner,
		rng:   rng.New(t.cfg.Seed ^ seq*0x9e3779b97f4a7c15),
		done:  make(chan struct{}),
	}
}

// Send applies the fault pipeline to m: a reorder roll may hold it back
// one slot, to go out right after the next message — at most one is
// held, and a conn that dies first simply loses it, which is just
// another drop. Faults the peer would only see as silence return nil;
// an error means ctx ended, the conn closed, or the inner conn failed.
func (c *conn) Send(ctx context.Context, m wire.Msg) error {
	select {
	case <-c.done:
		return transport.ErrClosed
	default:
	}
	if c.held == nil && c.rng.Bool(c.t.cfg.Reorder) {
		c.t.addStat(func(s *Stats) { s.Reordered++ })
		c.held = m
		return nil
	}
	if err := c.process(ctx, m); err != nil {
		return err
	}
	held := c.held
	c.held = nil
	if held == nil {
		return nil
	}
	return c.process(ctx, held)
}

// Recv returns the next frame that arrives outside a partition; one
// taken while partitioned was never heard, and is counted as dropped.
func (c *conn) Recv(ctx context.Context) (wire.Msg, error) {
	for {
		m, err := c.inner.Recv(ctx)
		if err != nil || !c.t.Partitioned() {
			return m, err
		}
		c.t.addStat(func(s *Stats) { s.PartitionDropped++ })
	}
}

func (c *conn) Close() error {
	c.once.Do(func() { close(c.done) })
	return c.inner.Close()
}

func (c *conn) LocalAddr() string  { return c.inner.LocalAddr() }
func (c *conn) RemoteAddr() string { return c.inner.RemoteAddr() }

// process runs one message through the fault rolls — partition, drop,
// delay, corruption, delivery (possibly doubled), then an abrupt-kill
// roll — and forwards the survivors to the inner conn. A delay waits on
// ctx and on Close.
func (c *conn) process(ctx context.Context, m wire.Msg) error {
	cfg := &c.t.cfg
	c.t.addStat(func(s *Stats) { s.Sent++ })
	// An abrupt-kill roll fires whether or not the message survives the
	// other faults, mimicking a contact that walks out of radio range
	// mid-conversation.
	kill := c.rng.Bool(cfg.Kill)
	defer func() {
		if kill {
			c.t.addStat(func(s *Stats) { s.Killed++ })
			c.Close()
		}
	}()

	if c.t.Partitioned() {
		c.t.addStat(func(s *Stats) { s.PartitionDropped++ })
		return nil
	}
	if c.rng.Bool(cfg.Drop) {
		c.t.addStat(func(s *Stats) { s.Dropped++ })
		return nil
	}
	if cfg.DelayMax > 0 {
		d := cfg.DelayMin + time.Duration(c.rng.Float64()*float64(cfg.DelayMax-cfg.DelayMin))
		if d > 0 {
			c.t.addStat(func(s *Stats) { s.Delayed++ })
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			case <-c.done:
				return transport.ErrClosed
			}
		}
	}
	if c.rng.Bool(cfg.Corrupt) {
		mutated, verdict := c.corrupt(m)
		switch verdict {
		case corruptKill:
			c.t.addStat(func(s *Stats) { s.CorruptKilled++ })
			kill = true
			return nil
		case corruptDrop:
			c.t.addStat(func(s *Stats) { s.CorruptDropped++ })
			return nil
		default:
			c.t.addStat(func(s *Stats) { s.CorruptDelivered++ })
			m = mutated
		}
	}
	if err := c.inner.Send(ctx, m); err != nil {
		return err
	}
	c.t.addStat(func(s *Stats) { s.Delivered++ })
	if c.rng.Bool(cfg.Duplicate) {
		if err := c.inner.Send(ctx, m); err != nil {
			return err
		}
		c.t.addStat(func(s *Stats) { s.Duplicated++ })
	}
	return nil
}

type corruptVerdict int

const (
	corruptDeliver corruptVerdict = iota // mutation still decodes: deliver it
	corruptDrop                          // malformed body: transport would resync past it
	corruptKill                          // framing garbage: transport would close
)

// corrupt flips bytes in m's encoding and resolves the mutation the way
// the transport's decode policy would.
func (c *conn) corrupt(m wire.Msg) (wire.Msg, corruptVerdict) {
	frame := CorruptFrame(c.rng, wire.Encode(m))
	got, err := wire.Decode(frame)
	switch {
	case err == nil:
		return got, corruptDeliver
	case errors.Is(err, wire.ErrBadMagic), errors.Is(err, wire.ErrVersion):
		return nil, corruptKill
	default:
		return nil, corruptDrop
	}
}

// CorruptFrame flips 1–4 bytes of frame at random offsets, returning a
// fresh slice. Exported so the wire fuzz corpus can be grown from the
// exact mutations the injector produces.
func CorruptFrame(r *rng.Rand, frame []byte) []byte {
	out := make([]byte, len(frame))
	copy(out, frame)
	if len(out) == 0 {
		return out
	}
	flips := 1 + r.Intn(4)
	for i := 0; i < flips; i++ {
		out[r.Intn(len(out))] ^= byte(1 + r.Intn(255))
	}
	return out
}
