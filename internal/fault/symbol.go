package fault

import (
	"context"
	"sync"

	"repro/internal/rng"
	"repro/internal/transport"
	"repro/internal/wire"
)

// WrapSymbols decorates a symbol-lane endpoint with the injector's
// datagram faults, sharing the Transport's partitions (schedule and
// Cut) and stats but drawing from its own RNG stream (derived from the
// master seed), so shaping the lane never perturbs the frame-level
// fault sequences of the wrapped conns.
//
// Datagram faults are simpler than conn faults because the lane's
// contract is already "may be lost": SymbolLoss drops each outgoing
// datagram independently, an active partition drops everything sent
// and everything received, and a Corrupt roll mutates the frame and
// delivers it only if it still decodes — a corrupted datagram that no
// longer parses is just loss, never a reason to tear the lane down.
// Delivered-but-corrupt symbols are the interesting case: they parse,
// fail wire.Symbol's payload check at the receiver, and must not poison
// its decoder.
func (t *Transport) WrapSymbols(inner transport.BroadcastConn) transport.BroadcastConn {
	// Stream 0 is the dial RNG and conn streams start at 1, so key the
	// lane's stream far away from the conn-counter sequence.
	return &symbolConn{
		t:     t,
		inner: inner,
		rng:   rng.New(t.cfg.Seed ^ 0x5CA1AB1E5CA1AB1E),
	}
}

// symbolConn is one fault-shaped symbol-lane endpoint.
type symbolConn struct {
	t     *Transport
	inner transport.BroadcastConn

	mu  sync.Mutex // Send is any-goroutine; the RNG stream is not
	rng *rng.Rand
}

func (c *symbolConn) Send(ctx context.Context, m wire.Msg) error {
	cfg := &c.t.cfg
	c.t.addStat(func(s *Stats) { s.SymbolsSent++ })
	if c.t.Partitioned() {
		c.t.addStat(func(s *Stats) { s.SymbolsPartitionDropped++ })
		return nil
	}
	c.mu.Lock()
	lost := c.rng.Bool(cfg.SymbolLoss)
	corrupt := !lost && c.rng.Bool(cfg.Corrupt)
	var mutated wire.Msg
	if corrupt {
		frame := CorruptFrame(c.rng, wire.Encode(m))
		mutated, _ = wire.Decode(frame)
	}
	c.mu.Unlock()
	if lost {
		c.t.addStat(func(s *Stats) { s.SymbolsLost++ })
		return nil
	}
	if corrupt {
		if mutated == nil {
			// The mutation broke framing; on a datagram lane that is
			// indistinguishable from loss.
			c.t.addStat(func(s *Stats) { s.SymbolsCorruptLost++ })
			return nil
		}
		c.t.addStat(func(s *Stats) { s.SymbolsCorruptDelivered++ })
		m = mutated
	}
	if err := c.inner.Send(ctx, m); err != nil {
		return err
	}
	c.t.addStat(func(s *Stats) { s.SymbolsDelivered++ })
	return nil
}

// Recv returns the next datagram that arrives outside a partition.
func (c *symbolConn) Recv(ctx context.Context) (wire.Msg, error) {
	for {
		m, err := c.inner.Recv(ctx)
		if err != nil || !c.t.Partitioned() {
			return m, err
		}
		c.t.addStat(func(s *Stats) { s.SymbolsPartitionDropped++ })
	}
}

func (c *symbolConn) Close() error { return c.inner.Close() }
func (c *symbolConn) Addr() string { return c.inner.Addr() }
