package testutil

import (
	"sync"
	"time"
)

// Clock is a hand-driven time source for the live stack's clock seams
// (daemon, peer, bcast, dht, limit): it reads the same instant until a
// test advances it, so "expired?", "stalled?", "refilled?" are decided
// by the test, never by how long it took to run. Safe for concurrent use.
type Clock struct {
	mu sync.Mutex
	t  time.Time
}

// NewClock starts at a fixed instant well clear of the Unix epoch, so
// protocol time (Unix milliseconds) is a large positive number as it is
// on a real node.
func NewClock() *Clock { return &Clock{t: time.Unix(1_700_000_000, 0)} }

// Now reads the clock; pass the method value wherever a func() time.Time
// is wanted.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock by d — backwards for a negative d, the skew a
// limiter must survive.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}
