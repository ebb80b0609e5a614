// Package limit provides the admission-control primitive the
// overload-protection layer is built from: a token-bucket rate limiter,
// stdlib-only, on a clock its owner supplies — the daemon hands every
// bucket its one clock, tests a hand-driven one.
package limit

import (
	"sync"
	"time"
)

// Clock is the time source a limiter samples. A nil Clock means
// time.Now.
type Clock func() time.Time

// Bucket is a classic token bucket: capacity Burst tokens, refilled at
// Rate tokens per second. Allow spends one token when available. The
// zero value is unusable; construct with NewBucket.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    Clock
}

// NewBucket returns a bucket refilling at rate tokens/second with the
// given capacity. A non-positive burst defaults to 2×rate so short
// legitimate spikes ride through, and every burst is floored at 1: a
// bucket that cannot hold one whole token would refuse forever, which is
// a lock-out, not a rate. The bucket starts full.
func NewBucket(rate, burst float64, now Clock) *Bucket {
	if burst <= 0 {
		burst = 2 * rate
	}
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

// refill advances the bucket to the clock's current reading. Caller
// holds b.mu. Time moving backwards (clock skew) is treated as zero
// elapsed, never as a drain.
func (b *Bucket) refill() {
	t := b.now()
	elapsed := t.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
}

// Allow spends one token if available.
func (b *Bucket) Allow() bool { return b.AllowN(1) }

// AllowN spends n tokens if all are available; partial spends never
// happen, so the balance cannot go negative.
func (b *Bucket) AllowN(n float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// Tokens reports the current balance after refill (test/diagnostic
// hook).
func (b *Bucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill()
	return b.tokens
}
