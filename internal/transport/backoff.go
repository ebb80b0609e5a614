package transport

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/rng"
)

// Backoff generates exponentially growing, jittered retry delays. The
// zero value uses the defaults noted on each field.
type Backoff struct {
	// Min is the first delay (default 100ms).
	Min time.Duration
	// Max caps the delay growth (default 15s).
	Max time.Duration
	// Factor multiplies the delay each attempt (default 2).
	Factor float64
	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter]
	// times the nominal value, de-synchronizing reconnect storms
	// (default 0.5; set negative for exactly zero jitter).
	Jitter float64
	// Rand drives jitter draws. Defaults to a clock-seeded source; fix
	// it for deterministic tests.
	Rand *rng.Rand
}

func (b Backoff) min() time.Duration {
	if b.Min > 0 {
		return b.Min
	}
	return 100 * time.Millisecond
}

func (b Backoff) max() time.Duration {
	if b.Max > 0 {
		return b.Max
	}
	return 15 * time.Second
}

func (b Backoff) factor() float64 {
	if b.Factor > 1 {
		return b.Factor
	}
	return 2
}

func (b Backoff) jitter() float64 {
	switch {
	case b.Jitter < 0:
		return 0
	case b.Jitter == 0:
		return 0.5
	default:
		return math.Min(b.Jitter, 1)
	}
}

// Delay returns the wait before retry number attempt (0-based).
func (b Backoff) Delay(attempt int) time.Duration {
	d := float64(b.min()) * math.Pow(b.factor(), float64(attempt))
	d = math.Min(d, float64(b.max()))
	if j := b.jitter(); j > 0 {
		var u float64
		if b.Rand != nil {
			u = b.Rand.Float64()
		} else {
			u = globalJitter()
		}
		d *= 1 - j + 2*j*u
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// jitterMu guards jitterRand, a process-wide clock-seeded source.
var (
	jitterMu   sync.Mutex
	jitterRand = rng.New(uint64(time.Now().UnixNano()))
)

func globalJitter() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterRand.Float64()
}

// DialBackoff dials addr, retrying with exponential backoff and jitter
// until a connection is established or ctx ends. Cancellation is
// honored everywhere: before the first dial, mid-dial (when the inner
// transport cooperates), and mid-sleep. A version mismatch
// (ErrVersionMismatch) stops the retry loop immediately — the peer is
// healthy but incompatible, and no amount of redialing fixes that.
func DialBackoff(ctx context.Context, tr Transport, addr string, b Backoff) (Conn, error) {
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := tr.Dial(ctx, addr)
		if err == nil {
			return c, nil
		}
		if errors.Is(err, ErrVersionMismatch) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		timer.Reset(b.Delay(attempt))
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
