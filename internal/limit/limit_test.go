package limit

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-driven time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBucketBasics(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(10, 5, clk.Now)
	// Starts full: exactly burst tokens available.
	for i := 0; i < 5; i++ {
		if !b.Allow() {
			t.Fatalf("token %d denied from a full bucket", i)
		}
	}
	if b.Allow() {
		t.Fatal("allowed past burst with no time elapsed")
	}
	// 100ms at 10/s refills one token.
	clk.Advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("denied after refill interval")
	}
	if b.Allow() {
		t.Fatal("allowed two tokens after one refill interval")
	}
}

// TestBucketNeverNegative drives a random schedule of spends and
// advances and checks the invariants: the balance never goes below
// zero, never exceeds burst, and a denied AllowN leaves it unchanged.
func TestBucketNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	clk := newFakeClock()
	b := NewBucket(50, 10, clk.Now)
	for i := 0; i < 5000; i++ {
		switch rng.Intn(3) {
		case 0:
			before := b.Tokens()
			n := float64(1 + rng.Intn(4))
			ok := b.AllowN(n)
			after := b.Tokens()
			if after < 0 {
				t.Fatalf("step %d: balance went negative: %v", i, after)
			}
			if !ok && after < before-1e-9 {
				t.Fatalf("step %d: denied AllowN drained tokens: %v -> %v", i, before, after)
			}
		case 1:
			clk.Advance(time.Duration(rng.Intn(40)) * time.Millisecond)
		default:
			if got := b.Tokens(); got > 10+1e-9 {
				t.Fatalf("step %d: balance exceeded burst: %v", i, got)
			}
		}
	}
}

// TestBucketRefillMonotone checks that under a frozen clock repeated
// reads do not change the balance, and that advancing the clock never
// lowers it.
func TestBucketRefillMonotone(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(7, 20, clk.Now)
	for i := 0; i < 15; i++ {
		b.Allow()
	}
	prev := b.Tokens()
	if got := b.Tokens(); got != prev {
		t.Fatalf("balance drifted under frozen clock: %v -> %v", prev, got)
	}
	for i := 0; i < 200; i++ {
		clk.Advance(13 * time.Millisecond)
		got := b.Tokens()
		if got+1e-9 < prev {
			t.Fatalf("refill not monotone: %v -> %v", prev, got)
		}
		prev = got
	}
}

func TestBucketClockSkewBackwards(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(10, 4, clk.Now)
	b.Allow()
	before := b.Tokens()
	clk.Advance(-time.Hour)
	if got := b.Tokens(); got < before-1e-9 {
		t.Fatalf("backwards clock drained bucket: %v -> %v", before, got)
	}
}

func TestBucketRetryAfter(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(10, 1, clk.Now)
	if d := b.RetryAfter(); d != 0 {
		t.Fatalf("full bucket RetryAfter = %v, want 0", d)
	}
	b.Allow()
	d := b.RetryAfter()
	if d <= 0 || d > 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want (0, 100ms]", d)
	}
	clk.Advance(d)
	if !b.Allow() {
		t.Fatal("denied after waiting the advertised RetryAfter")
	}
}

// TestBucketBurstEqualsRate is the catalog's configuration (burst =
// rate, so "rate per second" reads like a window): a drained bucket is
// whole again one second later and never holds more than the burst, and
// a partial wait buys back exactly its share.
func TestBucketBurstEqualsRate(t *testing.T) {
	clk := newFakeClock()
	b := NewBucket(3, 3, clk.Now)
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			if !b.Allow() {
				t.Fatalf("round %d: event %d denied under the limit", round, i)
			}
		}
		if b.Allow() {
			t.Fatalf("round %d: allowed past the limit", round)
		}
		clk.Advance(time.Second + time.Millisecond)
		if got := b.Tokens(); got != 3 {
			t.Fatalf("round %d: %v tokens a second after draining, want the burst (3) and no more", round, got)
		}
	}

	half := NewBucket(2, 2, clk.Now)
	half.Allow()
	half.Allow()
	clk.Advance(500 * time.Millisecond)
	if !half.Allow() {
		t.Fatal("denied although half a second at 2/s refilled one token")
	}
	if half.Allow() {
		t.Fatal("allowed a second event on one refilled token")
	}
}

// TestBucketSubUnitRate: a rate below one per second still admits — one
// event per 1/rate seconds. Without the burst floor the bucket could
// never hold a whole token and refused every event forever.
func TestBucketSubUnitRate(t *testing.T) {
	for _, burst := range []float64{0, 0.5} {
		clk := newFakeClock()
		b := NewBucket(0.5, burst, clk.Now)
		if !b.Allow() {
			t.Fatalf("burst %v: a full bucket at 0.5/s refused its first event", burst)
		}
		if b.Allow() {
			t.Fatalf("burst %v: allowed a second event at once", burst)
		}
		clk.Advance(2 * time.Second)
		if !b.Allow() {
			t.Fatalf("burst %v: still refusing 1/rate seconds later", burst)
		}
	}
}

// TestBreakerStateMachine walks the closed→open→half-open transitions
// as a table of scripted steps.
func TestBreakerStateMachine(t *testing.T) {
	clk := newFakeClock()
	br := NewBreaker(BreakerConfig{Failures: 3, Cooldown: time.Second, Jitter: -1, Now: clk.Now})
	steps := []struct {
		name    string
		do      func()
		state   BreakerState
		allowed bool
	}{
		{"initially closed", func() {}, Closed, true},
		{"one failure stays closed", br.Failure, Closed, true},
		{"success resets streak", br.Success, Closed, true},
		{"fail 1", br.Failure, Closed, true},
		{"fail 2", br.Failure, Closed, true},
		{"fail 3 trips open", br.Failure, Open, false},
		{"still open mid-cooldown", func() { clk.Advance(500 * time.Millisecond) }, Open, false},
		{"cooldown elapsed admits probe", func() { clk.Advance(600 * time.Millisecond) }, HalfOpen, true},
		{"second probe blocked", func() {}, HalfOpen, false},
		{"probe failure re-opens", br.Failure, Open, false},
		{"second cooldown", func() { clk.Advance(1100 * time.Millisecond) }, HalfOpen, true},
		{"probe success closes", br.Success, Closed, true},
		{"closed again after recovery", func() {}, Closed, true},
	}
	for _, s := range steps {
		s.do()
		if got := br.State(); got != s.state {
			t.Fatalf("%s: state = %v, want %v", s.name, got, s.state)
		}
		if got := br.Allow(); got != s.allowed {
			t.Fatalf("%s: Allow = %v, want %v", s.name, got, s.allowed)
		}
	}
	if br.Opens() != 2 {
		t.Fatalf("Opens = %d, want 2", br.Opens())
	}
	if br.Suppressed() == 0 {
		t.Fatal("no suppressed attempts counted")
	}
}

// TestBreakerJitterBounds trips the breaker many times and checks every
// cooldown lands in [Cooldown, Cooldown*(1+Jitter)] and that the stream
// is not constant.
func TestBreakerJitterBounds(t *testing.T) {
	clk := newFakeClock()
	br := NewBreaker(BreakerConfig{Failures: 1, Cooldown: time.Second, Jitter: 0.5, Now: clk.Now, Seed: 7})
	seen := make(map[time.Duration]bool)
	for i := 0; i < 64; i++ {
		br.Failure() // trips immediately (threshold 1)
		br.mu.Lock()
		d := br.until.Sub(clk.Now())
		br.mu.Unlock()
		if d < time.Second || d > 1500*time.Millisecond {
			t.Fatalf("trip %d: cooldown %v outside [1s, 1.5s]", i, d)
		}
		seen[d] = true
		clk.Advance(2 * time.Second)
		if !br.Allow() { // half-open probe
			t.Fatalf("trip %d: probe denied after cooldown", i)
		}
		br.Success()
	}
	if len(seen) < 2 {
		t.Fatal("jittered cooldowns are constant")
	}
}

func TestSetKeysIndependent(t *testing.T) {
	clk := newFakeClock()
	s := NewSet(BreakerConfig{Failures: 1, Cooldown: time.Second, Now: clk.Now})
	a, b := s.Get("addr-a"), s.Get("addr-b")
	if a == b {
		t.Fatal("distinct keys share a breaker")
	}
	if s.Get("addr-a") != a {
		t.Fatal("same key returned a fresh breaker")
	}
	a.Failure()
	if a.State() != Open {
		t.Fatal("breaker a did not trip")
	}
	if !b.Allow() {
		t.Fatal("tripping a suppressed b")
	}
	st := s.Stats()
	if st.Breakers != 2 || st.Open != 1 || st.Opens != 1 {
		t.Fatalf("Stats = %+v, want 2 breakers, 1 open, 1 trip", st)
	}
}

func TestBucketConcurrent(t *testing.T) {
	b := NewBucket(1e6, 1000, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Allow()
			}
		}()
	}
	wg.Wait()
	if got := b.Tokens(); got < 0 {
		t.Fatalf("balance negative after concurrent spends: %v", got)
	}
}

func BenchmarkLimiterAllow(b *testing.B) {
	bk := NewBucket(float64(b.N)+1e9, float64(b.N)+1e9, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bk.Allow()
	}
}
