package limit

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

func TestBucketBasics(t *testing.T) {
	clk := testutil.NewClock()
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
	clk := testutil.NewClock()
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
	clk := testutil.NewClock()
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
	clk := testutil.NewClock()
	b := NewBucket(10, 4, clk.Now)
	b.Allow()
	before := b.Tokens()
	clk.Advance(-time.Hour)
	if got := b.Tokens(); got < before-1e-9 {
		t.Fatalf("backwards clock drained bucket: %v -> %v", before, got)
	}
}

func TestBucketRetryAfter(t *testing.T) {
	clk := testutil.NewClock()
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
	clk := testutil.NewClock()
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
		clk := testutil.NewClock()
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
