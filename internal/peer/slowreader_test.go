package peer

import (
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// helloClock records when each hello from one peer was dispatched.
type helloClock struct {
	*recorder
	from trace.NodeID
	mu   sync.Mutex
	at   []time.Time
}

func (h *helloClock) Handle(from trace.NodeID, msg wire.Msg) {
	if msg.Type() != wire.TypeHello {
		h.recorder.Handle(from, msg)
		return
	}
	if from != h.from {
		return
	}
	h.mu.Lock()
	h.at = append(h.at, time.Now())
	h.mu.Unlock()
}

// worstGap is the longest hello inter-arrival seen since start,
// counting the still-open gap up to now.
func (h *helloClock) worstGap(start time.Time) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	worst, prev := time.Duration(0), start
	for _, at := range h.at {
		if at.Before(start) {
			continue
		}
		worst = max(worst, at.Sub(prev))
		prev = at
	}
	return max(worst, time.Since(prev))
}

// rawFrame is one message as the TCP transport frames it: a 4-byte
// big-endian length, then the wire encoding.
func rawFrame(m wire.Msg) []byte {
	body := wire.Encode(m)
	out := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(out, uint32(len(body)))
	return append(out, body...)
}

// TestSlowReaderDoesNotStallHealthyPeers is the head-of-line test for
// the send path, over real TCP: peer C handshakes, keeps beaconing and
// never reads a byte while tens of MiB of piece frames are queued to it;
// healthy peer B must keep hearing A's hellos on the beacon clock and
// never expire A, and C must be dropped by its own write deadline, not
// by liveness and not by anything B can observe.
func TestSlowReaderDoesNotStallHealthyPeers(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	const (
		interval = 250 * time.Millisecond
		window   = 8 * interval
		observe  = 12 * interval
	)
	tr := &transport.TCP{}
	cfg := func(self trace.NodeID, h Handler) Config {
		c := fastCfg(self, h)
		c.HelloInterval, c.LivenessWindow = interval, window
		return c
	}

	a := NewManager(cfg(1, newRecorder()))
	lis, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	var wg sync.WaitGroup
	defer wg.Wait()
	defer a.Close()
	defer cancel()
	spawn := func(f func()) {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	spawn(func() { a.Serve(ctx, lis) })
	spawn(func() { beat(ctx, a) })

	clock := &helloClock{recorder: newRecorder(), from: 1}
	b := NewManager(cfg(2, clock))
	defer b.Close()
	spawn(func() { b.Connect(ctx, tr, lis.Addr()) })
	spawn(func() { beat(ctx, b) })

	// C: a raw socket that speaks just enough protocol to stay a live
	// peer — one hello per interval — and never reads.
	c, err := net.Dial("tcp", lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hello := rawFrame(&wire.Hello{From: 3})
	spawn(func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if _, err := c.Write(hello); err != nil {
				return
			}
			select {
			case <-tick.C:
			case <-ctx.Done():
				return
			}
		}
	})
	waitFor(t, func() bool { return len(a.Peers()) == 2 && len(b.Peers()) == 1 }, "B and C to register with A")

	// 48 MiB of piece frames to C: past the kernel's socket buffers and
	// the conn's own frame queue, so C's link is wedged solid.
	piece := &wire.Piece{URI: metadata.URIFor(0), Total: 1, Data: make([]byte, 256<<10)}
	start := time.Now()
	for i := 0; i < 192; i++ {
		if err := a.Send(3, piece); err != nil {
			t.Fatalf("piece %d to the slow reader: %v", i, err)
		}
	}
	if took := time.Since(start); took > interval {
		t.Fatalf("queueing to a non-reading peer took %v; Send must not block", took)
	}

	time.Sleep(observe)
	if gap := clock.worstGap(start); gap >= 2*interval {
		t.Fatalf("healthy peer's worst hello inter-arrival = %v, want < %v", gap, 2*interval)
	}
	if st := b.Stats(); st.Expiries != 0 || len(b.Peers()) != 1 {
		t.Fatalf("healthy peer lost the sender: expiries %d, peers %v", st.Expiries, b.Peers())
	}
	if q := a.Queues(); q.DataDepth == 0 {
		t.Fatalf("no data queued behind the wedged link: %+v", q)
	}
	if testing.Short() {
		return // the write deadline is 10 s away
	}

	// C's link dies at the transport's write deadline, taking only its
	// own session and its own queue with it.
	deadline := time.Now().Add(transport.WriteTimeout + 10*time.Second)
	// (The session leaves the table before its writer is joined and the
	// drop is counted, so wait for the count, not only for the table.)
	for len(a.Peers()) != 1 || a.Stats().Drops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow reader still registered %v after its write deadline", time.Since(start))
		}
		time.Sleep(50 * time.Millisecond)
	}
	st, q := a.Stats(), a.Queues()
	if st.Expiries != 0 || st.Drops != 1 {
		t.Fatalf("slow reader left by expiries %d / drops %d, want 0 / 1 (its write deadline)", st.Expiries, st.Drops)
	}
	if q.DropsData == 0 || q.DataDepth != 0 || q.ControlDepth != 0 {
		t.Fatalf("dead session's queue: %+v; want its frames counted as drops and nothing left", q)
	}
	gap := clock.worstGap(start)
	t.Logf("slow reader dropped after %v; healthy peer's worst hello inter-arrival %v at a %v beacon",
		time.Since(start).Round(time.Millisecond), gap.Round(time.Millisecond), interval)
	if gap >= 2*interval {
		t.Fatalf("healthy peer's worst hello inter-arrival = %v across the slow reader's death, want < %v", gap, 2*interval)
	}
	if st := b.Stats(); st.Expiries != 0 {
		t.Fatalf("healthy peer expired the sender %d times", st.Expiries)
	}
}
