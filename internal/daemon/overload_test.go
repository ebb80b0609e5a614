package daemon

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestHealthzSaturationRecovers: a peer's saturated data lane degrades
// /healthz; draining it walks the verdict back to ok — the reason must
// read live state, not latch.
func TestHealthzSaturationRecovers(t *testing.T) {
	const lane = 4
	d := bench(t, func(c *Config) { c.OutboxLen = lane })
	p := wedge(t, d, 2)
	piece := &wire.Piece{URI: metadata.URIFor(0), Index: 0, Total: 1, Data: []byte("x")}
	for i := 0; i < lane; i++ {
		d.mgr.Send(2, piece)
	}
	h := d.Health()
	if h.Status != "degraded" {
		t.Fatalf("health = %q with a saturated data lane, want degraded", h.Status)
	}
	found := false
	for _, r := range h.Reasons {
		if strings.Contains(r, "saturated") {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons = %v, want a saturation reason", h.Reasons)
	}
	if h.OutboxDataDepth != lane || h.OutboxControlDepth != 0 {
		t.Fatalf("depths = control %d, data %d", h.OutboxControlDepth, h.OutboxDataDepth)
	}
	if got := p.flush(); len(got) != lane {
		t.Fatalf("the peer received %d frames, want the %d queued", len(got), lane)
	}
	if h := d.Health(); h.Status != "ok" {
		t.Fatalf("health = %q %v after draining, want ok", h.Status, h.Reasons)
	}
}

// floodRate is the per-peer admission rate the flood tests configure on
// their victim (legit traffic at ~100/s fits; the flood does not).
const floodRate = 200

// floodBurst sizes one tick of a test flood: 5× the admission rate over
// the time since the previous tick. A bare 1 ms ticker offers 1000/s
// only while the scheduler honours it; on a busy box ticks coalesce and
// the offered rate sinks under the admission rate, so nothing is shed.
// Sized from elapsed time, the flood is a flood at any granularity.
func floodBurst(last *time.Time) int {
	now := time.Now()
	n := int(5 * floodRate * now.Sub(*last).Seconds())
	*last = now
	return max(n, 1)
}

// TestFloodVictimStaysLive is the overload acceptance test: one raw
// connection floods the victim's listener at ~10× its per-peer rate
// while a legitimate daemon downloads a file from it. The victim must
// shed the flood (answering with Busy), go degraded while shedding,
// serve the legitimate peer to completion throughout, and report
// healthy again once the flood stops.
func TestFloodVictimStaysLive(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()

	victimCfg := fastCfg(1, net)
	victimCfg.ListenAddr = "victim"
	victimCfg.InternetAccess = true
	victimCfg.PublishFiles = 1
	victimCfg.PeerRate = floodRate
	victimCfg.BusyRetryAfter = 50 * time.Millisecond
	victim, err := New(victimCfg)
	if err != nil {
		t.Fatal(err)
	}

	legitCfg := fastCfg(2, net)
	legitCfg.PeerAddrs = []string{"victim"}
	legitCfg.Queries = []string{"f0"}
	legit, err := New(legitCfg)
	if err != nil {
		t.Fatal(err)
	}

	start(ctx, victim)
	start(ctx, legit)
	waitFor(t, func() bool { return len(legit.Manager().Peers()) == 1 }, "legit hello exchange")

	// The flooder speaks just enough protocol to register: a hello
	// handshake, then hellos advertising a download in per-tick bursts —
	// ≥ 1000/s against a 200/s admission rate. A reader drains the
	// victim's replies and counts the Busy frames among them.
	conn, err := net.Dial(ctx, "victim")
	if err != nil {
		t.Fatal(err)
	}
	var busySeen atomic.Uint64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			m, err := conn.Recv(ctx)
			if err != nil {
				return
			}
			if m.Type() == wire.TypeBusy {
				busySeen.Add(1)
			}
		}
	}()
	floodCtx, stopFlood := context.WithCancel(ctx)
	defer stopFlood()
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		hello := &wire.Hello{
			From:        99,
			Queries:     []string{"f0"},
			Downloading: []metadata.URI{metadata.URIFor(0)},
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-floodCtx.Done():
				return
			case <-tick.C:
			}
			for n := floodBurst(&last); n > 0; n-- {
				if err := conn.Send(floodCtx, hello); err != nil {
					return
				}
			}
		}
	}()

	// While the flood runs: the victim sheds, degrades, and answers
	// Busy — and still completes the legitimate download.
	waitFor(t, func() bool { return victim.Stats().Transport.InboundShed > 0 }, "admission shedding")
	waitFor(t, func() bool { return victim.Health().Status == "degraded" }, "degraded under flood")
	waitFor(t, func() bool { return busySeen.Load() > 0 }, "flooder received Busy")
	waitFor(t, func() bool { return legit.Completed(metadata.URIFor(0)) }, "legit download under flood")

	stopFlood()
	<-floodDone
	conn.Close()
	<-readerDone

	st := victim.Stats()
	if st.BusyReplies == 0 {
		t.Fatalf("victim sent no Busy replies: %+v", st)
	}
	if st.Transport.BusySent == 0 {
		t.Fatal("transport layer counted no Busy sends")
	}
	// Recovery: once the flood stops, the shed window ages out and the
	// verdict walks back to ok.
	waitFor(t, func() bool { return victim.Health().Status == "ok" }, "health recovery after flood")
}
