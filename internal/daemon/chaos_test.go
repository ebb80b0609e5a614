package daemon

import (
	"context"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

func waitLong(t *testing.T, limit time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestChaosSoak is the tentpole robustness check: a seed and a leech
// run over the fault injector at 30% drop + 20% corruption, with
// duplication, reordering, random conn kills, dial failures, added
// latency, and one scripted partition — and the download must still
// complete, with every piece checksum-verified, race-clean. The fixed
// seed makes the fault streams reproducible run to run.
//
// The recovery paths this leans on, all exercised in one run: redial
// with backoff after kills, flap demotion, the per-piece ResendAfter
// deadline (hello advertisement as implicit NACK), stall re-drives
// against the retry budget, duplicate dedup, and bad-signature
// tolerance for in-flight corruption.
//
// -short shrinks the partition so the CI smoke finishes quickly;
// `make chaos` runs the full 10 s outage.
func TestChaosSoak(t *testing.T) {
	partition := 10 * time.Second
	limit := 90 * time.Second
	if testing.Short() {
		partition = 2 * time.Second
		limit = 45 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	healAt := time.Second + partition
	t0 := time.Now()
	chaos := fault.Wrap(net, fault.Config{
		Seed:      42,
		Drop:      0.30,
		Corrupt:   0.20,
		Duplicate: 0.05,
		Reorder:   0.05,
		Kill:      0.002,
		DialFail:  0.10,
		DelayMax:  time.Millisecond,
		Schedule: []fault.Event{
			{At: time.Second, Partition: true},
			{At: healAt, Partition: false},
		},
	})

	// Redial must stay fast after the partition heals: cap the backoff
	// well under the outage length so reconnection is not the long pole.
	bo := transport.Backoff{Min: 2 * time.Millisecond, Max: 250 * time.Millisecond, Jitter: -1}

	seedCfg := fastCfg(1, chaos)
	seedCfg.ListenAddr = "seed"
	seedCfg.InternetAccess = true
	seedCfg.PublishFiles = 1
	seedCfg.FileSize = 64 * 1024 // 16 pieces at 4 KB: several hellos' worth
	seedCfg.PieceSize = 4 * 1024
	seedCfg.PiecesPerHello = 4
	seedCfg.Backoff = bo
	seed, err := New(seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	leechCfg := fastCfg(2, chaos)
	leechCfg.PeerAddrs = []string{"seed"}
	leechCfg.Queries = []string{"f0"}
	leechCfg.RetryBudget = 64 // a long partition burns stall retries
	leechCfg.Backoff = bo
	leech, err := New(leechCfg)
	if err != nil {
		t.Fatal(err)
	}
	start(ctx, seed)
	start(ctx, leech)

	waitLong(t, limit, func() bool { return leech.Completed(metadata.URIFor(0)) },
		"download completion under chaos")

	// Hold the line until the outage window has fully passed: even if
	// the transfer won its race with the partition, the hello beacons
	// keep running into it, so the injector's partition counters always
	// see traffic before we sample them.
	if rest := time.Until(t0.Add(healAt + 500*time.Millisecond)); rest > 0 {
		time.Sleep(rest)
	}

	// The injector really did its job.
	fs := chaos.Stats()
	if fs.Dropped == 0 {
		t.Fatalf("no drops injected: %+v", fs)
	}
	if fs.CorruptDelivered+fs.CorruptDropped+fs.CorruptKilled == 0 {
		t.Fatalf("no corruption injected: %+v", fs)
	}
	if fs.PartitionDropped+fs.DialsBlocked == 0 {
		t.Fatalf("partition never touched traffic: %+v", fs)
	}

	// And the healing paths it was meant to exercise saw real work.
	ls, ss := leech.Stats(), seed.Stats()
	if ls.PiecesVerified < 16 {
		t.Fatalf("leech verified %d pieces, want all 16", ls.PiecesVerified)
	}
	if ss.PiecesResent == 0 && ls.PiecesDuplicate == 0 {
		t.Fatalf("no resends or duplicates despite 30%% drop: seed %+v leech %+v", ss, ls)
	}
	if ls.PiecesRejected+ls.BadSignatures+ls.PiecesDroppedNoMetadata == 0 &&
		fs.CorruptDelivered > 0 {
		t.Logf("note: %d corrupt frames delivered but none reached verification", fs.CorruptDelivered)
	}

	// After the storm the daemons settle back to healthy.
	waitLong(t, 30*time.Second, func() bool { return leech.Health().Status == "ok" },
		"leech to report healthy after the partition heals")
}

// TestChaosFloodSoak layers overload on top of the injector: a raw
// connection floods the seed at ~10× its per-peer admission rate while
// the link also drops and corrupts frames. Shedding and Busy pacing
// must hold up when the Busy frames themselves can be lost — the
// flooder just keeps getting shed — and the legitimate download must
// still complete.
func TestChaosFloodSoak(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	chaos := fault.Wrap(net, fault.Config{
		Seed:      7,
		Drop:      0.15,
		Corrupt:   0.05,
		Duplicate: 0.05,
		DelayMax:  time.Millisecond,
	})
	bo := transport.Backoff{Min: 2 * time.Millisecond, Max: 250 * time.Millisecond, Jitter: -1}

	seedCfg := fastCfg(1, chaos)
	seedCfg.ListenAddr = "seed"
	seedCfg.InternetAccess = true
	seedCfg.PublishFiles = 1
	seedCfg.PeerRate = floodRate
	seedCfg.BusyRetryAfter = 50 * time.Millisecond
	seedCfg.Backoff = bo
	seed, err := New(seedCfg)
	if err != nil {
		t.Fatal(err)
	}
	leechCfg := fastCfg(2, chaos)
	leechCfg.PeerAddrs = []string{"seed"}
	leechCfg.Queries = []string{"f0"}
	leechCfg.RetryBudget = 64
	leechCfg.Backoff = bo
	leech, err := New(leechCfg)
	if err != nil {
		t.Fatal(err)
	}
	start(ctx, seed)
	start(ctx, leech)
	waitLong(t, 30*time.Second, func() bool { return len(leech.Manager().Peers()) == 1 },
		"legit hello exchange")

	// The flooder redials when corruption kills its link — a determined
	// abuser does not give up because one connection died.
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
		for floodCtx.Err() == nil {
			conn, err := chaos.Dial(floodCtx, "seed")
			if err != nil {
				select {
				case <-floodCtx.Done():
				case <-tick.C:
				}
				continue
			}
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for {
					if _, err := conn.Recv(floodCtx); err != nil {
						return
					}
				}
			}()
			last := time.Now()
			for alive := true; alive; {
				select {
				case <-floodCtx.Done():
				case <-tick.C:
				}
				for n := floodBurst(&last); n > 0 && alive; n-- {
					alive = floodCtx.Err() == nil && conn.Send(floodCtx, hello) == nil
				}
			}
			conn.Close()
			<-drained
		}
	}()

	waitLong(t, 60*time.Second, func() bool { return leech.Completed(metadata.URIFor(0)) },
		"download completion under flood + faults")
	waitLong(t, 30*time.Second, func() bool { return seed.Stats().Transport.InboundShed > 0 },
		"admission shedding under faults")

	stopFlood()
	<-floodDone
	cancel()

	st := seed.Stats()
	if st.BusyReplies == 0 {
		t.Fatalf("seed sent no Busy replies under flood: %+v", st)
	}
	if fs := chaos.Stats(); fs.Dropped == 0 {
		t.Fatalf("no drops injected: %+v", fs)
	}
}
