package daemon

import (
	"context"
	"repro/internal/stepnet"
	"testing"

	"repro/internal/metadata"
	"repro/internal/trace"
	"repro/internal/transport"
)

// trio spins up the standard broadcast-group topology: node 1 is the
// Internet seed, nodes 2 and 3 query f0, all three are a full unicast
// mesh and share one loopback broadcast domain when withDomain is set.
type trio struct {
	seed, a, b *Daemon
}

func startTrio(t *testing.T, ctx context.Context, tr transport.Transport,
	net *transport.Loopback, withDomain, enableBcast bool, mut func(i int, cfg *Config)) trio {
	t.Helper()
	var dom *transport.BroadcastDomain
	if withDomain {
		dom = net.Domain("radio")
	}
	mk := func(i int, id trace.NodeID, cfg Config) *Daemon {
		cfg.EnableBcast = enableBcast
		if dom != nil && enableBcast {
			conn, err := dom.Join(cfg.ListenAddr)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Broadcast = conn
		}
		if mut != nil {
			mut(i, &cfg)
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		start(ctx, d)
		return d
	}
	seedCfg := fastCfg(1, tr)
	seedCfg.ListenAddr = "seed"
	seedCfg.InternetAccess = true
	seedCfg.PublishFiles = 1
	seedCfg.FileSize = 64 * 1024 // 16 pieces at 4 KB
	seedCfg.PieceSize = 4 * 1024
	aCfg := fastCfg(2, tr)
	aCfg.ListenAddr = "n2"
	aCfg.PeerAddrs = []string{"seed"}
	bCfg := fastCfg(3, tr)
	bCfg.ListenAddr = "n3"
	bCfg.PeerAddrs = []string{"seed", "n2"}
	return trio{
		seed: mk(0, 1, seedCfg),
		a:    mk(1, 2, aCfg),
		b:    mk(2, 3, bCfg),
	}
}

// startDownloads kicks off the shared download on both leech nodes.
// Queries start after group formation on purpose: the point of these
// tests is what happens on the scheduled path, not in the pairwise
// head start before the group confirms.
func (tr3 trio) startDownloads() {
	tr3.a.AddQuery("f0")
	tr3.b.AddQuery("f0")
}

// meshLive reports whether all three nodes see both others as peers.
func meshLive(tr3 trio) bool {
	return len(tr3.seed.Manager().Peers()) == 2 &&
		len(tr3.a.Manager().Peers()) == 2 &&
		len(tr3.b.Manager().Peers()) == 2
}

// groupConfirmed reports whether d sits in a confirmed {1,2,3} group.
func groupConfirmed(d *Daemon) bool {
	st := d.Stats()
	return st.Bcast != nil && st.Bcast.Confirmed && len(st.Bcast.Group) == 3
}

// pieceTransmissions totals piece sends across both paths: every
// pairwise wire.Piece plus every PieceBcast (one broadcast = one
// transmission on the shared medium, however many nodes hear it).
func pieceTransmissions(ds ...*Daemon) uint64 {
	var n uint64
	for _, d := range ds {
		st := d.Stats()
		n += st.Transport.PiecesSent
		if st.Bcast != nil {
			n += st.Bcast.PieceBcastsSent
		}
	}
	return n
}

// TestBcastFewerTransmissions is the paper's §V claim made measurable:
// the same three-node download runs once pairwise and once as a
// broadcast group over a shared medium, and the group run must move
// the file in strictly fewer piece transmissions — one broadcast
// serves both downloaders where the pairwise path pays per receiver.
func TestBcastFewerTransmissions(t *testing.T) {
	const pieces = 16
	f0 := metadata.URIFor(0)

	runOnce := func(enableBcast bool) uint64 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		net := transport.NewLoopback()
		defer net.Close()
		tr3 := startTrio(t, ctx, net, net, enableBcast, enableBcast, nil)
		if enableBcast {
			// Let the group confirm before the download starts, so the
			// schedule — not a pairwise head start — moves the file.
			waitFor(t, waitLimit, func() bool {
				return groupConfirmed(tr3.seed) && groupConfirmed(tr3.a) && groupConfirmed(tr3.b)
			}, "group confirmation")
		} else {
			waitFor(t, waitLimit, func() bool { return meshLive(tr3) }, "mesh")
		}
		tr3.startDownloads()
		waitFor(t, waitLimit, func() bool {
			return tr3.a.Completed(f0) && tr3.b.Completed(f0)
		}, "both downloads")
		return pieceTransmissions(tr3.seed, tr3.a, tr3.b)
	}

	pairwise := runOnce(false)
	grouped := runOnce(true)
	t.Logf("piece transmissions: pairwise=%d grouped=%d (%d pieces, 2 downloaders)",
		pairwise, grouped, pieces)
	if pairwise < 2*pieces {
		t.Fatalf("pairwise run sent %d piece transmissions, expected >= %d", pairwise, 2*pieces)
	}
	if grouped >= pairwise {
		t.Fatalf("grouped run sent %d piece transmissions, pairwise sent %d — no broadcast savings",
			grouped, pairwise)
	}
	// The ideal is one broadcast per piece; allow slack for grants that
	// raced the confirmation, but the bulk must have gone out once.
	if grouped > 2*pieces {
		t.Fatalf("grouped run sent %d piece transmissions for %d pieces — savings not measurable",
			grouped, pieces)
	}
}

// TestBcastSoak is the acceptance soak, on the stepped swarm: three
// nodes on one shared medium, every unicast frame liable to be dropped
// (20 %), and a partition of the unicast mesh once the download starts.
// The group must confirm, collapse when the partition silences the mesh,
// re-form after it heals, and both downloaders must still complete the
// shared file, with the broadcast path carrying part of it.
func TestBcastSoak(t *testing.T) {
	s := newStepSwarm(t, "TestBcastSoak", 1, stepnet.Faults{Drop: 0.2})
	var ds []*Daemon
	for i, addrs := range [][]string{nil, {"seed"}, {"seed", "n2"}} {
		c := stepCfg(trace.NodeID(i + 1))
		c.ListenAddr, c.PeerAddrs = []string{"seed", "n2", "n3"}[i], addrs
		if i == 0 {
			c.InternetAccess, c.PublishFiles = true, 1
			c.FileSize, c.PieceSize = 64*1024, 4*1024 // 16 pieces at 4 KB
		}
		c.EnableBcast, c.Broadcast = true, s.net.Join("radio", 0, c.ID)
		ds = append(ds, s.start(c).d)
	}
	tr3 := trio{seed: ds[0], a: ds[1], b: ds[2]}

	// Phase 1: the group confirms on the intact mesh; only then does
	// the shared download start, so it rides the schedule.
	s.until(10000, "initial group confirmation", func() bool {
		return groupConfirmed(tr3.seed) && groupConfirmed(tr3.a) && groupConfirmed(tr3.b)
	})
	s.act("start the downloads", tr3.startDownloads)

	// Phase 2: the partition silences every unicast link for twice the
	// liveness window; liveness expiry must collapse the group (pairwise
	// fallback, not a stall) even though the medium itself stays up.
	s.net.Faults.Cut = [2]int{s.net.Beats + 1, s.net.Beats + 9}
	s.until(10000, "group collapse under partition", func() bool {
		st := tr3.a.Stats().Bcast
		return st.Collapses >= 1 && !groupConfirmed(tr3.a)
	})

	// Phase 3: heal → peers return → the group re-forms and confirms.
	s.until(10000, "group re-formation after heal", func() bool {
		st := tr3.a.Stats().Bcast
		return st.Formations >= 2 && groupConfirmed(tr3.a) && groupConfirmed(tr3.seed) && groupConfirmed(tr3.b)
	})

	// Phase 4: the shared file completes on both downloaders despite
	// the drop rate — broadcasts carry it, pairwise fills any gaps.
	f0 := metadata.URIFor(0)
	s.until(20000, "downloads under chaos", func() bool { return tr3.a.Completed(f0) && tr3.b.Completed(f0) })

	// The faults really ran, and the broadcast path was used.
	if len(s.net.Dropped) == 0 {
		t.Fatal("no drops injected")
	}
	if s.net.CutDropped == 0 {
		t.Fatal("partition never touched traffic")
	}
	if st := tr3.a.Stats().Bcast; st.GroupHellosSent == 0 || st.PieceBcastsRecv == 0 {
		t.Fatalf("broadcast path unused: %+v", st)
	}
}

// TestBcastUnicastFanout: without a shared medium the group still runs,
// fanning group traffic out over the existing unicast sessions — the
// mode cmd/mbtd uses over real TCP.
func TestBcastUnicastFanout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	tr3 := startTrio(t, ctx, net, net, false, true, nil)

	waitFor(t, waitLimit, func() bool {
		return groupConfirmed(tr3.seed) && groupConfirmed(tr3.a) && groupConfirmed(tr3.b)
	}, "group confirmation over unicast fan-out")
	tr3.startDownloads()
	f0 := metadata.URIFor(0)
	waitFor(t, waitLimit, func() bool {
		return tr3.a.Completed(f0) && tr3.b.Completed(f0)
	}, "downloads over unicast fan-out")
	if got := tr3.a.Stats().Transport.GroupRecv; got == 0 {
		t.Fatal("no group messages crossed the unicast sessions")
	}
}

// TestBcastSuppressionFallsBack: while a group is confirmed the seed
// suppresses pairwise piece serving to members; the counter proves the
// suppression actually fired during the grouped download.
func TestBcastSuppressionFallsBack(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	tr3 := startTrio(t, ctx, net, net, true, true, nil)

	waitFor(t, waitLimit, func() bool {
		return groupConfirmed(tr3.seed) && groupConfirmed(tr3.a) && groupConfirmed(tr3.b)
	}, "group confirmation")
	tr3.startDownloads()
	f0 := metadata.URIFor(0)
	waitFor(t, waitLimit, func() bool {
		return tr3.a.Completed(f0) && tr3.b.Completed(f0)
	}, "grouped download")
	if got := tr3.seed.Stats().PiecesSuppressed; got == 0 {
		t.Fatal("pairwise suppression never fired during a confirmed group download")
	}
}

// TestBcastTitForTat: the cyclic-order mode also completes the shared
// download, with the grant rotating instead of the coordinator picking.
func TestBcastTitForTat(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	tr3 := startTrio(t, ctx, net, net, true, true, func(i int, cfg *Config) {
		cfg.TitForTat = true
	})

	waitFor(t, waitLimit, func() bool {
		return groupConfirmed(tr3.seed) && groupConfirmed(tr3.a) && groupConfirmed(tr3.b)
	}, "group confirmation")
	tr3.startDownloads()
	f0 := metadata.URIFor(0)
	waitFor(t, waitLimit, func() bool {
		return tr3.a.Completed(f0) && tr3.b.Completed(f0)
	}, "tit-for-tat download")
	st := tr3.a.Stats().Bcast
	if st == nil || !st.TitForTat {
		t.Fatalf("stats do not report tit-for-tat mode: %+v", st)
	}
}
