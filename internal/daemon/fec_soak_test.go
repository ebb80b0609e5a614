package daemon

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The fountain acceptance soak: the same five-node download runs once
// on the grant/resend piece plane and once on the fountain-coded
// symbol plane, with 30% drop + 20% corruption on the data plane both
// times, and the fountain run must move the file in strictly fewer
// piece-equivalent transmissions per verified piece.
//
// The topology is the paper's lossy radio clique: one Internet seed,
// four downloaders, clean unicast session links (hellos and the
// pairwise fallback; chaos on those frames models a dying cable, not a
// lossy medium), and one shared broadcast domain at 44% loss carrying
// group control in both runs. The data planes differ:
//
//   - grant/resend: PieceBcast frames share that same 44%-loss domain.
//     44% is 30% drop + 20% corruption as the piece plane experiences
//     it — a corrupted piece fails Verify at the receiver and is
//     re-broadcast, so detected corruption IS loss, at rate
//     0.3 + 0.7*0.2 = 0.44.
//   - fountain: coded symbols ride the datagram lane through the fault
//     injector at SymbolLoss=0.3 plus Corrupt=0.2 (caught by the
//     symbol checksum), the same aggregate beating.
//
// Both planes lose per-transmission at the same rate; what differs is
// what one loss costs. A lost or corrupted piece broadcast wastes the
// whole 16 KB piece — and the sender must repeat all 16 KB until the
// unluckiest of four receivers finally hears one intact copy, while
// the other three discard duplicates. A lost symbol wastes 256 bytes,
// and every symbol that does land is fresh progress for every receiver
// at once. That asymmetry, not a kinder channel, is the coding gain
// the paper's cooperative groups are after.

const (
	fecSoakNodes      = 5
	fecSoakPieces     = 16
	fecSoakPieceSize  = 16384
	fecSoakSymbolSize = 256 // K=64 source symbols per piece
	fecSoakDataLoss   = 0.44
)

// waitTB is waitLong for both tests and benchmarks.
func waitTB(tb testing.TB, limit time.Duration, cond func() bool, what string) {
	tb.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}

// runFECSoak runs one soak and returns piece-equivalent transmissions
// per verified piece. A pairwise wire.Piece and a PieceBcast each cost
// one transmission on their medium; coded symbols (relays included)
// cost their size fraction of a piece — the currency is bytes on the
// air in units of one piece.
func runFECSoak(tb testing.TB, fec bool) float64 {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	radio := net.Domain("radio")
	radio.SetLoss(fecSoakDataLoss, 21)
	chaos := fault.Wrap(net, fault.Config{
		Seed:       11,
		SymbolLoss: 0.30,
		Corrupt:    0.20,
	})
	var lane *transport.BroadcastDomain
	if fec {
		lane = net.SymbolDomain("radio")
	}

	nodes := make([]*Daemon, 0, fecSoakNodes)
	var addrs []string
	for id := trace.NodeID(1); id <= fecSoakNodes; id++ {
		cfg := fastCfg(id, net)
		cfg.ListenAddr = fmt.Sprintf("n%d", id)
		cfg.PeerAddrs = append([]string(nil), addrs...) // dial everyone before us: full mesh
		if id == 1 {
			cfg.InternetAccess = true
			cfg.PublishFiles = 1
			cfg.FileSize = fecSoakPieces * fecSoakPieceSize
			cfg.PieceSize = fecSoakPieceSize
		}
		cfg.EnableBcast = true
		if testutil.RaceEnabled {
			// Race instrumentation slows hello processing past fastCfg's
			// 200 ms window; a group that flaps hands its pieces to the
			// clean pairwise fallback and the soak measures nothing.
			cfg.LivenessWindow = 2 * time.Second
		}
		conn, err := radio.Join(cfg.ListenAddr)
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Broadcast = conn
		if fec {
			sym, err := lane.Join(cfg.ListenAddr)
			if err != nil {
				tb.Fatal(err)
			}
			cfg.Symbols = chaos.WrapSymbols(sym)
			cfg.EnableFEC = true
			cfg.SymbolSize = fecSoakSymbolSize
			// A relay rarely reaches a clique member the sender's own
			// broadcast misses, so keep cooperation at the minimum and
			// let fresh top-ups do the repair.
			cfg.RelayBudget = 1
			cfg.Fault = chaos
		}
		d, err := New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		start(ctx, d)
		nodes = append(nodes, d)
		addrs = append(addrs, cfg.ListenAddr)
	}
	leeches := nodes[1:]

	limit := 120 * time.Second
	waitTB(tb, limit, func() bool {
		for _, d := range nodes {
			st := d.Stats()
			if st.Bcast == nil || !st.Bcast.Confirmed || len(st.Bcast.Group) != fecSoakNodes {
				return false
			}
		}
		return true
	}, "group confirmation on the lossy radio")
	for _, d := range leeches {
		d.AddQuery("f0")
	}
	f0 := metadata.URIFor(0)
	waitTB(tb, limit, func() bool {
		for _, d := range leeches {
			if !d.Completed(f0) {
				return false
			}
		}
		return true
	}, "downloads on the lossy radio")

	var tx, verified float64
	for _, d := range nodes {
		st := d.Stats()
		tx += float64(st.Transport.PiecesSent)
		if st.Bcast != nil {
			tx += float64(st.Bcast.PieceBcastsSent)
			tx += float64(st.Bcast.SymbolsSent+st.Bcast.SymbolsRelayed) *
				fecSoakSymbolSize / fecSoakPieceSize
		}
		verified += float64(st.PiecesVerified)
	}
	if fec {
		// The claim is about the fountain plane; make sure it carried
		// the bulk of the file rather than the pairwise path sneaking
		// pieces through during an unconfirmed window.
		var decodes uint64
		for _, d := range leeches {
			if st := d.Stats().Bcast; st != nil {
				decodes += st.FECDecodes
			}
		}
		floor := uint64(3 * fecSoakPieces)
		if testutil.RaceEnabled {
			// Race instrumentation slows hello processing enough for the
			// group to flap, and every unconfirmed window hands pieces to
			// the (clean, unicast) pairwise fallback — by design. Still
			// require a meaningful fountain share.
			floor = fecSoakPieces
		}
		if decodes < floor {
			tb.Fatalf("only %d fountain decodes across %d leechers, want >= %d",
				decodes, len(leeches), floor)
		}
	}
	if verified == 0 {
		tb.Fatal("no pieces verified")
	}
	return tx / verified
}

// TestFECSoakFewerTransmissions is the acceptance gate: at 30% drop +
// 20% corruption the fountain plane must beat grant/resend on
// transmissions per verified piece, strictly. Each plane's figure is the
// median of five soaks: the grant plane's cost is the luck of sixteen
// pieces on a 44%-loss medium (0.53–1.0 from run to run, against the
// fountain's steady 0.62), so a single sample of it dips under the
// fountain's every ten or twenty runs, more often beside busy test
// binaries, without saying anything about the planes. (A median of three
// still dipped once — 0.609 against 0.623 — inside a full
// `go test ./...`, though never in 56 runs of this test alone.)
func TestFECSoakFewerTransmissions(t *testing.T) {
	soaks := 5
	if testutil.RaceEnabled {
		soaks = 1 // completion and decode floor only; see below
	}
	median := func(fec bool) float64 {
		runs := make([]float64, soaks)
		for i := range runs {
			runs[i] = runFECSoak(t, fec)
		}
		sort.Float64s(runs)
		return runs[len(runs)/2]
	}
	grant := median(false)
	fountain := median(true)
	t.Logf("transmissions per verified piece under 30%% drop + 20%% corruption: grant/resend=%.3f fountain=%.3f",
		grant, fountain)
	if testutil.RaceEnabled {
		// Both soaks above still must complete under chaos (and the
		// fountain run must decode, not fall back) — but the transmission
		// comparison is a performance claim, and race instrumentation
		// slows ticks enough to reshape both planes' retry behavior.
		t.Skip("skipping the strict transmission comparison under the race detector")
	}
	if fountain >= grant {
		t.Fatalf("fountain plane cost %.3f transmissions per verified piece, grant/resend cost %.3f — no coding gain",
			fountain, grant)
	}
}

// BenchmarkFECSoakTransmissions emits both soak numbers into the bench
// JSON baseline (results/BENCH_swarm.json via make bench-json), so the
// coding gain is tracked across commits, not just asserted once.
func BenchmarkFECSoakTransmissions(b *testing.B) {
	var grant, fountain float64
	for i := 0; i < b.N; i++ {
		grant = runFECSoak(b, false)
		fountain = runFECSoak(b, true)
	}
	b.ReportMetric(grant, "grant_tx/piece")
	b.ReportMetric(fountain, "fountain_tx/piece")
}
