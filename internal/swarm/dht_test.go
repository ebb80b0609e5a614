package swarm

import (
	"testing"

	"repro/internal/testutil"
)

// TestServerDeathDHTResolution is the decentralized-discovery
// acceptance gate: with the DHT on, keyword queries issued only after
// the catalog server died must still resolve almost everywhere
// (>= 95%); without it, the same scenario resolves (almost) nothing.
func TestServerDeathDHTResolution(t *testing.T) {
	defer testutil.NoLeaks(t)()
	nodes := 12

	rep, err := RunScenario(ServerDeath(nodes, 1337))
	if err != nil {
		t.Fatalf("server-death: %v (resolved %d/%d)", err, rep.PostDeathResolved, rep.PostDeathQueries)
	}
	if rep.PostDeathQueries != nodes-1 {
		t.Fatalf("post-death queries = %d, want %d", rep.PostDeathQueries, nodes-1)
	}
	if rep.PostDeathResolveFraction < 0.95 {
		t.Fatalf("post-death resolution %.3f (%d/%d), want >= 0.95",
			rep.PostDeathResolveFraction, rep.PostDeathResolved, rep.PostDeathQueries)
	}
	if !rep.DHTEnabled || rep.DHTStoresRecv == 0 {
		t.Fatalf("DHT accounting missing from report: %+v", rep)
	}
	checkReportFile(t, rep)
	t.Logf("server-death: %d/%d post-death queries resolved, %d DHT stores received, %d lookups",
		rep.PostDeathResolved, rep.PostDeathQueries, rep.DHTStoresRecv, rep.DHTLookups)

	// The control: no DHT, same script, near-zero resolution — the
	// legacy gossip path only ever spread metadata to nodes that
	// queried it while the server lived.
	brep, err := RunScenario(ServerDeathBaseline(nodes, 1337))
	if err != nil {
		t.Fatalf("server-death-baseline: %v", err)
	}
	if brep.PostDeathResolveFraction > 0.05 {
		t.Fatalf("baseline resolved %.3f post-death, expected ~0 — legacy path should not answer",
			brep.PostDeathResolveFraction)
	}
	t.Logf("baseline: %d/%d post-death queries resolved (as expected)",
		brep.PostDeathResolved, brep.PostDeathQueries)
}

// TestFountainScenario drives the coded variant of the steady
// distribution: a full-mesh clique completes over the fountain-coded
// symbol plane and the report carries the symbol counters and the
// piece-equivalent transmissions-per-piece metric.
func TestFountainScenario(t *testing.T) {
	defer testutil.NoLeaks(t)()
	rep, err := RunScenario(Fountain(5, 21))
	if err != nil {
		t.Fatalf("fountain: %v (fraction %.3f)", err, rep.CompletionFraction)
	}
	if rep.CompletionFraction != 1 {
		t.Fatalf("fraction %.3f, want 1", rep.CompletionFraction)
	}
	if !rep.FECEnabled || rep.SymbolsSent == 0 || rep.FECDecodes == 0 {
		t.Fatalf("fountain plane idle: symbols_sent=%d fec_decodes=%d", rep.SymbolsSent, rep.FECDecodes)
	}
	if rep.TransmissionsPerPiece <= 0 {
		t.Fatalf("transmissions per piece = %v, want > 0", rep.TransmissionsPerPiece)
	}
	checkReportFile(t, rep)
	t.Logf("fountain: %.2f piece-equivalent tx/piece, %d symbols sent, %d decodes",
		rep.TransmissionsPerPiece, rep.SymbolsSent, rep.FECDecodes)
}
