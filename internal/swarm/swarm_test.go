package swarm

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/trace"
)

// runSteady runs one steady scenario to full completion and returns its
// report.
func runSteady(t *testing.T, nodes int, seed uint64) Report {
	t.Helper()
	sc := Steady(nodes, seed)
	sc.Timeout = 2 * time.Minute
	rep, err := RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatalf("steady %d nodes: %v (fraction %.3f)", nodes, err, rep.CompletionFraction)
	}
	return rep
}

// checkReportFile writes rep as its results file into a scratch
// directory and asserts the file parses back to the same outcome. Tests
// never touch the tracked results/ — `make swarm` regenerates those
// through cmd/mbtswarm.
func checkReportFile(t *testing.T, rep Report) {
	t.Helper()
	path, err := rep.WriteFile(t.TempDir())
	if err != nil {
		t.Fatalf("write report: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read report back: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report file %s does not parse: %v", path, err)
	}
	if back.Scenario != rep.Scenario || back.CompletionDigest != rep.CompletionDigest {
		t.Fatalf("report file %s reads back as %s/%s, wrote %s/%s", path,
			back.Scenario, back.CompletionDigest, rep.Scenario, rep.CompletionDigest)
	}
}

// TestSwarmSmallDeterminism runs the same seeded distribution twice and
// demands identical completion digests — the outcome-determinism
// contract the big test relies on.
func TestSwarmSmallDeterminism(t *testing.T) {
	defer testutil.NoLeaks(t)()
	a := runSteady(t, 48, 7)
	b := runSteady(t, 48, 7)
	if a.CompletionDigest != b.CompletionDigest {
		t.Fatalf("same seed, different digests: %s vs %s", a.CompletionDigest, b.CompletionDigest)
	}
	if a.CompletionFraction != 1 {
		t.Fatalf("fraction %.3f, want 1", a.CompletionFraction)
	}
	c := runSteady(t, 48, 8)
	if c.CompletionDigest == a.CompletionDigest {
		t.Fatalf("different seeds, same digest %s — digest is not config-sensitive", c.CompletionDigest)
	}
}

// TestSwarm1000Loopback boots the full thousand-node population over
// the loopback transport, drives a seeded distribution to completion,
// and asserts the per-node goroutine and heap budgets. Skipped in short
// mode and under the race detector (TestSwarm200Race covers the
// race-instrumented population).
func TestSwarm1000Loopback(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node swarm skipped in short mode")
	}
	if testutil.RaceEnabled {
		t.Skip("1000-node swarm skipped under race detector; see TestSwarm200Race")
	}
	defer testutil.NoLeaks(t)()

	sc := Steady(1000, 42)
	sc.Timeout = 3 * time.Minute
	h, err := New(sc.Config)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), sc.Timeout)
	defer cancel()
	if err := h.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitFraction(ctx, 1.0); err != nil {
		t.Fatalf("distribution incomplete: %v", err)
	}
	// Budgets are asserted while all thousand nodes still run.
	if err := h.CheckBudget(h.DefaultBudget()); err != nil {
		t.Error(err)
	}
	rep := h.Report(sc.Name)
	if rep.CompletionFraction != 1 {
		t.Fatalf("fraction %.3f, want 1", rep.CompletionFraction)
	}
	if rep.CompletionDigest == "" {
		t.Fatal("empty completion digest")
	}
	checkReportFile(t, rep)
	t.Logf("1000 nodes: %.0fms wall, %.2f tx/piece, %.1f goroutines/node, %.0f heap B/node, digest %s",
		rep.WallMs, rep.TransmissionsPerPiece, rep.GoroutinesPerNode, rep.HeapBytesPerNode, rep.CompletionDigest)
}

// TestSwarm200Race is the race-instrumented population: small enough
// that the detector's overhead doesn't swamp CI, large enough to shake
// out cross-node races in the shared loopback and fan-out paths.
func TestSwarm200Race(t *testing.T) {
	if !testutil.RaceEnabled {
		t.Skip("covered by TestSwarm1000Loopback without the race detector")
	}
	if testing.Short() {
		t.Skip("200-node swarm skipped in short mode")
	}
	defer testutil.NoLeaks(t)()
	rep := runSteady(t, 200, 42)
	t.Logf("200 nodes under race: %.0fms wall, %.2f tx/piece", rep.WallMs, rep.TransmissionsPerPiece)
}

// TestSwarmAvailability drives the scripted-churn scenario family at CI
// scale and checks each scenario's metrics record. Every
// scenario must reach full completion — the availability claim under
// test is that the cooperative swarm absorbs the shock, not merely
// survives it.
func TestSwarmAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("availability scenarios skipped in short mode")
	}
	nodes := 96
	if testutil.RaceEnabled {
		nodes = 48
	}
	for _, name := range []string{"seeder-death", "flash-crowd", "mobility", "staggered-join", "diurnal"} {
		name := name
		t.Run(name, func(t *testing.T) {
			defer testutil.NoLeaks(t)()
			sc, err := BuildScenario(name, nodes, 1337)
			if err != nil {
				t.Fatal(err)
			}
			sc.Timeout = 2 * time.Minute
			rep, err := RunScenario(context.Background(), sc)
			if err != nil {
				t.Fatalf("%s: %v (fraction %.3f, coverage %.3f)",
					name, err, rep.CompletionFraction, rep.CoverageFraction)
			}
			if rep.CompletionFraction != 1 {
				t.Fatalf("%s: fraction %.3f, want 1", name, rep.CompletionFraction)
			}
			if name == "seeder-death" && rep.SurvivalMs >= 0 {
				t.Errorf("seeder-death: file became unreconstructable %.0fms after the kill", rep.SurvivalMs)
			}
			checkReportFile(t, rep)
			t.Logf("%s: %d nodes, %.0fms wall, %.2f tx/piece, credit σ %.1f",
				name, nodes, rep.WallMs, rep.TransmissionsPerPiece, rep.CreditStddev)
		})
	}
}

// TestSwarmKillResume exercises the Kill/Join resume path directly: a
// downloader dies mid-swarm and a fresh daemon on the same identity
// finishes the job.
func TestSwarmKillResume(t *testing.T) {
	defer testutil.NoLeaks(t)()
	h, err := New(Config{Nodes: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := h.Start(ctx); err != nil {
		t.Fatal(err)
	}
	victim := trace.NodeID(7)
	if err := h.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if got := h.Running(); got != 11 {
		t.Fatalf("running %d, want 11", got)
	}
	if err := h.Join(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitFraction(ctx, 1.0); err != nil {
		t.Fatalf("swarm never completed after resume: %v", err)
	}
}

// TestSwarmConfigValidation pins the constructor's error surface.
func TestSwarmConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 1}); err == nil {
		t.Error("1-node swarm accepted")
	}
	if _, err := New(Config{Nodes: 4, Seeders: 4}); err == nil {
		t.Error("all-seeder swarm accepted")
	}
	if _, err := BuildScenario("no-such", 10, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}
