package swarm

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/testutil"
	"repro/internal/trace"
)

// runSteady runs one steady scenario to full completion and returns its
// report.
func runSteady(t *testing.T, nodes int, seed uint64) Report {
	t.Helper()
	rep, err := RunScenario(Steady(nodes, seed))
	if err != nil {
		t.Fatalf("steady %d nodes: %v (fraction %.3f)", nodes, err, rep.CompletionFraction)
	}
	return rep
}

// checkReportFile writes rep as its results file into a scratch
// directory and asserts the file parses back to the same record. Tests
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
	if !reflect.DeepEqual(committed(back), committed(rep)) {
		t.Fatalf("report file %s reads back as %+v, wrote %+v", path, back, rep)
	}
}

// committed is the part of a report its results file carries.
func committed(r Report) Report {
	r.GoroutinesPerNode, r.HeapBytesPerNode = 0, 0
	return r
}

// TestSwarmSmallDeterminism runs the same seeded distribution twice and
// demands the same report, every committed field of it — the replay
// contract results/swarm_*.json rests on — and a different digest for a
// different seed.
func TestSwarmSmallDeterminism(t *testing.T) {
	defer testutil.NoLeaks(t)()
	a := runSteady(t, 48, 7)
	b := runSteady(t, 48, 7)
	if !reflect.DeepEqual(committed(a), committed(b)) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", committed(a), committed(b))
	}
	if a.CompletionFraction != 1 {
		t.Fatalf("fraction %.3f, want 1", a.CompletionFraction)
	}
	c := runSteady(t, 48, 8)
	if c.CompletionDigest == a.CompletionDigest {
		t.Fatalf("different seeds, same digest %s — digest is not config-sensitive", c.CompletionDigest)
	}
}

// TestSwarm1000Loopback boots the full thousand-node population on the
// stepped network, drives a seeded distribution to completion, and
// asserts the per-node goroutine and heap budgets, measured while all
// thousand nodes still run. Skipped in short mode and under the race
// detector (TestSwarm200Race covers the race-instrumented population).
func TestSwarm1000Loopback(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node swarm skipped in short mode")
	}
	if testutil.RaceEnabled {
		t.Skip("1000-node swarm skipped under race detector; see TestSwarm200Race")
	}
	defer testutil.NoLeaks(t)()
	rep := runSteady(t, 1000, 42)
	// Each node runs 2 core goroutines (Run, which is its beat, and the
	// accept loop) plus a reader (a dialed link's own, alive only while it
	// is up) and a writer per session end — random attachment doubles the
	// degree — padded 50% for slack, in half a MiB of heap.
	if budget := 1.5 * float64(3+3*DefaultDegree); rep.GoroutinesPerNode > budget || rep.HeapBytesPerNode > 512*1024 {
		t.Errorf("%.1f goroutines and %.0f heap bytes per node, want <= %.1f and <= %d",
			rep.GoroutinesPerNode, rep.HeapBytesPerNode, budget, 512*1024)
	}
	if rep.CompletionFraction != 1 || rep.CompletionDigest == "" {
		t.Fatalf("fraction %.3f, digest %q; want 1 and a digest", rep.CompletionFraction, rep.CompletionDigest)
	}
	checkReportFile(t, rep)
	t.Logf("1000 nodes: %d steps, %d beats, %.2f tx/piece, %.1f goroutines/node, %.0f heap B/node, digest %s",
		rep.Steps, rep.Beats, rep.TransmissionsPerPiece, rep.GoroutinesPerNode, rep.HeapBytesPerNode, rep.CompletionDigest)
}

// TestSwarm200Race is the race-instrumented population: small enough
// that the detector's overhead doesn't swamp CI, large enough to shake
// out cross-node races in the network and fan-out paths.
func TestSwarm200Race(t *testing.T) {
	if !testutil.RaceEnabled {
		t.Skip("covered by TestSwarm1000Loopback without the race detector")
	}
	if testing.Short() {
		t.Skip("200-node swarm skipped in short mode")
	}
	defer testutil.NoLeaks(t)()
	rep := runSteady(t, 200, 42)
	t.Logf("200 nodes under race: %d steps, %d beats, %.2f tx/piece", rep.Steps, rep.Beats, rep.TransmissionsPerPiece)
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
		t.Run(name, func(t *testing.T) {
			defer testutil.NoLeaks(t)()
			sc, err := BuildScenario(name, nodes, 1337)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := RunScenario(sc)
			if err != nil {
				t.Fatalf("%s: %v (fraction %.3f, coverage %.3f)",
					name, err, rep.CompletionFraction, rep.CoverageFraction)
			}
			if rep.CompletionFraction != 1 {
				t.Fatalf("%s: fraction %.3f, want 1", name, rep.CompletionFraction)
			}
			if name == "seeder-death" && rep.SurvivalBeats >= 0 {
				t.Errorf("seeder-death: file became unreconstructable %d beats after the kill", rep.SurvivalBeats)
			}
			checkReportFile(t, rep)
			t.Logf("%s: %d nodes, %d steps, %d beats, %.2f tx/piece, credit σ %.1f",
				name, nodes, rep.Steps, rep.Beats, rep.TransmissionsPerPiece, rep.CreditStddev)
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
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	victim := trace.NodeID(7)
	if err := h.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if got := len(h.daemons()); got != 11 {
		t.Fatalf("running %d, want 11", got)
	}
	if err := h.Join(victim); err != nil {
		t.Fatal(err)
	}
	if err := h.WaitFraction(1.0); err != nil {
		t.Fatalf("swarm never completed after resume: %v", err)
	}
}

// TestSwarmConfigValidation pins the constructor's error surface.
func TestSwarmConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 1}); err == nil {
		t.Error("1-node swarm accepted")
	}
	if _, err := New(Config{Nodes: 4, Files: 1, QueryFiles: 2}); err == nil {
		t.Error("more queried files than files accepted")
	}
	if _, err := BuildScenario("no-such", 10, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}
