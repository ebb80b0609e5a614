package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/store"
)

// miniature shrinks a workload to at most 64 pieces and a fast beacon so
// the whole suite stays a smoke test; every code path of the full size
// still runs.
func miniature(w spec) spec {
	switch w.name {
	case "bulk-tcp":
		w.pieces = 8
	case "wal-tcp":
		w.pieces, w.hello, w.syncDelay = 32, 10*time.Millisecond, 100*time.Microsecond
	case "swarm-steady":
		w.nodes, w.pieces, w.hello, w.liveness = 8, 16, 10*time.Millisecond, time.Second
	case "clique-fec":
		w.pieces = 24
	}
	return w
}

func shrinkDrivers(t *testing.T) {
	old := driverBudget
	driverBudget = time.Millisecond
	t.Cleanup(func() { driverBudget = old })
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload in miniature, traced: one traced and one plain
// iteration, the ladder, the trace file. Every declared metric must come
// out under its name with a unit, and no download may fail.
func TestMiniaturesEmitEveryMetric(t *testing.T) {
	shrinkDrivers(t)
	for _, w := range workloads {
		w := miniature(w)
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			rec, err := measure(w, options{seed: 42, seconds: 0, trace: 1, out: out}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Result.Failed != 0 || len(rec.Problems) > 0 {
				t.Fatalf("%d/%d downloads failed: %v", rec.Result.Failed, rec.Result.Attempted, rec.Problems)
			}
			if rec.Iterations != 2 {
				t.Fatalf("ran %d iterations, want one traced and one plain", rec.Iterations)
			}
			for _, d := range perLayer {
				v, ok := rec.Result.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %q", d.Name, v, ok, d.Unit)
				}
			}
			for _, d := range endToEnd {
				if v, ok := rec.All[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.Name, v, ok)
				}
			}
			if w.quiet && rec.All["tx_per_verified_piece"] != 1 && !w.fec {
				t.Errorf("tx_per_verified_piece = %v on a two-node link, want exactly 1", rec.All["tx_per_verified_piece"])
			}
			if w.fec && rec.All["peer.pieces_sent"] != 0 {
				t.Errorf("the pairwise path carried %v pieces on the group-plane workload", rec.All["peer.pieces_sent"])
			}
			if w.wal && rec.All["store.syncs"] == 0 {
				t.Error("no sync reached the modelled disk on the WAL workload")
			}
			for _, name := range []string{"trace_" + w.name + ".json", "run_" + w.name + "_trace1.json"} {
				data, err := os.ReadFile(filepath.Join(out, name))
				if err != nil {
					t.Fatal(err)
				}
				if !json.Valid(data) {
					t.Errorf("%s is not valid JSON", name)
				}
			}
		})
	}
}

// The driver's form: a plain run prints the end-to-end metrics, all of
// them, as its last line.
func TestPlainRunResultLine(t *testing.T) {
	w := miniature(workloads[1])
	rec, err := measure(w, options{seed: 42, seconds: 0, trace: 0, out: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Result.Correct || rec.Result.Attempted < 1 || rec.Result.Failed != 0 {
		t.Fatalf("result %+v", rec.Result)
	}
	if len(rec.Result.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics in the result line, want the %d end-to-end ones", len(rec.Result.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if v := rec.Result.Metrics[d.Name]; v.Unit != d.Unit || v.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
		}
	}
}

// A second seed passes the same correctness gate, and the decorators
// change no outcome: the same inputs complete the same set with and
// without tracing.
func TestSecondSeedAndTracingKeepTheOutcome(t *testing.T) {
	for _, w := range workloads {
		w := miniature(w)
		t.Run(w.name, func(t *testing.T) {
			in := w.build(iterSeed(7, 0))
			var digests [2]string
			for i, traced := range []bool{false, true} {
				it, err := runIteration(w, in, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if it.failed != 0 {
					t.Fatalf("traced=%v: %d/%d downloads failed: %v", traced, it.failed, it.attempted, it.problems)
				}
				digests[i] = it.digest
			}
			if digests[0] != digests[1] {
				t.Fatalf("completion digest %s without tracing, %s with", digests[0], digests[1])
			}
			if other := w.build(iterSeed(8, 0)); w.degree > 0 && digest(other, nil) == digest(in, nil) {
				t.Error("two seeds built the same topology")
			}
		})
	}
}

// The modelled disk charges exactly one delay per Sync and per SyncDir,
// and nothing else sleeps.
func TestModelledDiskOneDelayPerSync(t *testing.T) {
	d := newDiskFS(3*time.Millisecond, nil, -1)
	var slept []time.Duration
	d.sleep = func(x time.Duration) { slept = append(slept, x) }
	dir := t.TempDir()
	f, err := d.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("record")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 4 || d.syncs.Load() != 4 {
		t.Fatalf("%d delays for %d syncs, want 4 and 4", len(slept), d.syncs.Load())
	}
	for _, x := range slept {
		if x != 3*time.Millisecond {
			t.Fatalf("delay %v, want the configured 3ms", x)
		}
	}
	if got := d.writeBytes.Load(); got != 18 {
		t.Fatalf("counted %d written bytes, want 18", got)
	}

	// And through the store: every Append is one Write and one Sync.
	slept = nil
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "wal"), FS: d, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	before := len(slept)
	for i := 0; i < 5; i++ {
		if err := st.Append(&store.PieceRecord{URI: "dtn://files/0", Index: i, Total: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(slept) - before; got != 5 {
		t.Fatalf("5 appends cost %d delays, want 5", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// The timer-intervention guard sets an iteration aside only where the
// prediction is zero.
func TestGuard(t *testing.T) {
	bulk, swarm, fecW := workloads[0], workloads[2], workloads[3]
	if got := guard(bulk, map[string]float64{"daemon.pieces_resent": 3}); got == "" {
		t.Error("a resend on bulk-tcp was not flagged")
	}
	if got := guard(bulk, map[string]float64{}); got != "" {
		t.Errorf("a quiet bulk-tcp iteration was flagged: %s", got)
	}
	if got := guard(swarm, map[string]float64{"daemon.pieces_resent": 3, "daemon.outbox_drops_data": 9}); got != "" {
		t.Errorf("swarm-steady predicts no zero, yet flagged: %s", got)
	}
	if got := guard(fecW, map[string]float64{"fault.symbol_loss_realised": 0.35}); got == "" {
		t.Error("a 35 % realised loss at 30 % configured was not flagged")
	}
	if got := guard(fecW, map[string]float64{"fault.symbol_loss_realised": 0.301}); got != "" {
		t.Errorf("30.1 %% realised loss flagged: %s", got)
	}
}

func TestSelfTimeAndQuartiles(t *testing.T) {
	// A 100-long parent with children covering [10,30] ∪ [20,50] ∪ [90,120]:
	// 40 + 10 covered, 50 self.
	tree := []span{{id: 1, kind: spTransfer, start: 0, end: 100}}
	leaves := []span{
		{id: 2, parent: 1, kind: spRecv, start: 10, end: 30},
		{id: 3, parent: 1, kind: spRecv, start: 20, end: 50},
		{id: 4, parent: 1, kind: spSync, start: 90, end: 120},
	}
	got := summarize(tree, leaves)
	if self := got["daemon.transfer"].SelfMs * 1e6; math.Abs(self-50) > 1e-6 {
		t.Errorf("self time %v ns, want 50", self)
	}
	if got["transport.recv"].Count != 2 || got["store.sync"].Count != 1 {
		t.Errorf("leaf counts %+v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 || median([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) != 5.5 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
}

// BENCHMARK.json declares exactly what the code emits.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: declared %+v, code has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, declared, code []metricDef) {
		if len(declared) != len(code) {
			t.Fatalf("%s: %d declared, %d in the code", kind, len(declared), len(code))
		}
		seen := make(map[string]bool)
		for i, d := range code {
			if declared[i] != d {
				t.Errorf("%s %d: declared %+v, code has %+v", kind, i, declared[i], d)
			}
			if !metricName.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
}
