package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/wire
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEncodeHello 	 1163236	       345.3 ns/op	     504 B/op	       6 allocs/op
BenchmarkEncodeRaw   	147388596	         2.237 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/wire	3.166s
pkg: repro/internal/peer
BenchmarkBeaconFanout/shared-frame/256         	    5470	     68968 ns/op	    7694 B/op	      17 allocs/op
PASS
`

func TestParseMultiPackageRun(t *testing.T) {
	rec, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Goos != "linux" || rec.Goarch != "amd64" {
		t.Fatalf("context not parsed: %+v", rec)
	}
	if len(rec.Results) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(rec.Results), rec.Results)
	}
	hello := rec.Results[0]
	if hello.Name != "BenchmarkEncodeHello" || hello.Iterations != 1163236 ||
		hello.NsPerOp != 345.3 || hello.BytesPerOp != 504 || hello.AllocsPerO != 6 {
		t.Fatalf("hello line misparsed: %+v", hello)
	}
	if hello.Package != "repro/internal/wire" {
		t.Fatalf("package not tracked: %+v", hello)
	}
	fan := rec.Results[2]
	if fan.Package != "repro/internal/peer" || !strings.Contains(fan.Name, "shared-frame") {
		t.Fatalf("cross-package line misparsed: %+v", fan)
	}
}

func TestRunEmitsJSON(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-label", "baseline"}, strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal([]byte(out.String()), &rec); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if rec.Label != "baseline" || len(rec.Results) != 3 {
		t.Fatalf("round-trip mismatch: %+v", rec)
	}
	if rec.GoMaxProcs != runtime.GOMAXPROCS(0) || rec.NumCPU != runtime.NumCPU() || rec.GoVersion != runtime.Version() {
		t.Fatalf("record not stamped with this box: gomaxprocs %d, num_cpu %d, go_version %q",
			rec.GoMaxProcs, rec.NumCPU, rec.GoVersion)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(nil, strings.NewReader("no benchmarks here\n"), io.Discard); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestOutAppendsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	for i, sha := range []string{"aaa111", "bbb222"} {
		err := run([]string{"-label", "run", "-commit", sha, "-date", "2026-08-08T00:00:00Z", "-out", path},
			strings.NewReader(sample), io.Discard)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var history []Record
	if err := json.Unmarshal(data, &history); err != nil {
		t.Fatalf("history is not a record array: %v\n%s", err, data)
	}
	if len(history) != 2 {
		t.Fatalf("got %d records, want 2", len(history))
	}
	if history[0].Commit != "aaa111" || history[1].Commit != "bbb222" {
		t.Fatalf("commits out of order: %q, %q", history[0].Commit, history[1].Commit)
	}
	if history[1].Date == "" || len(history[1].Results) != 3 {
		t.Fatalf("appended record incomplete: %+v", history[1])
	}
}

func TestOutUpgradesLegacySingleRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	legacy := Record{Label: "old-baseline", Results: []Result{{Name: "BenchmarkOld", Iterations: 1}}}
	data, err := json.MarshalIndent(legacy, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-commit", "ccc333", "-out", path}, strings.NewReader(sample), io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var history []Record
	if err := json.Unmarshal(raw, &history); err != nil {
		t.Fatalf("upgraded file is not an array: %v\n%s", err, raw)
	}
	if len(history) != 2 || history[0].Label != "old-baseline" || history[1].Commit != "ccc333" {
		t.Fatalf("legacy record lost in upgrade: %+v", history)
	}
}

func TestOutRejectsGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-out", path}, strings.NewReader(sample), io.Discard); err == nil {
		t.Fatal("garbage history file accepted")
	}
}
