package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSteadySmall(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-scenario", "steady", "-nodes", "24", "-seed", "3", "-out", dir,
	}, &out, io.Discard)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep struct {
		Scenario           string  `json:"scenario"`
		CompletionFraction float64 `json:"completion_fraction"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, out.String())
	}
	if rep.Scenario != "steady" || rep.CompletionFraction != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, "swarm_steady.json")); err != nil {
		t.Fatalf("report file missing: %v", err)
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	err := run([]string{"-scenario", "nope", "-nodes", "10"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("err = %v, want unknown scenario", err)
	}
}
