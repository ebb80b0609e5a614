// Command benchjson converts `go test -bench` text output into a JSON
// record, so benchmark baselines can be committed, diffed, and compared
// across commits without parsing the text format twice.
//
// Usage:
//
//	go test -run '^$' -bench . ./internal/wire/ | benchjson > BENCH.json
//	benchjson -label swarm-baseline < bench.txt
//	benchjson -label swarm-baseline -commit "$(git rev-parse --short HEAD)" \
//	    -date "$(date -u +%FT%TZ)" -out results/BENCH_swarm.json
//
// Without -out the record prints to stdout. With -out the record is
// APPENDED to the named file, which holds a JSON array of records — one
// per run — so the file accumulates a per-commit history instead of
// being overwritten. A legacy file holding a single top-level record
// object is upgraded to a one-element array before appending.
//
// Non-benchmark lines (PASS, ok, compile noise) pass through to the
// context fields or are dropped, so piping a whole multi-package run in
// is fine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string  `json:"name"`
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op,omitempty"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsPerO float64 `json:"allocs_per_op,omitempty"`
	// Extra holds any further "<value> <unit>" pairs (MB/s, custom
	// b.ReportMetric units).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Record is the whole run. Commit and Date identify which tree produced
// the numbers when records accumulate in an -out history file.
// GoMaxProcs, NumCPU and GoVersion are this process's own: benchjson
// sits at the end of the pipe the benchmarks print into, on the same box
// and under the same toolchain, and timings from a different core count
// are not comparable.
type Record struct {
	Label      string   `json:"label,omitempty"`
	Commit     string   `json:"commit,omitempty"`
	Date       string   `json:"date,omitempty"`
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GoMaxProcs int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	label := fs.String("label", "", "label stored in the output record")
	commit := fs.String("commit", "", "git SHA stored in the output record")
	date := fs.String("date", "", "timestamp stored in the output record")
	out := fs.String("out", "", "append the record to this JSON history file instead of printing it")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rec, err := parse(stdin)
	if err != nil {
		return err
	}
	rec.Label = *label
	rec.Commit = *commit
	rec.Date = *date
	rec.GoMaxProcs, rec.NumCPU, rec.GoVersion = runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()
	if len(rec.Results) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	if *out != "" {
		return appendRecord(*out, rec)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(data))
	return err
}

// appendRecord adds rec to the history array in path. A missing or
// empty file starts a fresh array; a legacy file holding one bare
// record object becomes a one-element array first, so old baselines
// keep their place at index zero.
func appendRecord(path string, rec Record) error {
	var history []Record
	data, err := os.ReadFile(path)
	switch {
	case err == nil && len(strings.TrimSpace(string(data))) > 0:
		if jerr := json.Unmarshal(data, &history); jerr != nil {
			var legacy Record
			if lerr := json.Unmarshal(data, &legacy); lerr != nil {
				return fmt.Errorf("%s is neither a record array nor a legacy record: %v", path, jerr)
			}
			history = []Record{legacy}
		}
	case err != nil && !os.IsNotExist(err):
		return err
	}
	history = append(history, rec)
	data, err = json.MarshalIndent(history, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func parse(r io.Reader) (Record, error) {
	var rec Record
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rec.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rec.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			res.Package = pkg
			rec.Results = append(rec.Results, res)
		}
	}
	return rec, sc.Err()
}

// parseBenchLine parses "BenchmarkName-8  1000  123 ns/op  45 B/op ...".
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters}
	// The rest is "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerO = v
		default:
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[fields[i+1]] = v
		}
	}
	return res, true
}
