// Command bench is the repository's end-to-end download benchmark: real
// daemons, real frames, timings out. It drives four workloads through
// daemon.Config alone, measures every layer from outside (Daemon.Stats
// plus decorators on the transport, lane and filesystem seams), checks
// that what was downloaded is correct, and prints every metric by name
// with its unit. See README.md beside this file.
//
//	go run ./bench -workload bulk-tcp -seed 42 -seconds 20 -trace 0   # one run, the driver's form
//	go run ./bench -workload bulk-tcp -trace 1                        # traced run: per-layer metrics, ladder, trace file
//	go run ./bench -all -seed 42                                      # every workload, plain and traced, a child process per run
//	go run ./bench -repeat-check                                      # two full sets; fails when they disagree beyond a bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload    string
	seed        uint64
	seconds     int
	trace       int
	all         bool
	repeatCheck bool
	runs        int
	out         string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run once: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 42, "seed for every generated input: file tail, topology, fault streams")
	fs.IntVar(&o.seconds, "seconds", 20, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run (seam decorators record spans; per-layer metrics and the ladder)")
	fs.BoolVar(&o.all, "all", false, "run every workload, plain and traced, each run in a fresh child process")
	fs.BoolVar(&o.repeatCheck, "repeat-check", false, "run two full sets back to back and compare their medians against the bounds")
	fs.IntVar(&o.runs, "runs", 5, "plain runs per workload for -all and -repeat-check")
	fs.StringVar(&o.out, "out", "bench/out", "directory for results, trace files and data dirs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.repeatCheck:
		err = repeatCheck(o, stdout)
	case o.all:
		err = runAll(o, stdout)
	case o.workload != "":
		err = runOne(o, stdout)
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// value is one metric in a result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// stamp says what produced a record.
type stamp struct {
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_fs"`
	At         string `json:"at"`
}

func newStamp(seed uint64, dataDir string) stamp {
	s := stamp{
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
		Kernel:     "unknown",
		DataDirFS:  "unknown",
		At:         time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.GitSHA = strings.TrimSpace(string(out))
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		s.Kernel = string(b)
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		s.DataDirFS = fsName(int64(st.Type))
	}
	return s
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// spread is one end-to-end metric over a run's iterations.
type spread struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// record is what one run leaves under the out directory.
type record struct {
	Stamp       stamp             `json:"stamp"`
	Workload    string            `json:"workload"`
	Why         string            `json:"why"`
	Traced      bool              `json:"traced"`
	Seconds     int               `json:"seconds"`
	Result      result            `json:"result"`
	Iterations  int               `json:"iterations"`
	Unresolved  []string          `json:"unresolved,omitempty"`
	Problems    []string          `json:"problems,omitempty"`
	Digests     []string          `json:"digests"`
	Spreads     map[string]spread `json:"iteration_spreads"`
	PerDownload spread            `json:"per_download_s"`
	Ladder      []rung            `json:"ladder,omitempty"`
	// All is every metric the run knows, including the per-layer counters
	// a plain run reads off Daemon.Stats; Result carries the contract's
	// subset.
	All map[string]float64 `json:"all_metrics"`
}

// measure is one run: iterations of the workload for about the given
// time, each with its own set-up, then medians over the iterations that
// finished clean. A traced run spends its first seconds on the ladder
// drivers and alternates traced and plain iterations, so the tracing
// overhead is measured inside the same run.
func measure(w spec, o options, log io.Writer) (*record, error) {
	begin := time.Now()
	traced := o.trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch := filepath.Join(o.out, "data", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(scratch)
		os.Remove(filepath.Dir(scratch)) // succeeds once no other run has data there
	}()
	rec := &record{
		Stamp: newStamp(o.seed, scratch), Workload: w.name, Why: w.why, Traced: traced, Seconds: o.seconds,
		Spreads: make(map[string]spread),
	}

	var rungMetrics map[string]float64
	if traced {
		var err error
		if rungMetrics, err = ladder(w, w.build(iterSeed(o.seed, 0)), scratch); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}

	var clean, aside, plain []*iteration // aside: unresolved; plain: the untraced half of a traced run
	var lastTraced *iteration
	res := result{Metrics: make(map[string]value)}
	budget := time.Duration(o.seconds) * time.Second
	atLeast := 1
	if traced {
		atLeast = 2 // one traced, one plain
	}
	for i := 0; i < atLeast || time.Since(begin) < budget; i++ {
		withTrace := traced && i%2 == 0
		it, err := runIteration(w, w.build(iterSeed(o.seed, i)), withTrace, scratch)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s iteration %d (traced %v): setup %.4f s, completion %.4f s, %.3f tx/piece, %.4f cpu-ms/piece, failed %d/%d %s\n",
			w.name, i, withTrace, it.metrics["setup_s"], it.metrics["completion_s"], it.metrics["tx_per_verified_piece"],
			it.metrics["process.cpu_ms_per_piece"], it.failed, it.attempted, it.unresolved)
		rec.Iterations++
		res.Attempted += it.attempted
		res.Failed += it.failed
		rec.Digests = append(rec.Digests, it.digest)
		for _, p := range it.problems {
			rec.Problems = append(rec.Problems, fmt.Sprintf("iteration %d: %s", i, p))
		}
		switch {
		case it.failed > 0:
		case it.unresolved != "":
			rec.Unresolved = append(rec.Unresolved, fmt.Sprintf("iteration %d: %s", i, it.unresolved))
			if withTrace == traced {
				aside = append(aside, it)
			}
		case traced && !withTrace:
			plain = append(plain, it)
		default:
			clean = append(clean, it)
			if withTrace {
				if lastTraced != nil {
					lastTraced.tr = nil // only the last traced iteration's spans are written
				}
				lastTraced = it
			}
		}
	}
	resolved := len(clean)
	res.Correct = res.Failed == 0 && resolved > 0
	if resolved == 0 {
		clean = aside // nothing resolved: still say what was seen, under correct=false
	}

	// Medians over the clean iterations, per metric.
	byName := make(map[string][]float64)
	var perDownload []float64
	for _, it := range clean {
		for name, v := range it.metrics {
			byName[name] = append(byName[name], v)
		}
		perDownload = append(perDownload, it.perDownload...)
	}
	all := make(map[string]float64, len(byName))
	for name, vs := range byName {
		all[name] = median(vs)
	}
	for name, v := range rungMetrics {
		all[name] = v
	}
	all["peak_rss_mib"] = peakRSSMiB()
	all["bench.iterations"] = float64(resolved)
	all["bench.unresolved_iterations"] = float64(len(rec.Unresolved))
	if traced {
		var tracedS, plainS []float64
		for _, it := range clean {
			tracedS = append(tracedS, it.metrics["completion_s"])
		}
		for _, it := range plain {
			plainS = append(plainS, it.metrics["completion_s"])
		}
		all["bench.trace_overhead_share"] = ratio(median(tracedS), median(plainS)) - 1
		var sum float64
		rec.Ladder, sum = rungs(w, all)
		all["daemon.unexplained_ns_per_piece"] = all["daemon.e2e_ns_per_piece"] - sum
	}
	for _, name := range append(names(endToEnd), "process.cpu_ms_per_piece") {
		q1, q3 := quartiles(byName[name])
		rec.Spreads[name] = spread{q1, median(byName[name]), q3, len(byName[name])}
	}
	q1, q3 := quartiles(perDownload)
	rec.PerDownload = spread{q1, median(perDownload), q3, len(perDownload)}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = value{all[d.Name], d.Unit}
	}
	rec.Result, rec.All = res, all

	report(log, w, rec)
	if traced && lastTraced != nil {
		path, err := writeTrace(o.out, w, rec, lastTraced.tr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "trace of the last traced iteration: %s\n", path)
	}
	name := fmt.Sprintf("run_%s_trace%d.json", w.name, o.trace)
	if err := writeJSON(filepath.Join(o.out, name), rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// offPath reports whether a per-layer metric's layer is off workload w's
// path, so its 0 prints as n/a.
func offPath(w spec, name string) bool {
	layer, _, _ := strings.Cut(name, ".")
	switch layer {
	case "store":
		return !w.wal
	case "bcast", "fec", "clique", "fault":
		return !w.fec
	}
	switch name {
	case "transport.tcp_ns_per_piece_frame":
		return !w.tcp
	case "transport.loopback_ns_per_frame":
		return w.tcp
	}
	return false
}

// report prints every metric the run knows by name with its unit.
func report(out io.Writer, w spec, rec *record) {
	all := rec.All
	fmt.Fprintf(out, "workload %s seed %d: %d iterations in %d s, %d unresolved, %d/%d downloads failed\n",
		w.name, rec.Stamp.Seed, rec.Iterations, rec.Seconds, len(rec.Unresolved), rec.Result.Failed, rec.Result.Attempted)
	fmt.Fprintf(out, "  %s\n", w.why)
	fmt.Fprintf(out, "  gomaxprocs %d, cpus %d, %s, git %s, kernel %s, data dir on %s\n",
		rec.Stamp.GOMAXPROCS, rec.Stamp.NumCPU, rec.Stamp.GoVersion, rec.Stamp.GitSHA, rec.Stamp.Kernel, rec.Stamp.DataDirFS)
	for _, line := range append(rec.Unresolved, rec.Problems...) {
		fmt.Fprintf(out, "  ! %s\n", line)
	}
	fmt.Fprintln(out, "end to end (median over iterations; tracing", map[bool]string{false: "off)", true: "on in every other iteration — not the gated numbers)"}[rec.Traced])
	for _, d := range endToEnd {
		s := rec.Spreads[d.Name]
		if d.Name == "peak_rss_mib" {
			fmt.Fprintf(out, "  %-42s %14.4f %-6s (the process's peak)\n", d.Name, all[d.Name], d.Unit)
			continue
		}
		fmt.Fprintf(out, "  %-42s %14.4f %-6s q1 %.4f q3 %.4f n %d\n", d.Name, all[d.Name], d.Unit, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(out, "  %-42s %14.4f %-6s (%d of %d downloads)\n", "failed_share",
		ratio(float64(rec.Result.Failed), float64(rec.Result.Attempted)), "ratio", rec.Result.Failed, rec.Result.Attempted)
	c := rec.Spreads["process.cpu_ms_per_piece"]
	fmt.Fprintf(out, "  %-42s %14.4f %-6s q1 %.4f q3 %.4f n %d (not gated)\n", "process.cpu_ms_per_piece", c.Median, "ms", c.Q1, c.Q3, c.N)
	p := rec.PerDownload
	fmt.Fprintf(out, "  %-42s %14.4f %-6s q1 %.4f q3 %.4f n %d\n", "per_download_s", p.Median, "s", p.Q1, p.Q3, p.N)
	fmt.Fprintln(out, "per layer")
	for _, d := range perLayer {
		v, ok := all[d.Name]
		switch {
		case offPath(w, d.Name):
			fmt.Fprintf(out, "  %-42s %14s %-6s\n", d.Name, "n/a", d.Unit)
		case ok:
			fmt.Fprintf(out, "  %-42s %14.4f %-6s\n", d.Name, v, d.Unit)
		default:
			fmt.Fprintf(out, "  %-42s %14s %-6s (traced run only)\n", d.Name, "-", d.Unit)
		}
	}
	if rec.Traced {
		fmt.Fprintln(out, "ladder (ns per piece)")
		for _, r := range rec.Ladder {
			fmt.Fprintf(out, "  %-42s %14.0f\n", r.Layer, r.Ns)
		}
		fmt.Fprintf(out, "  %-42s %14.0f\n", "daemon.e2e_ns_per_piece", all["daemon.e2e_ns_per_piece"])
		fmt.Fprintf(out, "  %-42s %14.0f\n", "daemon.unexplained_ns_per_piece", all["daemon.unexplained_ns_per_piece"])
		fmt.Fprintf(out, "  %-42s %14.4f\n", "trace_overhead_share", all["bench.trace_overhead_share"])
	}
}

// maxLeafSpans bounds the leaf spans written to a trace file; the totals
// beside them always cover every span recorded.
const maxLeafSpans = 100000

func writeTrace(dir string, w spec, rec *record, t *tracer) (string, error) {
	tree := t.tree()
	t.mu.Lock()
	leaves := t.leaves
	t.mu.Unlock()
	doc := struct {
		Stamp         stamp                 `json:"stamp"`
		Workload      string                `json:"workload"`
		Totals        map[string]kindTotals `json:"totals_by_name"`
		Ladder        []rung                `json:"ladder"`
		LeafSpans     int                   `json:"leaf_spans_recorded"`
		LeafSpansKept int                   `json:"leaf_spans_written"`
		Spans         []spanJSON            `json:"spans"`
	}{Stamp: rec.Stamp, Workload: w.name, Totals: summarize(tree, leaves), Ladder: rec.Ladder, LeafSpans: len(leaves)}
	if len(leaves) > maxLeafSpans {
		leaves = leaves[:maxLeafSpans]
	}
	doc.LeafSpansKept = len(leaves)
	for _, s := range tree {
		doc.Spans = append(doc.Spans, t.export(s))
	}
	for _, s := range leaves {
		doc.Spans = append(doc.Spans, t.export(s))
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%s.json", w.name))
	return path, writeJSON(path, doc)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne is the driver's form: one run in this process, the result as the
// last line of standard output.
func runOne(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	rec, err := measure(w, o, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Result.Correct {
		return fmt.Errorf("%s: the correctness gate failed (%d/%d downloads failed, %d clean iterations)",
			w.name, rec.Result.Failed, rec.Result.Attempted, int(rec.Result.Metrics["bench.iterations"].Value))
	}
	return nil
}

// child runs one workload once in a fresh process — so CPU and peak RSS
// belong to that run alone — and returns its result line.
func child(o options, workload string, seed uint64, trace int, log io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-out", o.out)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if trace == 1 || runErr != nil {
		log.Write(out) // the traced run's listing is the per-layer report
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: no result line (%v): %w", workload, runErr, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	return res, nil
}

// set is one full pass: o.runs plain runs of every workload, each with
// its own seed, and the values each end-to-end metric took.
type set map[string]map[string][]float64 // workload → metric → one value per run

func runSet(o options, firstSeed uint64, log io.Writer) (set, error) {
	s := make(set)
	for _, w := range workloads {
		s[w.name] = make(map[string][]float64)
		for r := 0; r < o.runs; r++ {
			seed := firstSeed + uint64(r)
			res, err := child(o, w.name, seed, 0, log)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "%-13s seed %-4d", w.name, seed)
			for _, d := range endToEnd {
				v := res.Metrics[d.Name].Value
				s[w.name][d.Name] = append(s[w.name][d.Name], v)
				fmt.Fprintf(log, " %s %.4f", d.Name, v)
			}
			fmt.Fprintf(log, " failed %d/%d\n", res.Failed, res.Attempted)
		}
	}
	return s, nil
}

// summaryRow is one metric × workload over a set of runs.
type summaryRow struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Unit     string `json:"unit"`
	spread
	Spread float64 `json:"spread_share"` // (q3-q1)/median, what the bound is judged against
	Bound  float64 `json:"bound"`
}

func summarise(s set) []summaryRow {
	var rows []summaryRow
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := s[w.name][d.Name]
			q1, q3 := quartiles(vs)
			rows = append(rows, summaryRow{w.name, d.Name, d.Unit, spread{q1, median(vs), q3, len(vs)}, ratio(q3-q1, median(vs)), d.Bound})
		}
	}
	return rows
}

func printRows(out io.Writer, rows []summaryRow) {
	fmt.Fprintf(out, "%-13s %-22s %12s %12s %12s %8s %6s %5s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "runs")
	for _, r := range rows {
		fmt.Fprintf(out, "%-13s %-22s %12.4f %12.4f %12.4f %7.2f%% %5.0f%% %5d  %s\n",
			r.Workload, r.Metric, r.Median, r.Q1, r.Q3, 100*r.Spread, 100*r.Bound, r.N, r.Unit)
	}
}

// runAll is the one command: every workload, plain runs for the
// end-to-end numbers and one traced run for the layers, ladder and trace.
func runAll(o options, stdout io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	s, err := runSet(o, o.seed, stdout)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if _, err := child(o, w.name, o.seed, 1, stdout); err != nil {
			return err
		}
	}
	rows := summarise(s)
	fmt.Fprintf(stdout, "\nend-to-end medians over %d runs per workload (seeds %d…%d), tracing off\n", o.runs, o.seed, o.seed+uint64(o.runs)-1)
	printRows(stdout, rows)
	return writeJSON(filepath.Join(o.out, "all.json"), struct {
		Stamp stamp        `json:"stamp"`
		Rows  []summaryRow `json:"rows"`
		Runs  set          `json:"runs"`
	}{newStamp(o.seed, o.out), rows, s})
}

// repeatRow compares one metric × workload between two sets.
type repeatRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first_median"`
	Second   float64 `json:"second_median"`
	Spread   float64 `json:"spread_share"` // the wider of the two sets' (q3-q1)/median
	Worse    float64 `json:"second_worse_by_share"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// repeatCheck runs the same code twice over the same seeds and requires,
// for every metric × workload, that the second median is not worse than
// the first by more than the bound and that neither set spreads wider
// than it.
func repeatCheck(o options, stdout io.Writer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	var sets [2][]summaryRow
	for i := range sets {
		fmt.Fprintf(stdout, "set %d\n", i+1)
		s, err := runSet(o, o.seed, stdout)
		if err != nil {
			return err
		}
		sets[i] = summarise(s)
	}
	var rows []repeatRow
	bad := 0
	fmt.Fprintf(stdout, "\n%-13s %-22s %12s %12s %8s %8s %6s\n", "workload", "metric", "first", "second", "spread", "worse", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		worse := ratio(b.Median-a.Median, a.Median)
		if endToEnd[i%len(endToEnd)].Better == "higher" { // rows run workload by workload over endToEnd
			worse = -worse
		}
		r := repeatRow{a.Workload, a.Metric, a.Median, b.Median, max(a.Spread, b.Spread), worse, a.Bound, true}
		// setup_s is judged on its medians alone, as the driver does.
		if r.Worse > r.Bound || (a.Metric != "setup_s" && r.Spread > r.Bound) {
			r.OK = false
			bad++
		}
		rows = append(rows, r)
		fmt.Fprintf(stdout, "%-13s %-22s %12.4f %12.4f %7.2f%% %+7.2f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.First, r.Second, 100*r.Spread, 100*r.Worse, 100*r.Bound, map[bool]string{true: "ok", false: "DISAGREE"}[r.OK])
	}
	if err := writeJSON(filepath.Join(o.out, "repeat.json"), struct {
		Stamp stamp       `json:"stamp"`
		Runs  int         `json:"runs_per_set"`
		Rows  []repeatRow `json:"rows"`
	}{newStamp(o.seed, o.out), o.runs, rows}); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("repeat-check: %d metric × workload pairs disagree beyond their bound", bad)
	}
	return nil
}
