// Command mbtswarm boots a scripted swarm of live daemons on the stepped
// network and reports availability metrics — the CLI face of the
// internal/swarm harness, for populations bigger than the test suite
// runs. The report (stdout, and -out) is a function of the scenario,
// the population and the seed alone; the run's wall time and per-node
// goroutines and heap go to stderr.
//
// Usage:
//
//	mbtswarm -scenario steady -nodes 1000
//	mbtswarm -scenario seeder-death -nodes 500 -seed 7 -out results
//	mbtswarm -scenario mobility -nodes 200
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/swarm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mbtswarm:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mbtswarm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "steady",
			"scenario: "+strings.Join(swarm.ScenarioNames(), ", "))
		nodes = fs.Int("nodes", 1000, "population size, the seeder included")
		seed  = fs.Uint64("seed", 42, "topology and scheduler seed")
		out   = fs.String("out", "", "also write the report JSON into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, err := swarm.BuildScenario(*scenario, *nodes, *seed)
	if err != nil {
		return err
	}

	start := time.Now()
	rep, runErr := swarm.RunScenario(sc)
	fmt.Fprintf(stderr, "mbtswarm: %s: %d steps, %d beats in %.2fs wall; %.1f goroutines and %.0f heap bytes per node\n",
		rep.Scenario, rep.Steps, rep.Beats, time.Since(start).Seconds(), rep.GoroutinesPerNode, rep.HeapBytesPerNode)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(data))
	if *out != "" {
		path, err := rep.WriteFile(*out)
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, "mbtswarm: wrote", path)
	}
	return runErr
}
