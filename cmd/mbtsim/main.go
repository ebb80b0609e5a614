// Command mbtsim runs one cooperative file-sharing simulation and prints
// its delivery ratios and traffic counters.
//
// Usage:
//
//	mbtsim -trace nus -variant MBT -internet 0.5 -metadata 5 -files 3
//	mbtsim -trace dieselnet -variant MBT-QM -seed 7
//	mbtsim -trace-file campus.trace -variant MBT-Q
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mbtsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mbtsim", flag.ContinueOnError)
	var (
		traceKind  = fs.String("trace", "nus", "synthetic trace family: nus, dieselnet or waypoint")
		traceFile  = fs.String("trace-file", "", "load a trace file instead of generating one")
		variant    = fs.String("variant", "MBT", "protocol: MBT, MBT-Q or MBT-QM")
		internet   = fs.Float64("internet", 0.5, "fraction of Internet-access nodes")
		metadata   = fs.Int("metadata", 5, "metadata broadcasts per contact")
		files      = fs.Int("files", 3, "files per contact")
		newFiles   = fs.Int("new-files", 50, "new files published per day")
		ttlDays    = fs.Int("ttl", 3, "file time-to-live in days")
		titForTat  = fs.Bool("tft", false, "use the tit-for-tat schedulers")
		freeRiders = fs.Float64("free-riders", 0, "fraction of free-riding nodes")
		loss       = fs.Float64("loss", 0, "per-receiver broadcast loss probability")
		metaCap    = fs.Int("metadata-cap", 0, "per-node metadata store cap (0 = unlimited)")
		cacheCap   = fs.Int("cache-cap", 0, "per-node unwanted piece-cache cap (0 = unlimited)")
		chokeMin   = fs.Float64("choke-credit", 0, "enable encrypted choking at this credit threshold (needs -tft)")
		chokeOpt   = fs.Int("choke-optimistic", 0, "optimistic unchoke every n-th decision (0 = off)")
		failures   = fs.Float64("failures", 0, "fraction of nodes that permanently fail mid-trace")
		seed       = fs.Uint64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, freq, err := loadTrace(*traceKind, *traceFile, *seed)
	if err != nil {
		return err
	}

	v, err := core.ParseVariant(*variant)
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig(tr)
	cfg.Variant = v
	cfg.InternetFraction = *internet
	cfg.MetadataPerContact = *metadata
	cfg.FilesPerContact = *files
	cfg.Workload.NewFilesPerDay = *newFiles
	cfg.Workload.TTL = simtime.Days(*ttlDays)
	cfg.TitForTat = *titForTat
	cfg.FreeRiderFraction = *freeRiders
	cfg.BroadcastLossRate = *loss
	cfg.MetadataCapacity = *metaCap
	cfg.PieceCacheCapacity = *cacheCap
	cfg.ChokeMinCredit = *chokeMin
	cfg.ChokeOptimisticEvery = *chokeOpt
	cfg.NodeFailureRate = *failures
	cfg.FrequentContactsPerDay = freq
	cfg.Seed = *seed
	cfg.Workload.Seed = *seed

	res, err := core.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "trace:               %s (%d nodes, %d sessions, %d days)\n",
		tr.Name, tr.NodeCount, res.Sessions, tr.Days())
	fmt.Fprintf(stdout, "protocol:            %s", res.Variant)
	if *titForTat {
		fmt.Fprintf(stdout, " (tit-for-tat, %.0f%% free-riders)", *freeRiders*100)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "internet nodes:      %d\n", res.InternetNodes)
	fmt.Fprintf(stdout, "queries:             %d\n", res.Queries)
	fmt.Fprintf(stdout, "metadata delivered:  %d (ratio %.3f, mean delay %v)\n",
		res.MetadataDeliveries, res.MetadataRatio, res.MeanMetadataDelay)
	fmt.Fprintf(stdout, "files delivered:     %d (ratio %.3f, mean delay %v)\n",
		res.FileDeliveries, res.FileRatio, res.MeanFileDelay)
	fmt.Fprintf(stdout, "DTN broadcasts:      %d metadata, %d pieces\n",
		res.MetadataBroadcasts, res.PieceBroadcasts)
	return nil
}

func loadTrace(kind, file string, seed uint64) (*trace.Trace, float64, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		tr, err := trace.Decode(f)
		if err != nil {
			return nil, 0, err
		}
		return tr, 1.0 / 3, nil
	}
	switch kind {
	case "nus":
		cfg := tracegen.DefaultNUS()
		cfg.Seed = seed
		tr, err := tracegen.NUS(cfg)
		return tr, 0.25, err
	case "dieselnet":
		cfg := tracegen.DefaultDiesel()
		cfg.Seed = seed
		tr, err := tracegen.Diesel(cfg)
		return tr, 1.0 / 3, err
	case "waypoint":
		cfg := tracegen.DefaultWaypoint()
		cfg.Seed = seed
		tr, err := tracegen.Waypoint(cfg)
		return tr, 1.0 / 3, err
	default:
		return nil, 0, fmt.Errorf("unknown trace family %q (want nus, dieselnet or waypoint)", kind)
	}
}
