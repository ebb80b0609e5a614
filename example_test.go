package hybriddtn_test

import (
	"fmt"
	"log"
	"strings"

	hybriddtn "repro"
	"repro/internal/metrics"
)

// ExampleRun simulates the full MBT protocol over a small campus trace
// and reports whether the offline students' searches were served.
func ExampleRun() {
	traceCfg := hybriddtn.DefaultNUSTrace()
	traceCfg.Students, traceCfg.Classes, traceCfg.Days = 40, 8, 5

	tr, err := hybriddtn.NUSTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}

	cfg := hybriddtn.DefaultConfig(tr)
	cfg.Variant = hybriddtn.MBT
	cfg.Workload.NewFilesPerDay = 10

	res, err := hybriddtn.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("queries generated:", res.Queries > 0)
	fmt.Println("ratios in range:",
		res.MetadataRatio >= 0 && res.MetadataRatio <= 1 &&
			res.FileRatio >= 0 && res.FileRatio <= res.MetadataRatio)
	// Output:
	// queries generated: true
	// ratios in range: true
}

// ExampleParseVariant shows the protocol names the paper uses.
func ExampleParseVariant() {
	for _, name := range []string{"MBT", "MBT-Q", "MBT-QM"} {
		v, err := hybriddtn.ParseVariant(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(v)
	}
	// Output:
	// MBT
	// MBT-Q
	// MBT-QM
}

// ExampleRunExperiment reproduces one point of the paper's Figure 3(a)
// at test scale.
func ExampleRunExperiment() {
	def, err := hybriddtn.LookupExperiment("fig3a")
	if err != nil {
		log.Fatal(err)
	}
	def.Xs = []float64{0.5}

	s, err := hybriddtn.RunExperiment(def, hybriddtn.ExperimentOptions{Seed: 1, Small: true})
	if err != nil {
		log.Fatal(err)
	}

	cell := s.Points[0].Cells[hybriddtn.MBT]
	fmt.Println("panel:", s.ID)
	fmt.Println("MBT delivered something:", cell.MetadataRatio > 0)
	// Output:
	// panel: fig3a
	// MBT delivered something: true
}

// Example_quickstart generates a small campus trace, runs the full MBT
// protocol over it, and prints the delivery ratios — the minimal
// end-to-end use of the public API.
func Example_quickstart() {
	// A small campus: 80 students, 16 courses, one week.
	traceCfg := hybriddtn.DefaultNUSTrace()
	traceCfg.Students = 80
	traceCfg.Classes = 16
	traceCfg.Days = 7

	tr, err := hybriddtn.NUSTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}

	cfg := hybriddtn.DefaultConfig(tr)
	cfg.Variant = hybriddtn.MBT
	cfg.InternetFraction = 0.5 // half the students sometimes reach WiFi
	cfg.Workload.NewFilesPerDay = 20

	res, err := hybriddtn.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %d students over %d contact sessions\n",
		tr.NodeCount, res.Sessions)
	fmt.Printf("queries by offline students:  %d\n", res.Queries)
	fmt.Printf("metadata delivery ratio:      %.3f (mean delay %v)\n",
		res.MetadataRatio, res.MeanMetadataDelay)
	fmt.Printf("file delivery ratio:          %.3f (mean delay %v)\n",
		res.FileRatio, res.MeanFileDelay)
	// Output:
	// simulated 80 students over 32 contact sessions
	// queries by offline students:  470
	// metadata delivery ratio:      0.621 (mean delay 13h22m11.506s)
	// file delivery ratio:          0.453 (mean delay 15h22m15.211s)
}

// Example_buses is the vehicular scenario of the paper's Figure 2. A
// DieselNet-style fleet shares files through short pairwise bus
// meetings; the example compares all three protocols on the same trace
// and shows why the file-discovery step (metadata distribution) matters:
// MBT distributes queries and metadata ahead of the files, MBT-QM (no
// discovery) must rely on popularity pushes alone.
func Example_buses() {
	traceCfg := hybriddtn.DefaultDieselTrace()
	traceCfg.Days = 14

	tr, err := hybriddtn.DieselTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bus fleet: %d buses, %d pairwise meetings over %d days\n",
		tr.NodeCount, len(tr.Sessions), tr.Days())

	fmt.Printf("%-8s %15s %15s\n", "variant", "metadata ratio", "file ratio")
	for _, v := range hybriddtn.Variants() {
		cfg := hybriddtn.DefaultConfig(tr)
		cfg.Variant = v
		// The paper's DieselNet rule: pairs meeting at least every three
		// days are frequent contacts.
		cfg.FrequentContactsPerDay = 1.0 / 3

		res, err := hybriddtn.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %15.3f %15.3f\n", v, res.MetadataRatio, res.FileRatio)
	}
	// Output:
	// bus fleet: 40 buses, 1537 pairwise meetings over 14 days
	// variant   metadata ratio      file ratio
	// MBT                0.985           0.495
	// MBT-Q              0.701           0.491
	// MBT-QM             0.425           0.425
}

// Example_campus is the NUS-style scenario of the paper's Figure 3.
// Students form classroom cliques where broadcast download shines; the
// example sweeps the attendance rate (Figure 3(f)) and prints how
// delivery degrades as students skip class — fewer contact
// opportunities, thinner cliques.
func Example_campus() {
	fmt.Println("attendance sweep on the campus trace (protocol: MBT)")
	fmt.Printf("%-12s %10s %15s %15s\n", "attendance", "sessions", "metadata ratio", "file ratio")

	for _, attendance := range []float64{0.5, 0.7, 0.9, 1.0} {
		traceCfg := hybriddtn.DefaultNUSTrace()
		traceCfg.Attendance = attendance

		tr, err := hybriddtn.NUSTrace(traceCfg)
		if err != nil {
			log.Fatal(err)
		}

		cfg := hybriddtn.DefaultConfig(tr)
		cfg.Variant = hybriddtn.MBT
		// Classmates sharing a course meet ~2 times a week.
		cfg.FrequentContactsPerDay = 0.25

		res, err := hybriddtn.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12.1f %10d %15.3f %15.3f\n",
			attendance, res.Sessions, res.MetadataRatio, res.FileRatio)
	}
	// Output:
	// attendance sweep on the campus trace (protocol: MBT)
	// attendance     sessions  metadata ratio      file ratio
	// 0.5                 160           0.401           0.213
	// 0.7                 160           0.493           0.287
	// 0.9                 160           0.547           0.330
	// 1.0                 160           0.574           0.358
}

// Example_titForTat is the selfish-node scenario of §IV-B and §V-B.
// Under the tit-for-tat schedulers, nodes broadcast in an agreed cyclic
// order and weigh requests by the requesters' earned credit; free-riders
// receive broadcasts but never transmit, so they earn no credit and
// their requests carry no weight. The example runs one simulation with
// 30% free-riders and compares the two groups — showing the incentive at
// work, and why the broadcast medium means free-riders can never be
// fully excluded (the paper's own caveat): contributors' requests carry
// credit, so they are served first; free-riders still overhear
// broadcasts, so they are slowed, not starved.
func Example_titForTat() {
	traceCfg := hybriddtn.DefaultNUSTrace()
	traceCfg.Students = 120
	traceCfg.Classes = 24

	tr, err := hybriddtn.NUSTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}

	cfg := hybriddtn.DefaultConfig(tr)
	cfg.Variant = hybriddtn.MBT
	cfg.TitForTat = true
	cfg.FreeRiderFraction = 0.3
	cfg.FrequentContactsPerDay = 0.25
	cfg.MetadataPerContact = 2 // scarce budget makes the incentive visible

	sim, err := hybriddtn.NewSim(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		log.Fatal(err)
	}

	perNode := sim.Collector().PerNode()
	var contributors, riders group
	for _, nd := range sim.Nodes() {
		st, ok := perNode[nd.ID]
		if !ok {
			continue // Internet nodes are not measured
		}
		if nd.FreeRider {
			riders.add(st)
		} else {
			contributors.add(st)
		}
	}

	fmt.Println("both groups asked:", contributors.queries > 0 && riders.queries > 0)
	fmt.Println("free-riders slowed:", riders.fileRatio() < contributors.fileRatio())
	fmt.Println("free-riders not starved:", riders.files > 0)
	// Output:
	// both groups asked: true
	// free-riders slowed: true
	// free-riders not starved: true
}

// group accumulates NodeStats for one population.
type group struct {
	queries, files int
}

func (g *group) add(st metrics.NodeStats) {
	g.queries += st.Queries
	g.files += st.FileDeliveries
}

// fileRatio is files delivered per query asked.
func (g *group) fileRatio() float64 {
	if g.queries == 0 {
		return 0
	}
	return float64(g.files) / float64(g.queries)
}

// Example_warmup shows how the system reaches steady state. It runs MBT
// over the campus trace and prints the per-day query and delivery
// counts — day by day, metadata distribution warms up (stores fill,
// frequent-contact caches populate) until deliveries track the daily
// query load. Weekends (days 5 and 6) hold no classes: queries pile up
// and the following weekdays clear the backlog.
func Example_warmup() {
	tr, err := hybriddtn.NUSTrace(hybriddtn.DefaultNUSTrace())
	if err != nil {
		log.Fatal(err)
	}

	cfg := hybriddtn.DefaultConfig(tr)
	cfg.Variant = hybriddtn.MBT
	cfg.FrequentContactsPerDay = 0.25

	sim, err := hybriddtn.NewSim(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		log.Fatal(err)
	}

	days := cfg.Workload.Days
	series := sim.Collector().DailySeries(days)

	fmt.Println("day-by-day activity, MBT on the campus trace")
	fmt.Printf("%-5s %9s %15s %12s\n", "day", "queries", "meta delivered", "files done")
	for day, st := range series {
		bar := strings.Repeat("#", st.FilesDelivered/4)
		fmt.Println(strings.TrimRight(fmt.Sprintf("%-5d %9d %15d %12d  %s",
			day, st.QueriesCreated, st.MetadataDelivered, st.FilesDelivered, bar), " "))
	}
	// Output:
	// day-by-day activity, MBT on the campus trace
	// day     queries  meta delivered   files done
	// 0           194              40           13  ###
	// 1           264              94           52  #############
	// 2           196             186          122  ##############################
	// 3           176             135           91  ######################
	// 4           199             127           76  ###################
	// 5           183               0            0
	// 6           164               0            0
	// 7           215             140           78  ###################
	// 8           212             114           52  #############
	// 9           219             176          112  ############################
	// 10          161             146           98  ########################
	// 11          166             127           81  ####################
}
