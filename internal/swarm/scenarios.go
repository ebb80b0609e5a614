package swarm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/daemon"
	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Report is the per-scenario metrics record the availability tests and
// the mbtswarm CLI emit into results/. Every field is a function of the
// scenario, the population and the seed; times are in beats of the hand
// clock. The process measurements (goroutines and heap per node) are not
// written: they depend on the Go runtime, not the swarm.
type Report struct {
	Scenario    string `json:"scenario"`
	Nodes       int    `json:"nodes"`
	Seeders     int    `json:"seeders"`
	Downloaders int    `json:"downloaders"`
	Files       int    `json:"files"`
	Pieces      int    `json:"pieces_per_file"`
	Degree      int    `json:"degree"`
	Seed        uint64 `json:"seed"`

	// Steps and Beats are how long the run took: scheduler steps, and
	// beats of the hand clock.
	Steps               int     `json:"steps"`
	Beats               int     `json:"beats"`
	Completions         int     `json:"completions"`
	CompletionFraction  float64 `json:"completion_fraction"`
	FirstCompletionBeat int     `json:"first_completion_beat"`
	LastCompletionBeat  int     `json:"last_completion_beat"`
	CompletionDigest    string  `json:"completion_digest"`

	// SurvivalBeats is how many beats the scenario's file-of-interest
	// stayed fully reconstructable from live nodes after the availability
	// shock (seeder death). -1 means no shock was scripted or the file
	// survived to the end of the run.
	SurvivalBeats int `json:"survival_beats"`
	// CoverageFraction is pieces covered by live nodes over pieces
	// total, for the file of interest, at scenario end.
	CoverageFraction float64 `json:"coverage_fraction"`

	// Totals are the counters summed over every node and lifetime.
	Totals
	TransmissionsPerPiece float64 `json:"transmissions_per_piece"`

	CreditMean   float64 `json:"credit_mean"`
	CreditStddev float64 `json:"credit_stddev"`

	DHTEnabled bool `json:"dht_enabled"`
	// Post-shock query resolution (the server-death scenario): queries
	// issued only after the catalog server died, and how many of them
	// resolved to verified metadata within the scenario's window.
	PostDeathQueries         int     `json:"post_death_queries,omitempty"`
	PostDeathResolved        int     `json:"post_death_resolved,omitempty"`
	PostDeathResolveFraction float64 `json:"post_death_resolve_fraction"`

	FECEnabled bool `json:"fec_enabled"`

	GoroutinesPerNode float64 `json:"-"`
	HeapBytesPerNode  float64 `json:"-"`
}

// WriteFile marshals the report into dir (created if missing) as
// swarm_<scenario>.json.
func (r Report) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("swarm_%s.json", r.Scenario))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// Scenario is one scripted availability experiment: a population, a
// churn script, and a completion target.
type Scenario struct {
	Name   string
	Config Config
	// Target is the completion fraction RunScenario steps to after the
	// script returns (0 = don't wait; the script did its own waiting).
	Target float64
	// Script runs after Start and drives the churn. Optional.
	Script func(h *Harness) error
	// Finish annotates the report (survival, resolution) before the
	// harness shuts down. Optional.
	Finish func(h *Harness, rep *Report)
}

// RunScenario executes one scenario end to end and returns its report.
// The report is produced even on error, so a run that failed still shows
// how far it got.
func RunScenario(sc Scenario) (Report, error) {
	h, err := New(sc.Config)
	if err != nil {
		return Report{Scenario: sc.Name}, err
	}
	defer h.Shutdown()
	runErr := func() error {
		if err := h.Start(); err != nil {
			return err
		}
		if sc.Script != nil {
			if err := sc.Script(h); err != nil {
				return err
			}
		}
		if sc.Target > 0 {
			return h.WaitFraction(sc.Target)
		}
		return nil
	}()
	rep := h.Report(sc.Name)
	if sc.Finish != nil {
		sc.Finish(h, &rep)
	}
	return rep, runErr
}

// firstURI is the catalog's first file — the scenarios' file of
// interest for coverage and survival accounting.
func firstURI() metadata.URI { return metadata.URIFor(metadata.FileID(0)) }

// Steady: everyone boots at once, one seeder, full completion. The
// baseline the churn scenarios are compared against, and the shape the
// thousand-node test runs.
func Steady(nodes int, seed uint64) Scenario {
	return Scenario{
		Name:   "steady",
		Config: Config{Nodes: nodes, Seed: seed},
		Target: 1.0,
	}
}

// FlashCrowd: a small warm swarm completes first, then the rest of the
// population joins in one burst and must be absorbed — the peer-table
// caps and beacon fan-out are what this leans on.
func FlashCrowd(nodes int, seed uint64) Scenario {
	warm := max(nodes/10, 4)
	return Scenario{
		Name:   "flash-crowd",
		Config: Config{Nodes: nodes, Seed: seed, StartNodes: warm},
		Target: 1.0,
		Script: func(h *Harness) error {
			// Let the warm set finish before the crowd arrives.
			if err := h.WaitFraction(float64(warm-seeders) / float64(h.cfg.Nodes-seeders)); err != nil {
				return err
			}
			for i := warm; i < h.cfg.Nodes; i++ {
				if err := h.Join(trace.NodeID(i)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// SeederDeath: the only seeder dies once a quarter of the downloaders
// hold full copies; the swarm must finish from peer copies alone. The
// report's survival records whether (and how many beats after the kill)
// the file ever became unreconstructable from live nodes.
func SeederDeath(nodes int, seed uint64) Scenario {
	survival := -1
	return Scenario{
		Name:   "seeder-death",
		Config: Config{Nodes: nodes, Seed: seed},
		Script: func(h *Harness) error {
			if err := h.WaitFraction(0.25); err != nil {
				return err
			}
			if err := h.Kill(0); err != nil {
				return err
			}
			// A file is lost only when a holder goes: at the kill, or as a
			// record expires at a beat.
			killed, looked := h.net.Beats, -1
			return h.Until("completion after the seeder's death", func() bool {
				if survival < 0 && looked < h.net.Beats {
					looked = h.net.Beats
					if covered, total := h.coverage(firstURI()); covered < total {
						survival = looked - killed
					}
				}
				return h.CompletionFraction() >= 1
			})
		},
		Finish: func(_ *Harness, rep *Report) { rep.SurvivalBeats = survival },
	}
}

// StaggeredJoin: the population arrives in waves, each wave attaching
// to an already-converged swarm — the paper's gradual-adoption shape.
func StaggeredJoin(nodes int, seed uint64) Scenario {
	cfg := Config{Nodes: nodes, Seed: seed, StartNodes: nodes/4 + 1}
	const waves = 3
	return Scenario{
		Name:   "staggered-join",
		Config: cfg,
		Target: 1.0,
		Script: func(h *Harness) error {
			next := h.cfg.StartNodes
			per := (h.cfg.Nodes - next + waves - 1) / waves
			for next < h.cfg.Nodes {
				// Wait for most of the joined prefix before the next wave.
				joined := float64(next-seeders) / float64(h.cfg.Nodes-seeders)
				if err := h.WaitFraction(0.8 * joined); err != nil {
					return err
				}
				end := min(next+per, h.cfg.Nodes)
				for i := next; i < end; i++ {
					if err := h.Join(trace.NodeID(i)); err != nil {
						return err
					}
				}
				next = end
			}
			return nil
		},
	}
}

// Diurnal: a third of the downloaders go out of range mid-distribution
// and come back — scripted attendance, a cut of each sleeper's
// transport. Their peers must expire and re-admit them, and their
// stalled downloads must finish on the beacons that follow.
func Diurnal(nodes int, seed uint64) Scenario {
	return Scenario{
		Name:   "diurnal",
		Config: Config{Nodes: nodes, Seed: seed},
		Target: 1.0,
		Script: func(h *Harness) error {
			if err := h.WaitFraction(0.10); err != nil {
				return err
			}
			// Every third downloader sleeps, long enough for the awake
			// majority to notice the absences.
			sleep := func(on bool) error {
				for i := seeders; i < h.cfg.Nodes; i += 3 {
					if err := h.Cut(trace.NodeID(i), on); err != nil {
						return err
					}
				}
				return nil
			}
			if err := sleep(true); err != nil {
				return err
			}
			if err := h.BeatsPass(3 * Liveness); err != nil {
				return err
			}
			return sleep(false)
		},
	}
}

// ServerDeath is the decentralized-discovery acceptance scenario: the
// catalog server publishes its index into the DHT and then dies, and
// every downloader issues a keyword query for a file nobody ever
// searched while the server lived. Legacy gossip cannot answer — the
// metadata only ever spread to nodes that queried it — so resolution
// measures the DHT alone. The report records how many post-death
// queries resolved.
func ServerDeath(nodes int, seed uint64) Scenario { return serverDeath(nodes, seed, true) }

// ServerDeathBaseline is ServerDeath without the DHT — the ~0%%
// control the DHT run is compared against.
func ServerDeathBaseline(nodes int, seed uint64) Scenario { return serverDeath(nodes, seed, false) }

func serverDeath(nodes int, seed uint64, withDHT bool) Scenario {
	name := "server-death"
	if !withDHT {
		name = "server-death-baseline"
	}
	var queried, resolved int
	return Scenario{
		Name:   name,
		Config: Config{Nodes: nodes, Seed: seed, Files: 2, QueryFiles: 1, EnableDHT: withDHT},
		Script: func(h *Harness) error {
			// Wave 1: the initially queried file completes everywhere
			// while the server lives. The second file is never queried,
			// so its metadata spreads nowhere over gossip.
			if err := h.WaitFraction(1.0); err != nil {
				return err
			}
			// With the DHT on, let the server's republish cycle seed the
			// index before the shock: once half the downloaders hold the
			// never-queried keyword locally, its K-closest replicas exist
			// and survive the publisher.
			if withDHT {
				// A downloader's local DHT cache holding a value for the
				// keyword is the replication probe.
				cached := func(d *daemon.Daemon) bool { return len(d.DHT().CachedValues("f1")) > 0 }
				if err := h.Until(`DHT replication of "f1"`, func() bool { return h.count(cached)*2 >= h.cfg.Nodes-seeders }); err != nil {
					return err
				}
			}
			if err := h.Kill(0); err != nil {
				return err
			}
			// Post-death: every downloader asks for the file nobody ever
			// queried. Only the decentralized index can answer.
			for i := seeders; i < h.cfg.Nodes; i++ {
				if err := h.AddQuery(trace.NodeID(i), "f1"); err != nil {
					return err
				}
				queried++
			}
			f1 := metadata.URIFor(metadata.FileID(1))
			end := h.net.Beats + 30*dhtRepublish
			return h.Until("post-death resolution", func() bool {
				resolved = h.count(func(d *daemon.Daemon) bool { return d.KnowsMetadata(f1) })
				return resolved == queried || h.net.Beats >= end
			})
		},
		Finish: func(_ *Harness, rep *Report) {
			rep.PostDeathQueries = queried
			rep.PostDeathResolved = resolved
			if queried > 0 {
				rep.PostDeathResolveFraction = float64(resolved) / float64(queried)
			}
		},
	}
}

// count counts the running downloaders for which holds is true.
func (h *Harness) count(holds func(d *daemon.Daemon) bool) int {
	n := 0
	for _, ns := range h.nodes[seeders:] {
		if ns.d != nil && holds(ns.d) {
			n++
		}
	}
	return n
}

// Fountain is the coded variant of the steady distribution: one
// full-mesh clique moves the file over the fountain-coded symbol plane
// instead of pairwise pieces. Queries wait for group confirmation so
// the coded plane, not the unicast fallback, carries the bulk; the
// report's symbol counters and piece-equivalent transmissions-per-piece
// are the artifact.
func Fountain(nodes int, seed uint64) Scenario {
	nodes = min(max(nodes, 3), 5)
	return Scenario{
		Name:   "fountain",
		Config: Config{Nodes: nodes, Seed: seed, EnableFEC: true, QueryFiles: -1},
		Target: 1.0,
		Script: func(h *Harness) error {
			if err := h.Until("group confirmation", h.groupsConfirmed); err != nil {
				return err
			}
			for i := seeders; i < h.cfg.Nodes; i++ {
				if err := h.AddQuery(trace.NodeID(i), "f0"); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// groupsConfirmed reports whether every node sits in a confirmed
// broadcast group of the full population — the fountain scenario's
// readiness gate.
func (h *Harness) groupsConfirmed() bool {
	ds := h.daemons()
	for _, d := range ds {
		st := d.Stats()
		if len(ds) != h.cfg.Nodes || st.Bcast == nil || !st.Bcast.Confirmed || len(st.Bcast.Group) != h.cfg.Nodes {
			return false
		}
	}
	return true
}

// Mobility: downloaders follow partition schedules rendered from a
// waypoint mobility trace (25 simulated minutes a beat), so connectivity
// churns the way the paper's mobile band does; a final heal converges
// the run. The seeder stays connected throughout — it is the Internet
// side of the hybrid.
func Mobility(nodes int, seed uint64) Scenario {
	return Scenario{
		Name:   "mobility",
		Config: Config{Nodes: nodes, Seed: seed},
		Target: 1.0,
	}
}

// mobilitySchedules renders the waypoint model into per-node partition
// schedules for every downloader and appends a final heal so the swarm
// can converge once the "day" of mobility ends.
func mobilitySchedules(nodes int, seed uint64) (map[trace.NodeID][]Event, error) {
	wcfg := tracegen.DefaultWaypoint()
	wcfg.Nodes = nodes
	wcfg.Days = 1
	wcfg.Seed = seed
	tr, err := tracegen.Waypoint(wcfg)
	if err != nil {
		return nil, err
	}
	scheds, err := PartitionSchedules(tr, ScheduleConfig{Slack: 30 * simtime.Minute})
	if err != nil {
		return nil, err
	}
	// The hybrid's Internet side never roams.
	for s := 0; s < seeders; s++ {
		delete(scheds, trace.NodeID(s))
	}
	// Heal everyone after the trace horizon so the run converges.
	horizon := 0
	for _, ev := range scheds {
		for _, e := range ev {
			horizon = max(horizon, e.Beat)
		}
	}
	for id, ev := range scheds {
		if len(ev) > 0 && ev[len(ev)-1].Partition {
			scheds[id] = append(ev, Event{Beat: horizon + 1})
		}
	}
	return scheds, nil
}

// scenarioBuilders is the registry the CLI and tests draw from.
var scenarioBuilders = map[string]func(nodes int, seed uint64) Scenario{
	"steady":                Steady,
	"flash-crowd":           FlashCrowd,
	"seeder-death":          SeederDeath,
	"staggered-join":        StaggeredJoin,
	"diurnal":               Diurnal,
	"mobility":              Mobility,
	"server-death":          ServerDeath,
	"server-death-baseline": ServerDeathBaseline,
	"fountain":              Fountain,
}

// ScenarioNames lists the registered scenarios, sorted.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarioBuilders))
	for name := range scenarioBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BuildScenario instantiates a registered scenario by name.
func BuildScenario(name string, nodes int, seed uint64) (Scenario, error) {
	build, ok := scenarioBuilders[name]
	if !ok {
		return Scenario{}, fmt.Errorf("swarm: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	sc := build(nodes, seed)
	if sc.Name == "mobility" {
		scheds, err := mobilitySchedules(nodes, seed)
		if err != nil {
			return Scenario{}, err
		}
		sc.Config.Schedules = scheds
	}
	return sc, nil
}
