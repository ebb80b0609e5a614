package swarm

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Report is the per-scenario metrics record the availability tests and
// the mbtswarm CLI emit into results/.
type Report struct {
	Scenario    string `json:"scenario"`
	Nodes       int    `json:"nodes"`
	Seeders     int    `json:"seeders"`
	Downloaders int    `json:"downloaders"`
	Files       int    `json:"files"`
	Pieces      int    `json:"pieces_per_file"`
	Degree      int    `json:"degree"`
	Seed        uint64 `json:"seed"`

	WallMs             float64 `json:"wall_ms"`
	Completions        int     `json:"completions"`
	CompletionFraction float64 `json:"completion_fraction"`
	FirstCompletionMs  float64 `json:"first_completion_ms,omitempty"`
	LastCompletionMs   float64 `json:"last_completion_ms,omitempty"`
	CompletionDigest   string  `json:"completion_digest"`

	// SurvivalMs is how long the scenario's file-of-interest stayed
	// fully reconstructable from live nodes after the availability shock
	// (seeder death, partition onset). -1 means no shock was scripted or
	// the file survived to the end of the run.
	SurvivalMs float64 `json:"survival_ms"`
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

	GoroutinesPerNode float64 `json:"goroutines_per_node"`
	HeapBytesPerNode  float64 `json:"heap_bytes_per_node"`
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
	// Target is the completion fraction RunScenario waits for after the
	// script returns (0 = don't wait; the script did its own waiting).
	Target float64
	// Timeout bounds the whole run.
	Timeout time.Duration
	// Script runs after Start and drives the churn. Optional.
	Script func(ctx context.Context, h *Harness) error
	// Finish annotates the report (survival times, coverage) before the
	// harness shuts down. Optional.
	Finish func(h *Harness, rep *Report)
}

// RunScenario executes one scenario end to end and returns its report.
// The report is produced even on error, so a timed-out run still shows
// how far it got.
func RunScenario(ctx context.Context, sc Scenario) (Report, error) {
	h, err := New(sc.Config)
	if err != nil {
		return Report{Scenario: sc.Name}, err
	}
	defer h.Shutdown()

	timeout := sc.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	runErr := func() error {
		if err := h.Start(ctx); err != nil {
			return err
		}
		if sc.Script != nil {
			if err := sc.Script(ctx, h); err != nil {
				return err
			}
		}
		if sc.Target > 0 {
			if err := h.WaitFraction(ctx, sc.Target); err != nil {
				return err
			}
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

// watchSurvival polls the file of interest's coverage until it drops
// below full or ctx ends, and returns a func yielding the survival time
// (ms since watch start; -1 if still fully covered when read).
func watchSurvival(ctx context.Context, h *Harness) func() float64 {
	start := time.Now()
	lost := make(chan float64, 1)
	go func() {
		for {
			covered, total := h.Coverage(firstURI())
			if covered < total {
				lost <- float64(time.Since(start)) / float64(time.Millisecond)
				return
			}
			select {
			case <-time.After(20 * time.Millisecond):
			case <-ctx.Done():
				return
			}
		}
	}()
	return func() float64 {
		select {
		case ms := <-lost:
			return ms
		default:
			return -1
		}
	}
}

// Steady: everyone boots at once, one seeder, full completion. The
// baseline the churn scenarios are compared against, and the shape the
// thousand-node determinism test runs.
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
	warm := nodes / 10
	if warm < 4 {
		warm = 4
	}
	cfg := Config{Nodes: nodes, Seed: seed, StartNodes: warm}
	return Scenario{
		Name:   "flash-crowd",
		Config: cfg,
		Target: 1.0,
		Script: func(ctx context.Context, h *Harness) error {
			// Let the warm set finish before the crowd arrives.
			warmFrac := float64(warm-h.cfg.Seeders) / float64(h.cfg.Nodes-h.cfg.Seeders)
			if err := h.WaitFraction(ctx, warmFrac); err != nil {
				return err
			}
			for i := warm; i < h.cfg.Nodes; i++ {
				if err := h.Join(ctx, trace.NodeID(i)); err != nil {
					return err
				}
			}
			h.logf("swarm: flash crowd of %d joined", h.cfg.Nodes-warm)
			return nil
		},
	}
}

// SeederDeath: the only seeder dies once a quarter of the downloaders
// hold full copies; the swarm must finish from peer copies alone. The
// report's survival time records whether (and when) the file ever
// became unreconstructable from live nodes.
func SeederDeath(nodes int, seed uint64) Scenario {
	var survival func() float64
	return Scenario{
		Name:   "seeder-death",
		Config: Config{Nodes: nodes, Seed: seed},
		Target: 1.0,
		Script: func(ctx context.Context, h *Harness) error {
			if err := h.WaitFraction(ctx, 0.25); err != nil {
				return err
			}
			if err := h.Kill(0); err != nil {
				return err
			}
			survival = watchSurvival(ctx, h)
			return nil
		},
		Finish: func(h *Harness, rep *Report) {
			if survival != nil {
				rep.SurvivalMs = survival()
			}
		},
	}
}

// StaggeredJoin: the population arrives in waves, each wave attaching
// to an already-converged swarm — the paper's gradual-adoption shape.
func StaggeredJoin(nodes int, seed uint64) Scenario {
	cfg := Config{Nodes: nodes, Seed: seed}
	cfg.StartNodes = nodes/4 + 1
	waves := 3
	return Scenario{
		Name:   "staggered-join",
		Config: cfg,
		Target: 1.0,
		Script: func(ctx context.Context, h *Harness) error {
			next := cfg.StartNodes
			per := (h.cfg.Nodes - next + waves - 1) / waves
			for next < h.cfg.Nodes {
				// Wait for most of the joined prefix before the next wave.
				joined := float64(next-h.cfg.Seeders) / float64(h.cfg.Nodes-h.cfg.Seeders)
				if err := h.WaitFraction(ctx, 0.8*joined); err != nil {
					return err
				}
				end := next + per
				if end > h.cfg.Nodes {
					end = h.cfg.Nodes
				}
				for i := next; i < end; i++ {
					if err := h.Join(ctx, trace.NodeID(i)); err != nil {
						return err
					}
				}
				h.logf("swarm: wave joined nodes [%d,%d)", next, end)
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
		Script: func(ctx context.Context, h *Harness) error {
			if err := h.WaitFraction(ctx, 0.10); err != nil {
				return err
			}
			sleepers := sleeperSet(h)
			for _, id := range sleepers {
				if err := h.Pause(id); err != nil {
					return err
				}
			}
			h.logf("swarm: %d nodes asleep", len(sleepers))
			// Long enough for the awake majority to notice the absences.
			night := 3 * h.cfg.LivenessWindow
			select {
			case <-time.After(night):
			case <-ctx.Done():
				return ctx.Err()
			}
			for _, id := range sleepers {
				if err := h.Resume(id); err != nil {
					return err
				}
			}
			h.logf("swarm: %d nodes awake", len(sleepers))
			return nil
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
	cfg := Config{Nodes: nodes, Seed: seed, Files: 2, QueryFiles: 1, EnableDHT: withDHT}
	var queried, resolved int
	return Scenario{
		Name:   name,
		Config: cfg,
		Script: func(ctx context.Context, h *Harness) error {
			// Wave 1: the initially queried file completes everywhere
			// while the server lives. The second file is never queried,
			// so its metadata spreads nowhere over gossip.
			if err := h.WaitFraction(ctx, 1.0); err != nil {
				return err
			}
			// With the DHT on, let the server's republish cycle seed the
			// index before the shock: once half the downloaders hold the
			// never-queried keyword locally, its K-closest replicas exist
			// and survive the publisher.
			if withDHT {
				if err := waitCached(ctx, h, "f1", 0.5); err != nil {
					return err
				}
			}
			if err := h.Kill(0); err != nil {
				return err
			}
			// Post-death: every downloader asks for the file nobody ever
			// queried. Only the decentralized index can answer.
			for i := h.cfg.Seeders; i < h.cfg.Nodes; i++ {
				if err := h.AddQuery(trace.NodeID(i), "f1"); err != nil {
					return err
				}
				queried++
			}
			f1 := metadata.URIFor(metadata.FileID(1))
			deadline := time.Now().Add(30 * h.cfg.DHTRepublish)
			for time.Now().Before(deadline) {
				if resolved = countKnowing(h, f1); resolved == queried {
					break
				}
				select {
				case <-time.After(20 * time.Millisecond):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			resolved = countKnowing(h, f1)
			return nil
		},
		Finish: func(h *Harness, rep *Report) {
			rep.PostDeathQueries = queried
			rep.PostDeathResolved = resolved
			if queried > 0 {
				rep.PostDeathResolveFraction = float64(resolved) / float64(queried)
			}
		},
	}
}

// waitCached blocks until frac of the downloaders hold a local DHT
// value for keyword, or ctx ends.
func waitCached(ctx context.Context, h *Harness, keyword string, frac float64) error {
	for {
		have, total := 0, 0
		for i := h.cfg.Seeders; i < h.cfg.Nodes; i++ {
			total++
			if h.DHTCached(trace.NodeID(i), keyword) {
				have++
			}
		}
		if total > 0 && float64(have) >= frac*float64(total) {
			return nil
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("swarm: DHT replication of %q at %d/%d: %w", keyword, have, total, ctx.Err())
		}
	}
}

// countKnowing counts downloaders holding an unexpired record for uri.
func countKnowing(h *Harness, uri metadata.URI) int {
	n := 0
	for i := h.cfg.Seeders; i < h.cfg.Nodes; i++ {
		if h.KnowsMetadata(trace.NodeID(i), uri) {
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
	if nodes > 5 {
		nodes = 5
	}
	if nodes < 3 {
		nodes = 3
	}
	cfg := Config{Nodes: nodes, Seed: seed, EnableFEC: true, QueryFiles: -1}
	return Scenario{
		Name:   "fountain",
		Config: cfg,
		Target: 1.0,
		Script: func(ctx context.Context, h *Harness) error {
			for !h.GroupsConfirmed() {
				select {
				case <-time.After(20 * time.Millisecond):
				case <-ctx.Done():
					return fmt.Errorf("swarm: groups never confirmed: %w", ctx.Err())
				}
			}
			for i := h.cfg.Seeders; i < h.cfg.Nodes; i++ {
				if err := h.AddQuery(trace.NodeID(i), "f0"); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// sleeperSet picks every third downloader, skipping seeders.
func sleeperSet(h *Harness) []trace.NodeID {
	var ids []trace.NodeID
	for i := h.cfg.Seeders; i < h.cfg.Nodes; i += 3 {
		ids = append(ids, trace.NodeID(i))
	}
	return ids
}

// Mobility: downloaders follow partition schedules rendered from a
// waypoint mobility trace (1 sim-minute ≈ 1 wall-ms), so connectivity
// churns the way the paper's mobile band does; a final heal converges
// the run. Seeders stay connected throughout — they are the Internet
// side of the hybrid.
func Mobility(nodes int, seed uint64) Scenario {
	cfg := Config{Nodes: nodes, Seed: seed}
	return Scenario{
		Name:   "mobility",
		Config: cfg,
		Target: 1.0,
	}
}

// mobilitySchedules renders the waypoint model into per-node partition
// schedules for every downloader and appends a final heal so the swarm
// can converge once the "day" of mobility ends.
func mobilitySchedules(nodes, seeders int, seed uint64) (map[trace.NodeID][]fault.Event, error) {
	wcfg := tracegen.DefaultWaypoint()
	wcfg.Nodes = nodes
	wcfg.Days = 1
	wcfg.Seed = seed
	tr, err := tracegen.Waypoint(wcfg)
	if err != nil {
		return nil, err
	}
	scheds, err := PartitionSchedules(tr, ScheduleConfig{
		Compress: simtime.Minute,
		Slack:    30 * simtime.Minute,
	})
	if err != nil {
		return nil, err
	}
	// The hybrid's Internet side never roams.
	for s := 0; s < seeders; s++ {
		delete(scheds, trace.NodeID(s))
	}
	// Heal everyone after the trace horizon so the run converges.
	var horizon time.Duration
	for _, ev := range scheds {
		for _, e := range ev {
			if e.At > horizon {
				horizon = e.At
			}
		}
	}
	for id, ev := range scheds {
		if len(ev) > 0 && ev[len(ev)-1].Partition {
			scheds[id] = append(ev, fault.Event{At: horizon + time.Millisecond})
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
		scheds, err := mobilitySchedules(nodes, 1, seed)
		if err != nil {
			return Scenario{}, err
		}
		sc.Config.Schedules = scheds
	}
	return sc, nil
}
