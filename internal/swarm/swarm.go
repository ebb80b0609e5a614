// Package swarm boots and scripts populations of up to thousands of live
// daemons on the stepped network (internal/stepnet) — the repo's test
// engine for the availability workload family: file survival under
// seeder scarcity, flash crowds, staggered joins, diurnal attendance,
// and partial-mobility partition schedules derived from the tracegen
// mobility models.
//
// A Harness owns one population. Topology is a seeded random-attachment
// graph: node i maintains outbound links to node i-1 plus DefaultDegree-1
// uniformly chosen earlier nodes, so every started prefix of the
// population is connected by construction — the property that lets
// churn scripts start, kill, cut and heal nodes in any order
// without stranding the survivors. Node 0 is the Internet-access seeder
// publishing the catalog; everyone else queries for every file and
// downloads cooperatively, piece by piece, through the ordinary
// hello→metadata→pieces protocol.
//
// The daemons run their real goroutines over a network the harness
// steps: one frame, or one beat of the hand clock, per step, the next
// step chosen by a generator seeded from Config.Seed. A script waits by
// stepping until a predicate holds or some beats pass, never on the wall
// clock, so a Report is a pure function of (scenario, nodes, seed): every
// count, every beat and the completion digest.
package swarm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/rng"
	"repro/internal/stepnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Defaults.
const (
	// DefaultDegree is the outbound link count per node; with random
	// attachment the expected diameter is logarithmic, so pieces cross a
	// thousand-node swarm in a handful of beats.
	DefaultDegree = 4
	// DefaultMaxPeers bounds each node's peer table. Random attachment
	// gives early nodes in-degree ~Degree·ln(n); the cap sits above
	// that, so it only bites when something is actually wrong.
	DefaultMaxPeers = 64
	// FileSize / PieceSize give 16 pieces per file — small enough that a
	// thousand-node distribution is bounded by propagation rounds, not
	// bytes.
	FileSize  = 16 * 1024
	PieceSize = 1024
	// SymbolSize is the coded-symbol payload with EnableFEC: 4 source
	// symbols per piece.
	SymbolSize = 256
	// Liveness is the liveness window in beats; the DHT republishes every
	// dhtRepublish beats.
	Liveness     = 6
	dhtRepublish = 4
	// MaxBeats bounds a run: a scenario not done by then fails.
	MaxBeats = 1000
)

// seeders is how many nodes carry the catalog: node 0, the Internet side
// of the hybrid.
const seeders = 1

// Config sizes and shapes one swarm.
type Config struct {
	// Nodes is the total population, the seeder included.
	Nodes int
	// Files is how many files the seeder publishes (default 1).
	Files int
	// Seed drives the topology's chords and the scheduler.
	Seed uint64
	// StartNodes is how many nodes Start boots (0 = all). The rest join
	// later via Join — the flash-crowd and staggered-join lever.
	StartNodes int
	// QueryFiles limits each downloader's initial queries to files
	// 0..QueryFiles-1 (0 = all Files; -1 = none — the scenario script
	// issues queries itself via AddQuery). Completion targets count the
	// initially queried files, or all files when none are queried
	// initially.
	QueryFiles int
	// EnableDHT runs the Kademlia metadata index on every node, the
	// seeder included: it publishes the catalog into the index,
	// downloaders resolve open queries DHT-first.
	EnableDHT bool
	// EnableFEC puts every node in one broadcast group on a shared
	// radio lane with the fountain-coded symbol plane — the coded variant
	// of a swarm scenario. Group formation needs a full mesh, so this
	// caps the population (fillDefaults enforces it) and links every
	// node to every earlier one.
	EnableFEC bool
	// Schedules adds per-node partition/heal scripts, applied at beat
	// boundaries — the contact-trace adapter's output plugs in here.
	Schedules map[trace.NodeID][]Event
}

func (c *Config) fillDefaults() error {
	if c.Nodes <= seeders {
		return fmt.Errorf("swarm: need at least %d nodes, have %d", seeders+1, c.Nodes)
	}
	if c.Files <= 0 {
		c.Files = 1
	}
	if c.StartNodes <= seeders || c.StartNodes > c.Nodes {
		c.StartNodes = c.Nodes
	}
	if c.QueryFiles > c.Files {
		return fmt.Errorf("swarm: QueryFiles %d exceeds Files %d", c.QueryFiles, c.Files)
	}
	// One broadcast group spans the population; clique formation needs
	// everyone in radio range of everyone.
	const maxFEC = 8
	if c.EnableFEC && c.Nodes > maxFEC {
		return fmt.Errorf("swarm: EnableFEC supports at most %d nodes (one clique), have %d", maxFEC, c.Nodes)
	}
	return nil
}

// degree is the outbound link count per node: DefaultDegree, or a full
// mesh for a broadcast group.
func (c *Config) degree() int {
	if c.EnableFEC {
		return c.Nodes - 1
	}
	return DefaultDegree
}

// completion is one observed download finish, at the beat it happened in.
type completion struct {
	beat int
	node trace.NodeID
	uri  metadata.URI
}

// nodeState is one population member across its lifetimes.
type nodeState struct {
	id   trace.NodeID
	cfg  daemon.Config
	chao *fault.Transport // this node's view of the net: its partitions
	d    *daemon.Daemon   // nil while down
	stop func()           // ends d's Run and waits for it
}

// Totals is the summable slice of daemon.Stats a Report carries, under
// the report's JSON keys: Kill folds a finished lifetime into the
// harness's retired totals, Report starts from those and folds in every
// live node.
type Totals struct {
	PiecesSent         uint64 `json:"pieces_sent"`
	PiecesVerified     uint64 `json:"pieces_verified"`
	PiecesDuplicate    uint64 `json:"pieces_duplicate"`
	PiecesResent       uint64 `json:"pieces_resent"`
	HellosSent         uint64 `json:"hellos_sent"`
	PeersRejected      uint64 `json:"peers_rejected"`
	OutboxDrops        uint64 `json:"outbox_drops"`
	OutboxDropsControl uint64 `json:"outbox_drops_control"`
	OutboxDropsData    uint64 `json:"outbox_drops_data"`

	// Decentralized-index accounting (Config.EnableDHT).
	DHTLookups    uint64 `json:"dht_lookups,omitempty"`
	DHTLookupHits uint64 `json:"dht_lookup_hits,omitempty"`
	DHTCacheHits  uint64 `json:"dht_cache_hits,omitempty"`
	DHTStoresSent uint64 `json:"dht_stores_sent,omitempty"`
	DHTStoresRecv uint64 `json:"dht_stores_recv,omitempty"`
	DHTRPCsSent   uint64 `json:"dht_rpcs_sent,omitempty"`

	// Fountain-plane accounting (Config.EnableFEC).
	SymbolsSent     uint64 `json:"symbols_sent,omitempty"`
	SymbolsRecv     uint64 `json:"symbols_recv,omitempty"`
	SymbolsRelayed  uint64 `json:"symbols_relayed,omitempty"`
	FECDecodes      uint64 `json:"fec_decodes,omitempty"`
	PieceBcastsSent uint64 `json:"piece_bcasts_sent,omitempty"`
	PieceBcastsRecv uint64 `json:"piece_bcasts_recv,omitempty"`
}

// add folds one daemon's counters into t.
func (t *Totals) add(st daemon.Stats) {
	t.PiecesSent += st.Transport.PiecesSent
	t.HellosSent += st.Transport.HellosSent
	t.PeersRejected += st.Transport.PeersRejected
	t.PiecesVerified += st.PiecesVerified
	t.PiecesDuplicate += st.PiecesDuplicate
	t.PiecesResent += st.PiecesResent
	t.OutboxDrops += st.OutboxDrops
	t.OutboxDropsControl += st.OutboxDropsControl
	t.OutboxDropsData += st.OutboxDropsData
	if st.DHT != nil {
		t.DHTLookups += st.DHT.Lookups
		t.DHTLookupHits += st.DHT.LookupHits
		t.DHTCacheHits += st.DHT.CacheHits
		t.DHTStoresSent += st.DHT.StoresSent
		t.DHTStoresRecv += st.DHT.StoresRecv
		t.DHTRPCsSent += st.DHT.RPCsSent
	}
	if st.Bcast != nil {
		t.SymbolsSent += st.Bcast.SymbolsSent
		t.SymbolsRecv += st.Bcast.SymbolsRecv
		t.SymbolsRelayed += st.Bcast.SymbolsRelayed
		t.FECDecodes += st.Bcast.FECDecodes
		t.PieceBcastsSent += st.Bcast.PieceBcastsSent
		t.PieceBcastsRecv += st.Bcast.PieceBcastsRecv
	}
}

// Harness runs one swarm. Construct with New, boot with Start, script
// churn with Join/Kill/Cut and the stepping waits, and always
// Shutdown. Everything but the daemons' completion callback runs on the
// caller's goroutine.
type Harness struct {
	cfg   Config
	net   *stepnet.Net
	ctx   context.Context
	stop  context.CancelFunc
	nodes []*nodeState

	baseGoroutines int
	baseHeap       uint64
	topoSig        string // seeded-topology fingerprint folded into the digest

	mu          sync.Mutex
	completions []completion
	target      map[string]bool // expected (node,uri) keys, for fractions
	// retired accumulates the counters of finished lifetimes, so Kill
	// does not erase a node's transmissions from the report.
	retired Totals
}

// New validates cfg and builds the population: transports, topology,
// and per-node daemon configs. No goroutines run until Start.
func New(cfg Config) (*Harness, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	h := &Harness{
		cfg:    cfg,
		net:    stepnet.New(cfg.Seed, false),
		target: make(map[string]bool),
	}
	h.ctx, h.stop = context.WithCancel(context.Background())
	h.net.BeforeBeat = h.applySchedules

	// Initial queries per downloader (QueryFiles shapes them); targets
	// count the queried files, or every file when scripts query later.
	nq := cfg.Files
	if cfg.QueryFiles > 0 {
		nq = cfg.QueryFiles
	} else if cfg.QueryFiles < 0 {
		nq = 0
	}
	queries := make([]string, nq)
	for f := 0; f < nq; f++ {
		queries[f] = fmt.Sprintf("f%d", f)
	}
	nt := nq
	if nt == 0 {
		nt = cfg.Files
	}
	uris := make([]metadata.URI, nt)
	for f := 0; f < nt; f++ {
		uris[f] = metadata.URIFor(metadata.FileID(f))
	}

	topo := rng.New(cfg.Seed ^ 0x5ee0c1a1)
	for i := 0; i < cfg.Nodes; i++ {
		id := trace.NodeID(i)
		// Every node is out of range only through its own injector — its
		// schedule, or Cut — which injects nothing else.
		ns := &nodeState{id: id, chao: fault.Wrap(h.net.As(id), fault.Config{})}
		dcfg := daemon.Config{
			ID:             id,
			Transport:      ns.chao,
			ListenAddr:     nodeAddr(id),
			PeerAddrs:      h.attachTargets(topo, i),
			FileSize:       FileSize,
			PieceSize:      PieceSize,
			HelloInterval:  stepnet.Beat,
			LivenessWindow: Liveness * stepnet.Beat,
			MaxPeers:       DefaultMaxPeers,
			FetchMatching:  true,
			Backoff:        transport.Backoff{Min: stepnet.Beat / 4, Max: Liveness * stepnet.Beat, Jitter: -1},
			OnComplete:     func(uri metadata.URI) { h.observeComplete(id, uri) },
		}
		if cfg.EnableDHT {
			dcfg.EnableDHT = true
			dcfg.DHTRepublish = dhtRepublish * stepnet.Beat
		}
		if cfg.EnableFEC {
			// The shared media: no injector wraps them.
			dcfg.EnableBcast, dcfg.EnableFEC, dcfg.SymbolSize = true, true, SymbolSize
			dcfg.Broadcast = h.net.Join("radio", 0, id)
			dcfg.Symbols = h.net.Join("symbols", 0, id)
		}
		if i < seeders {
			dcfg.InternetAccess = true
			dcfg.PublishFiles = cfg.Files
		} else {
			dcfg.Queries = queries
			for _, uri := range uris {
				h.target[completionKey(id, uri)] = true
			}
		}
		ns.cfg = dcfg
		h.nodes = append(h.nodes, ns)
	}

	var sig strings.Builder
	fmt.Fprintf(&sig, "n=%d s=%d f=%d d=%d seed=%d\n",
		cfg.Nodes, seeders, cfg.Files, cfg.degree(), cfg.Seed)
	for _, ns := range h.nodes {
		fmt.Fprintf(&sig, "%d<-%v\n", ns.id, ns.cfg.PeerAddrs)
	}
	sum := sha256.Sum256([]byte(sig.String()))
	h.topoSig = hex.EncodeToString(sum[:])
	return h, nil
}

func nodeAddr(id trace.NodeID) string { return fmt.Sprintf("n%d", id) }

func completionKey(id trace.NodeID, uri metadata.URI) string {
	return fmt.Sprintf("%d:%s", id, uri)
}

// attachTargets picks node i's outbound links: its predecessor plus
// Degree-1 distinct earlier nodes — the random-attachment rule that
// keeps every started prefix connected. Node 0 only listens.
func (h *Harness) attachTargets(topo *rng.Rand, i int) []string {
	if i == 0 {
		return nil
	}
	picked := map[int]bool{i - 1: true}
	targets := []string{nodeAddr(trace.NodeID(i - 1))}
	for len(targets) < h.cfg.degree() && len(picked) < i {
		j := topo.Intn(i)
		if picked[j] {
			continue
		}
		picked[j] = true
		targets = append(targets, nodeAddr(trace.NodeID(j)))
	}
	return targets
}

// observeComplete records a completion a daemon reports. Beats moves
// only while the swarm is quiet, before whatever woke the daemon.
func (h *Harness) observeComplete(id trace.NodeID, uri metadata.URI) {
	h.mu.Lock()
	h.completions = append(h.completions, completion{h.net.Beats, id, uri})
	h.mu.Unlock()
}

// applySchedules cuts or heals every scheduled node as the beat about to
// begin says.
func (h *Harness) applySchedules() {
	beat := h.net.Beats
	for id, events := range h.cfg.Schedules {
		cut := false
		for _, e := range events {
			if e.Beat <= beat {
				cut = e.Partition
			}
		}
		h.nodes[id].chao.Cut(cut)
	}
}

// Start boots the first StartNodes members and records the resource
// baseline the budgets are measured against.
func (h *Harness) Start() error {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.baseHeap = ms.HeapAlloc
	h.baseGoroutines = runtime.NumGoroutine()
	h.applySchedules()
	for i := 0; i < h.cfg.StartNodes; i++ {
		if err := h.Join(trace.NodeID(i)); err != nil {
			return err
		}
	}
	return nil
}

// Join boots one node (a no-op while it runs) and lets the swarm settle.
// Also the resume after a Kill: a fresh daemon on the same address,
// identity, and links.
func (h *Harness) Join(id trace.NodeID) error {
	ns, err := h.node(id)
	if err != nil || ns.d != nil {
		return err
	}
	tick := make(chan time.Time)
	d, err := daemon.NewDriven(ns.cfg, h.net.Now, tick)
	if err != nil {
		return fmt.Errorf("swarm: node %d: %w", id, err)
	}
	ns.d = d
	ns.stop, err = h.net.Start(h.ctx, id, tick, d.Run)
	return err
}

// Kill stops one node abruptly and joins its goroutines; its counters
// move into the harness's retired totals. The address stays reserved, so
// a later Join resumes the same identity.
func (h *Harness) Kill(id trace.NodeID) error {
	ns, err := h.node(id)
	if err != nil || ns.d == nil {
		return err
	}
	ns.stop()
	h.mu.Lock()
	h.retired.add(ns.d.Stats())
	h.mu.Unlock()
	ns.d, ns.stop = nil, nil
	return h.net.Quiet()
}

// Cut takes a running node out of range in place (scripted attendance),
// or, with on false, brings it back: while cut, its transport neither
// speaks nor hears nor dials. The cut is the node's, not its daemon's: a
// Kill and Join in between leave it in place.
func (h *Harness) Cut(id trace.NodeID, on bool) error {
	ns, err := h.running(id)
	if err == nil {
		ns.chao.Cut(on)
	}
	return err
}

// AddQuery issues a new keyword query on a running node — the
// scenario-script lever for post-shock searches.
func (h *Harness) AddQuery(id trace.NodeID, q string) error {
	ns, err := h.running(id)
	if err != nil {
		return err
	}
	ns.d.AddQuery(q)
	return h.net.Quiet()
}

func (h *Harness) node(id trace.NodeID) (*nodeState, error) {
	if id < 0 || int(id) >= len(h.nodes) {
		return nil, fmt.Errorf("swarm: node %d outside population %d", id, len(h.nodes))
	}
	return h.nodes[id], nil
}

func (h *Harness) running(id trace.NodeID) (*nodeState, error) {
	ns, err := h.node(id)
	if err == nil && ns.d == nil {
		err = fmt.Errorf("swarm: node %d not running", id)
	}
	return ns, err
}

// daemons lists the running daemons, seeder first.
func (h *Harness) daemons() []*daemon.Daemon {
	var out []*daemon.Daemon
	for _, ns := range h.nodes {
		if ns.d != nil {
			out = append(out, ns.d)
		}
	}
	return out
}

// CompletionFraction is completions observed over completions expected
// (downloaders × files).
func (h *Harness) CompletionFraction() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.target) == 0 {
		return 0
	}
	return float64(len(h.completions)) / float64(len(h.target))
}

// Until steps the swarm until done holds, failing once MaxBeats beats
// have gone by.
func (h *Harness) Until(what string, done func() bool) error {
	for !done() {
		if h.net.Beats >= MaxBeats {
			return fmt.Errorf("swarm: no %s in %d beats (%d steps, fraction %.3f)",
				what, MaxBeats, h.net.Steps, h.CompletionFraction())
		}
		if err := h.net.Step(); err != nil {
			return err
		}
	}
	return nil
}

// WaitFraction steps until the completion fraction reaches frac.
func (h *Harness) WaitFraction(frac float64) error {
	return h.Until(fmt.Sprintf("completion fraction %.3f", frac), func() bool { return h.CompletionFraction() >= frac })
}

// BeatsPass steps until that many more beats have begun.
func (h *Harness) BeatsPass(beats int) error {
	end := h.net.Beats + beats
	return h.Until(fmt.Sprintf("beat %d", end), func() bool { return h.net.Beats >= end })
}

// digest hashes the seeded topology together with the completion *set*
// — sorted (node, uri) pairs — so that different seeds (different chord
// graphs) diverge. Same config and seed, same digest; the rest of a
// Report is as reproducible.
func (h *Harness) digest() string {
	h.mu.Lock()
	keys := make([]string, len(h.completions))
	for i, c := range h.completions {
		keys[i] = completionKey(c.node, c.uri)
	}
	h.mu.Unlock()
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(h.topoSig + "\n" + strings.Join(keys, "\n")))
	return hex.EncodeToString(sum[:8])
}

// coverage reports how many of uri's pieces at least one *running* node
// holds, against the file's piece total — the availability ground
// truth: a file whose coverage drops below total is unreconstructable
// no matter how long the swarm keeps trying.
func (h *Harness) coverage(uri metadata.URI) (covered, total int) {
	total = (FileSize + PieceSize - 1) / PieceSize
	union := make([]bool, total)
	for _, d := range h.daemons() {
		for i, b := range d.Have(uri) {
			if b && i < total && !union[i] {
				union[i] = true
				covered++
			}
		}
	}
	return covered, total
}

// usage measures current per-node resource use against the Start
// baseline: goroutines, and heap bytes after a forced GC.
func (h *Harness) usage() (goroutinesPerNode, bytesPerNode float64) {
	n := len(h.daemons())
	if n == 0 {
		return 0, 0
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g := runtime.NumGoroutine() - h.baseGoroutines
	heap := float64(0)
	if ms.HeapAlloc > h.baseHeap {
		heap = float64(ms.HeapAlloc - h.baseHeap)
	}
	return float64(g) / float64(n), heap / float64(n)
}

// Shutdown stops every running node. Safe to call twice.
func (h *Harness) Shutdown() {
	h.stop()
	for _, ns := range h.nodes {
		if ns.d != nil {
			ns.stop()
			ns.d = nil
		}
	}
}

// Report aggregates the swarm's observable state into the per-scenario
// metrics record.
func (h *Harness) Report(scenario string) Report {
	rep := Report{
		Scenario:      scenario,
		Nodes:         h.cfg.Nodes,
		Seeders:       seeders,
		Files:         h.cfg.Files,
		Pieces:        (FileSize + PieceSize - 1) / PieceSize,
		Degree:        h.cfg.degree(),
		Seed:          h.cfg.Seed,
		Downloaders:   h.cfg.Nodes - seeders,
		Steps:         h.net.Steps,
		Beats:         h.net.Beats,
		SurvivalBeats: -1,
		DHTEnabled:    h.cfg.EnableDHT,
		FECEnabled:    h.cfg.EnableFEC,
	}

	h.mu.Lock()
	rep.Totals = h.retired
	h.mu.Unlock()
	var credits []float64
	for _, d := range h.daemons() {
		rep.add(d.Stats())
		total := 0.0
		for _, c := range d.CreditSnapshot() {
			total += c
		}
		credits = append(credits, total)
	}
	if rep.PiecesVerified > 0 {
		// Piece-equivalent transmissions per verified piece: pairwise
		// pieces and piece broadcasts each cost one transmission on
		// their medium; coded symbols (relays included) cost their size
		// fraction of a piece.
		tx := float64(rep.PiecesSent + rep.PieceBcastsSent)
		if h.cfg.EnableFEC {
			tx += float64(rep.SymbolsSent+rep.SymbolsRelayed) * SymbolSize / PieceSize
		}
		rep.TransmissionsPerPiece = tx / float64(rep.PiecesVerified)
	}
	rep.CreditMean, rep.CreditStddev = meanStddev(credits)

	h.mu.Lock()
	rep.Completions = len(h.completions)
	if len(h.target) > 0 {
		rep.CompletionFraction = float64(len(h.completions)) / float64(len(h.target))
	}
	for i, c := range h.completions {
		if i == 0 || c.beat < rep.FirstCompletionBeat {
			rep.FirstCompletionBeat = c.beat
		}
		rep.LastCompletionBeat = max(rep.LastCompletionBeat, c.beat)
	}
	h.mu.Unlock()
	rep.CompletionDigest = h.digest()
	rep.GoroutinesPerNode, rep.HeapBytesPerNode = h.usage()
	if covered, total := h.coverage(firstURI()); total > 0 {
		rep.CoverageFraction = float64(covered) / float64(total)
	}
	return rep
}

func meanStddev(xs []float64) (mean, stddev float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		stddev += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(stddev / float64(len(xs)))
}
