// Package swarm boots and scripts thousand-node populations of live
// daemons over the deterministic loopback transport — the repo's test
// engine for the availability workload family: file survival under
// seeder scarcity, flash crowds, staggered joins, diurnal attendance,
// and partial-mobility partition schedules derived from the tracegen
// mobility models.
//
// A Harness owns one population. Topology is a seeded random-attachment
// graph: node i maintains outbound links to node i-1 plus Degree-1
// uniformly chosen earlier nodes, so every started prefix of the
// population is connected by construction — the property that lets
// churn scripts start, kill, pause, and resume nodes in any order
// without stranding the survivors. Nodes 0..Seeders-1 are
// Internet-access seeders publishing the catalog; everyone else queries
// for every file and downloads cooperatively, piece by piece, through
// the ordinary hello→metadata→pieces protocol.
//
// The harness is deliberately an *observer*, not a scheduler: daemons
// run their real goroutines, tickers, and sockets-in-memory.
// Determinism therefore lives in outcomes, not interleavings — a
// finished scenario's completion set (which node finished which file)
// is a pure function of the configuration, and its digest is the
// regression check.
package swarm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
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
	"repro/internal/trace"
	"repro/internal/transport"
)

// Defaults.
const (
	// DefaultDegree is the outbound link count per node; with random
	// attachment the expected diameter is logarithmic, so pieces cross a
	// thousand-node swarm in a handful of beacon intervals.
	DefaultDegree = 4
	// DefaultMaxPeers bounds each node's peer table. Random attachment
	// gives early nodes in-degree ~Degree·ln(n); the cap sits above
	// that, so it only bites when something is actually wrong.
	DefaultMaxPeers = 64
	// DefaultFileSize / DefaultPieceSize give 16 pieces per file — small
	// enough that a thousand-node distribution is bounded by propagation
	// rounds, not bytes.
	DefaultFileSize  = 16 * 1024
	DefaultPieceSize = 1024
)

// Config sizes and shapes one swarm.
type Config struct {
	// Nodes is the total population, seeders included.
	Nodes int
	// Seeders is how many nodes (IDs 0..Seeders-1) carry the catalog
	// (default 1).
	Seeders int
	// Files is how many files each seeder publishes; URIs are shared, so
	// multiple seeders are replicas (default 1).
	Files int
	// FileSize and PieceSize shape the synthetic files.
	FileSize  int64
	PieceSize int
	// Degree is the outbound link count per node (default DefaultDegree).
	Degree int
	// Seed drives topology chords and per-node fault streams.
	Seed uint64
	// StartNodes is how many nodes Start boots (0 = all). The rest join
	// later via Join — the flash-crowd and staggered-join lever.
	StartNodes int
	// HelloInterval and LivenessWindow set the swarm's beacon clock
	// (defaults 25ms / 150ms: fast enough to converge in seconds, slow
	// enough that a loaded CI box does not false-expire peers).
	HelloInterval  time.Duration
	LivenessWindow time.Duration
	// PiecesPerHello paces serving (default: the daemon's default).
	PiecesPerHello int
	// QueryFiles limits each downloader's initial queries to files
	// 0..QueryFiles-1 (0 = all Files; -1 = none — the scenario script
	// issues queries itself via AddQuery). Completion targets count the
	// initially queried files, or all files when none are queried
	// initially.
	QueryFiles int
	// EnableDHT runs the Kademlia metadata index on every node, seeders
	// included: seeders publish the catalog into the index, downloaders
	// resolve open queries DHT-first.
	EnableDHT bool
	// DHTRepublish is the DHT maintenance cadence (default
	// 4×HelloInterval: fast enough that scenario scripts see the index
	// converge in a few beacon intervals).
	DHTRepublish time.Duration
	// EnableFEC puts every node in one broadcast group on a shared
	// radio domain with the fountain-coded symbol plane — the coded
	// variant of a swarm scenario. Group formation needs a full mesh,
	// so this caps the population (fillDefaults enforces it) and forces
	// Degree = Nodes-1.
	EnableFEC bool
	// SymbolSize is the coded-symbol payload size with EnableFEC
	// (default 256, i.e. 4 source symbols per default-size piece).
	SymbolSize int
	// Fault configures the chaos injector every node's transport runs
	// on, with a per-node seed derived from Seed; the zero value injects
	// nothing.
	Fault fault.Config
	// Schedules adds per-node partition/heal scripts (wall-clock offsets
	// from the harness's construction) — the contact-trace adapter's
	// output plugs in here.
	Schedules map[trace.NodeID][]fault.Event
	// Logf, when set, receives harness lifecycle lines (not per-daemon
	// logs; a thousand daemons' logs would drown anything).
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if c.Nodes < 2 {
		return fmt.Errorf("swarm: need at least 2 nodes, have %d", c.Nodes)
	}
	if c.Seeders <= 0 {
		c.Seeders = 1
	}
	if c.Seeders >= c.Nodes {
		return fmt.Errorf("swarm: %d seeders leave no downloaders in %d nodes", c.Seeders, c.Nodes)
	}
	if c.Files <= 0 {
		c.Files = 1
	}
	if c.FileSize <= 0 {
		c.FileSize = DefaultFileSize
	}
	if c.PieceSize <= 0 {
		c.PieceSize = DefaultPieceSize
	}
	if c.Degree <= 0 {
		c.Degree = DefaultDegree
	}
	if c.StartNodes <= 0 || c.StartNodes > c.Nodes {
		c.StartNodes = c.Nodes
	}
	if c.StartNodes <= c.Seeders {
		c.StartNodes = c.Seeders + 1
	}
	if c.HelloInterval <= 0 {
		c.HelloInterval = 25 * time.Millisecond
	}
	if c.LivenessWindow <= 0 {
		c.LivenessWindow = 6 * c.HelloInterval
	}
	if c.QueryFiles > c.Files {
		return fmt.Errorf("swarm: QueryFiles %d exceeds Files %d", c.QueryFiles, c.Files)
	}
	if c.DHTRepublish <= 0 {
		c.DHTRepublish = 4 * c.HelloInterval
	}
	if c.EnableFEC {
		// One broadcast group spans the population; clique formation
		// needs everyone in radio range of everyone.
		const maxFEC = 8
		if c.Nodes > maxFEC {
			return fmt.Errorf("swarm: EnableFEC supports at most %d nodes (one clique), have %d", maxFEC, c.Nodes)
		}
		c.Degree = c.Nodes - 1
		if c.SymbolSize <= 0 {
			c.SymbolSize = 256
		}
	}
	return nil
}

// Completion is one observed download finish, relative to Start.
type Completion struct {
	AtMs float64      `json:"at_ms"`
	Node trace.NodeID `json:"node"`
	URI  string       `json:"uri"`
}

// nodeState is one population member across its lifetimes.
type nodeState struct {
	id   trace.NodeID
	cfg  daemon.Config
	chao *fault.Transport // this node's view of the net: its faults, its partitions

	mu      sync.Mutex
	d       *daemon.Daemon
	cancel  context.CancelFunc
	done    chan error
	running bool
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
// churn with Join/Kill/Pause/Resume, and always Shutdown.
type Harness struct {
	cfg   Config
	net   *transport.Loopback
	nodes []*nodeState
	t0    time.Time

	baseGoroutines int
	baseHeap       uint64
	topoSig        string // seeded-topology fingerprint folded into Digest

	mu          sync.Mutex
	completions []Completion
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
		net:    transport.NewLoopback(),
		target: make(map[string]bool),
	}

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

	var radio, lane *transport.BroadcastDomain
	if cfg.EnableFEC {
		radio = h.net.Domain("radio")
		lane = h.net.SymbolDomain("radio")
	}

	topo := rng.New(cfg.Seed ^ 0x5ee0c1a1)
	for i := 0; i < cfg.Nodes; i++ {
		id := trace.NodeID(i)
		ns := &nodeState{id: id}

		// Per-node transport: every node is out of range only through
		// its own injector — its schedule, or Pause — and a zero
		// Config injects nothing else.
		fcfg := cfg.Fault
		fcfg.Schedule = cfg.Schedules[id]
		fcfg.Seed = cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
		ns.chao = fault.Wrap(h.net, fcfg)

		dcfg := daemon.Config{
			ID:             id,
			Transport:      ns.chao,
			ListenAddr:     nodeAddr(id),
			PeerAddrs:      h.attachTargets(topo, i),
			FileSize:       cfg.FileSize,
			PieceSize:      cfg.PieceSize,
			PiecesPerHello: cfg.PiecesPerHello,
			HelloInterval:  cfg.HelloInterval,
			LivenessWindow: cfg.LivenessWindow,
			MaxPeers:       DefaultMaxPeers,
			FetchMatching:  true,
			Backoff: transport.Backoff{
				Min:    cfg.HelloInterval / 4,
				Max:    cfg.LivenessWindow,
				Jitter: -1,
			},
			OnComplete: func(uri metadata.URI) { h.observeComplete(id, uri) },
		}
		if cfg.EnableDHT {
			dcfg.EnableDHT = true
			dcfg.DHTRepublish = cfg.DHTRepublish
		}
		if cfg.EnableFEC {
			dcfg.EnableBcast = true
			dcfg.EnableFEC = true
			dcfg.SymbolSize = cfg.SymbolSize
			conn, err := radio.Join(dcfg.ListenAddr)
			if err != nil {
				return nil, fmt.Errorf("swarm: node %d radio: %w", id, err)
			}
			dcfg.Broadcast = conn // the shared medium: no injector wraps it
			sym, err := lane.Join(dcfg.ListenAddr)
			if err != nil {
				return nil, fmt.Errorf("swarm: node %d symbol lane: %w", id, err)
			}
			dcfg.Symbols = ns.chao.WrapSymbols(sym)
		}
		if i < cfg.Seeders {
			dcfg.InternetAccess = true
			dcfg.InternetNodes = cfg.Seeders
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
		cfg.Nodes, cfg.Seeders, cfg.Files, cfg.Degree, cfg.Seed)
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
	for len(targets) < h.cfg.Degree && len(picked) < i {
		j := topo.Intn(i)
		if picked[j] {
			continue
		}
		picked[j] = true
		targets = append(targets, nodeAddr(trace.NodeID(j)))
	}
	return targets
}

func (h *Harness) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

func (h *Harness) observeComplete(id trace.NodeID, uri metadata.URI) {
	at := time.Since(h.t0)
	h.mu.Lock()
	h.completions = append(h.completions, Completion{
		AtMs: float64(at) / float64(time.Millisecond),
		Node: id,
		URI:  string(uri),
	})
	n := len(h.completions)
	h.mu.Unlock()
	if n%100 == 0 {
		h.logf("swarm: %d completions", n)
	}
}

// Start boots the first StartNodes members and records the resource
// baseline the budgets are measured against.
func (h *Harness) Start(ctx context.Context) error {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.baseHeap = ms.HeapAlloc
	h.baseGoroutines = runtime.NumGoroutine()
	h.t0 = time.Now()
	for i := 0; i < h.cfg.StartNodes; i++ {
		if err := h.Join(ctx, trace.NodeID(i)); err != nil {
			return err
		}
	}
	h.logf("swarm: started %d/%d nodes (%d seeders)", h.cfg.StartNodes, h.cfg.Nodes, h.cfg.Seeders)
	return nil
}

// Join boots one node (idempotent while it runs). Also the Resume after
// a Kill: a fresh daemon on the same address, identity, and links.
func (h *Harness) Join(ctx context.Context, id trace.NodeID) error {
	ns, err := h.node(id)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.running {
		return nil
	}
	d, err := daemon.New(ns.cfg)
	if err != nil {
		return fmt.Errorf("swarm: node %d: %w", id, err)
	}
	nctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- d.Run(nctx) }()
	ns.d, ns.cancel, ns.done, ns.running = d, cancel, done, true
	return nil
}

// Kill stops one node abruptly and joins its goroutines; its counters
// move into the harness's retired totals. The address stays reserved, so
// a later Join resumes the same identity.
func (h *Harness) Kill(id trace.NodeID) error {
	ns, err := h.node(id)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if !ns.running {
		return nil
	}
	ns.cancel()
	<-ns.done
	st := ns.d.Stats()
	h.mu.Lock()
	h.retired.add(st)
	h.mu.Unlock()
	ns.d, ns.cancel, ns.done, ns.running = nil, nil, nil, false
	h.logf("swarm: node %d killed", id)
	return nil
}

// Pause takes a running node out of range in place (scripted
// attendance): its transport is cut, so it neither speaks nor hears nor
// dials until Resume heals the cut. The cut is the node's, not its
// daemon's: a Kill and Join in between leave it in place.
func (h *Harness) Pause(id trace.NodeID) error { return h.cut(id, true) }

// Resume brings a paused node back into range.
func (h *Harness) Resume(id trace.NodeID) error { return h.cut(id, false) }

func (h *Harness) cut(id trace.NodeID, on bool) error {
	ns, err := h.node(id)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if !ns.running {
		return fmt.Errorf("swarm: node %d not running", id)
	}
	ns.chao.Cut(on)
	return nil
}

// AddQuery issues a new keyword query on a running node — the
// scenario-script lever for post-shock searches.
func (h *Harness) AddQuery(id trace.NodeID, q string) error {
	ns, err := h.node(id)
	if err != nil {
		return err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if !ns.running {
		return fmt.Errorf("swarm: node %d not running", id)
	}
	ns.d.AddQuery(q)
	return nil
}

// KnowsMetadata reports whether a running node holds an unexpired
// metadata record for uri — the query-resolution ground truth the
// server-death scenario counts.
func (h *Harness) KnowsMetadata(id trace.NodeID, uri metadata.URI) bool {
	ns, err := h.node(id)
	if err != nil {
		return false
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.running && ns.d.KnowsMetadata(uri)
}

// DHTCached reports whether a running node's local DHT cache holds at
// least one value for keyword — the replication probe scenario scripts
// use before killing the publisher.
func (h *Harness) DHTCached(id trace.NodeID, keyword string) bool {
	ns, err := h.node(id)
	if err != nil {
		return false
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if !ns.running || ns.d.DHT() == nil {
		return false
	}
	return len(ns.d.DHT().CachedValues(keyword)) > 0
}

// GroupsConfirmed reports whether every running node sits in a
// confirmed broadcast group of the full population — the FEC
// scenarios' readiness gate.
func (h *Harness) GroupsConfirmed() bool {
	for _, ns := range h.nodes {
		ns.mu.Lock()
		d := ns.d
		running := ns.running
		ns.mu.Unlock()
		if !running || d == nil {
			return false
		}
		st := d.Stats()
		if st.Bcast == nil || !st.Bcast.Confirmed || len(st.Bcast.Group) != h.cfg.Nodes {
			return false
		}
	}
	return true
}

func (h *Harness) node(id trace.NodeID) (*nodeState, error) {
	if id < 0 || int(id) >= len(h.nodes) {
		return nil, fmt.Errorf("swarm: node %d outside population %d", id, len(h.nodes))
	}
	return h.nodes[id], nil
}

// Running counts live nodes.
func (h *Harness) Running() int {
	n := 0
	for _, ns := range h.nodes {
		ns.mu.Lock()
		if ns.running {
			n++
		}
		ns.mu.Unlock()
	}
	return n
}

// Completions snapshots the completion events observed so far.
func (h *Harness) Completions() []Completion {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Completion(nil), h.completions...)
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

// WaitFraction blocks until the completion fraction reaches frac or ctx
// ends.
func (h *Harness) WaitFraction(ctx context.Context, frac float64) error {
	for {
		if h.CompletionFraction() >= frac {
			return nil
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("swarm: at fraction %.3f (want %.3f): %w",
				h.CompletionFraction(), frac, ctx.Err())
		}
	}
}

// Digest hashes the seeded topology together with the completion *set*
// — sorted (node, uri) pairs — so two runs of the same configuration
// agree byte-for-byte no matter how the scheduler interleaved them,
// while different seeds (different chord graphs) diverge. This is the
// determinism regression check: same config and seed, same digest.
func (h *Harness) Digest() string {
	h.mu.Lock()
	keys := make([]string, len(h.completions))
	for i, c := range h.completions {
		keys[i] = completionKey(c.Node, metadata.URI(c.URI))
	}
	h.mu.Unlock()
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(h.topoSig + "\n" + strings.Join(keys, "\n")))
	return hex.EncodeToString(sum[:8])
}

// Coverage reports how many of uri's pieces at least one *running* node
// holds, against the file's piece total — the availability ground
// truth: a file whose coverage drops below total is unreconstructable
// no matter how long the swarm keeps trying.
func (h *Harness) Coverage(uri metadata.URI) (covered, total int) {
	var union []bool
	for _, ns := range h.nodes {
		ns.mu.Lock()
		d := ns.d
		running := ns.running
		ns.mu.Unlock()
		if !running || d == nil {
			continue
		}
		have := d.Have(uri)
		if len(have) > len(union) {
			grown := make([]bool, len(have))
			copy(grown, union)
			union = grown
		}
		for i, b := range have {
			if b {
				union[i] = true
			}
		}
	}
	total = int(h.cfg.FileSize+int64(h.cfg.PieceSize)-1) / h.cfg.PieceSize
	for _, b := range union {
		if b {
			covered++
		}
	}
	if covered > total {
		covered = total
	}
	return covered, total
}

// Budget is the per-node resource ceiling CheckBudget asserts.
type Budget struct {
	// GoroutinesPerNode bounds (goroutines - baseline) / running nodes.
	GoroutinesPerNode float64
	// BytesPerNode bounds (heap - baseline) / running nodes, measured
	// after a forced GC.
	BytesPerNode float64
}

// DefaultBudget derives the ceiling from the topology: each node runs
// 2 core goroutines (Run, which is its beat, and the accept loop) plus a
// reader (a dialed link's own, alive only while it is up) and a writer per
// session end; random attachment doubles Degree, padded 50% for slack.
func (h *Harness) DefaultBudget() Budget {
	return Budget{
		GoroutinesPerNode: 1.5 * float64(3+3*h.cfg.Degree),
		BytesPerNode:      512 * 1024,
	}
}

// Usage measures current per-node resource use against the Start
// baseline.
func (h *Harness) Usage() (goroutinesPerNode, bytesPerNode float64) {
	n := h.Running()
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

// CheckBudget asserts the per-node ceilings right now.
func (h *Harness) CheckBudget(b Budget) error {
	g, mem := h.Usage()
	var errs []error
	if b.GoroutinesPerNode > 0 && g > b.GoroutinesPerNode {
		errs = append(errs, fmt.Errorf("swarm: %.1f goroutines/node exceeds budget %.1f", g, b.GoroutinesPerNode))
	}
	if b.BytesPerNode > 0 && mem > b.BytesPerNode {
		errs = append(errs, fmt.Errorf("swarm: %.0f heap bytes/node exceeds budget %.0f", mem, b.BytesPerNode))
	}
	return errors.Join(errs...)
}

// Shutdown stops every running node and tears the network down. Safe to
// call twice.
func (h *Harness) Shutdown() {
	for _, ns := range h.nodes {
		ns.mu.Lock()
		if ns.running {
			ns.cancel()
		}
		ns.mu.Unlock()
	}
	for _, ns := range h.nodes {
		ns.mu.Lock()
		if ns.running {
			<-ns.done
			ns.running = false
		}
		ns.mu.Unlock()
	}
	h.net.Close()
}

// Report aggregates the swarm's observable state into the per-scenario
// metrics record.
func (h *Harness) Report(scenario string) Report {
	rep := Report{
		Scenario:    scenario,
		Nodes:       h.cfg.Nodes,
		Seeders:     h.cfg.Seeders,
		Files:       h.cfg.Files,
		Pieces:      int(h.cfg.FileSize+int64(h.cfg.PieceSize)-1) / h.cfg.PieceSize,
		Degree:      h.cfg.Degree,
		Seed:        h.cfg.Seed,
		Downloaders: h.cfg.Nodes - h.cfg.Seeders,
		WallMs:      float64(time.Since(h.t0)) / float64(time.Millisecond),
		SurvivalMs:  -1,
		DHTEnabled:  h.cfg.EnableDHT,
		FECEnabled:  h.cfg.EnableFEC,
	}

	h.mu.Lock()
	rep.Totals = h.retired
	h.mu.Unlock()
	var credits []float64
	for _, ns := range h.nodes {
		ns.mu.Lock()
		d := ns.d
		ns.mu.Unlock()
		if d == nil {
			continue
		}
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
			tx += float64(rep.SymbolsSent+rep.SymbolsRelayed) *
				float64(h.cfg.SymbolSize) / float64(h.cfg.PieceSize)
		}
		rep.TransmissionsPerPiece = tx / float64(rep.PiecesVerified)
	}
	rep.CreditMean, rep.CreditStddev = meanStddev(credits)

	h.mu.Lock()
	rep.Completions = len(h.completions)
	if len(h.target) > 0 {
		rep.CompletionFraction = float64(len(h.completions)) / float64(len(h.target))
	}
	first, last := math.Inf(1), math.Inf(-1)
	for _, c := range h.completions {
		first = math.Min(first, c.AtMs)
		last = math.Max(last, c.AtMs)
	}
	h.mu.Unlock()
	if rep.Completions > 0 {
		rep.FirstCompletionMs, rep.LastCompletionMs = first, last
	}
	rep.CompletionDigest = h.Digest()
	rep.GoroutinesPerNode, rep.HeapBytesPerNode = h.Usage()
	if covered, total := h.Coverage(firstURI()); total > 0 {
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
