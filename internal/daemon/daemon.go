// Package daemon assembles a live MBT node: a peer.Manager for
// sessions, the per-node protocol state of internal/node, and — on
// Internet-access nodes — the concurrency-safe catalog of
// internal/server, all wired over a transport.Transport.
//
// The live message flow mirrors the simulator's phases, driven by the
// hello instead of the contact schedule:
//
//	hello(queries)      → peer answers with matching metadata records
//	metadata(record)    → store; if it matches an own query, select the
//	                      file and beacon at once to advertise it
//	hello(downloading)  → peer deals itself a share of the advertised
//	                      files' missing pieces — a standing order for one
//	                      beat (serve.go) — and streams it, PiecesPerHello
//	                      pieces deep
//	piece(data)         → verify against the stored record's checksums,
//	                      store; answer the sender alone with a hello, whose
//	                      bitmap is the ack that releases its next piece,
//	                      and pass the piece on to every neighbour whose
//	                      order it is in; completion is reached piece by
//	                      piece
//
// The node has one beat: Run arms one ticker at the hello interval and
// everything periodic hangs off it, on Run's own goroutine, judged on one
// reading of the clock — the peer round (expiry, beacon), then the sweep,
// the group engine's beat and, when due, DHT maintenance (beat). Beacons
// are also event-driven: a query that was not already live (AddQuery) and
// a newly selected download (onMetadata) each kick the beacon round
// forward, so neither arrow waits out a hello interval; the rest of the
// beat stays on its cadence. Nothing else kicks — kicks per node are
// bounded by its queries plus its files. Acks are not beacons: one peer
// hears each, the round and the ticker are untouched, and their number is
// bounded by the pairwise pieces the node applied.
//
// Ownership and locking: Daemon.mu guards the node state and the
// daemon's two tables — one record per peer, one per file. Handler
// callbacks (session goroutines) take the lock briefly and never send
// while holding it. A send is two hops:
// peer.Manager.Send queues the frame on the destination session's own
// control or data lane and returns at once; that session's writer puts
// it on the conn. The daemon has no queue or sender goroutine of its
// own, so a peer that stops reading backs up only its own lanes and two
// daemons sending to each other cannot deadlock. A full lane drops the
// frame, which the protocol absorbs: every state exchange is re-driven
// by the next hello — which is why handlers ignore Manager.Send's error.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bcast"
	"repro/internal/credit"
	"repro/internal/dht"
	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/node"
	"repro/internal/peer"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Defaults.
const (
	// DefaultPiecesPerHello caps piece broadcasts triggered by one
	// hello, pacing downloads to the beacon rhythm like the
	// simulator's per-contact piece budget.
	DefaultPiecesPerHello = 16
	// DefaultMetadataPerHello caps metadata answers per query per
	// hello.
	DefaultMetadataPerHello = 8
	// DefaultTTL is the time-to-live of the synthetic catalog's metadata
	// and of own queries.
	DefaultTTL = 3 * simtime.Day
	// DefaultFileSize gives 3 pieces at the paper's 256 KB piece size.
	DefaultFileSize = 600 * 1024
	// DefaultRetryBudget bounds out-of-band stall re-drives per
	// download; past it the daemon leans on the regular beacon alone.
	DefaultRetryBudget = 16
	// badSigsPerStrike is how many bad signatures earn a peer one strike,
	// and with it a quarantine.
	badSigsPerStrike = 5
	// maxQuarantineDoublings caps quarantine growth at
	// 2^maxQuarantineDoublings × the liveness window.
	maxQuarantineDoublings = 3
)

// Config assembles one daemon.
type Config struct {
	// ID is this node's identity.
	ID trace.NodeID
	// Transport carries all links.
	Transport transport.Transport
	// ListenAddr, when non-empty, accepts inbound sessions.
	ListenAddr string
	// PeerAddrs are outbound links maintained with backoff redial.
	PeerAddrs []string
	// InternetAccess gives this node the server catalog: it answers
	// queries and serves pieces authoritatively.
	InternetAccess bool
	// InternetNodes is the catalog's popularity denominator (default 1).
	InternetNodes int
	// PublishFiles seeds the catalog with this many synthetic files at
	// startup (Internet nodes only).
	PublishFiles int
	// FileSize and PieceSize shape the synthetic files.
	FileSize  int64
	PieceSize int
	// Queries are the user's active searches.
	Queries []string
	// FetchMatching selects every discovered file whose metadata
	// matches an own query — the demo's stand-in for the user picking
	// from the result list.
	FetchMatching bool
	// PiecesPerHello overrides the piece pacing default.
	PiecesPerHello int
	// HelloInterval and LivenessWindow tune the beacon clock (defaults:
	// the protocol's 1 s / 5 s).
	HelloInterval  time.Duration
	LivenessWindow time.Duration
	// MaxPeers bounds the peer table (0 = unbounded): handshakes that
	// would add a peer beyond the cap are refused, so swarm-scale
	// populations cannot make any single node's session set grow without
	// limit.
	MaxPeers int
	// OnComplete, when set, is called (outside the daemon lock) each time
	// a download finishes verification — the swarm harness's completion
	// event stream.
	OnComplete func(uri metadata.URI)
	// ResendAfter is the per-piece exchange deadline: a piece pushed to
	// a peer that keeps advertising the download becomes eligible for
	// resend once this long has passed without the peer completing
	// (default 2× the liveness window). This is the loss-recovery path:
	// a dropped or corrupted piece is re-served after one deadline
	// instead of waiting for a full catalog sweep.
	ResendAfter time.Duration
	// RetryBudget bounds stall re-drives per download — the out-of-band
	// hellos spent on a wanted file that gained no piece for 3× the
	// liveness window (default DefaultRetryBudget); the spend is surfaced
	// in Stats and /healthz.
	RetryBudget int
	// PeerRate, when positive, turns on per-peer admission control:
	// each peer's inbound messages dispatch at most PeerRate per second
	// sustained (burst 2×), a shed request is answered with a 429-style
	// Busy frame naming the lane and a retry window, and the catalog
	// enforces the same rate on keyword queries. DHT frames pass the same
	// per-peer dispatch limit as everything else and have none of their
	// own. Zero disables (the default).
	PeerRate float64
	// BusyRetryAfter is the backoff window advertised in outgoing Busy
	// frames and the pacing floor for sending them (default
	// 2×HelloInterval). Received Busy windows are honored as advertised
	// but clamped to 2×LivenessWindow — a longer silence is
	// indistinguishable from churn.
	BusyRetryAfter time.Duration
	// OutboxLen caps each peer session's send lanes, per frame class
	// (default peer.DefaultQueueLen); tests shrink it to force shedding,
	// benchmarks size it to a whole file.
	OutboxLen int
	// Backoff shapes outbound redial.
	Backoff transport.Backoff
	// EnableBcast runs the live broadcast-group subsystem (§V): the
	// daemon derives cliques from overheard hellos and serves group
	// members through scheduled one-sender broadcasts instead of
	// pairwise streams.
	EnableBcast bool
	// TitForTat selects cyclic-order scheduling (§V-B) over the
	// cooperative coordinator (§V-A).
	TitForTat bool
	// Broadcast, when non-nil, is a joined shared-medium conn: group
	// traffic costs one transmission for the whole group instead of a
	// per-member unicast fan-out. The daemon pumps it but does not own
	// it.
	Broadcast transport.BroadcastConn
	// Symbols, when non-nil alongside EnableFEC, is the best-effort
	// datagram lane for fountain-coded piece data. The daemon pumps it
	// but does not own it.
	Symbols transport.BroadcastConn
	// EnableFEC advertises the fountain-coded symbol plane to the
	// group; it takes effect only when Symbols is also set, and the
	// group uses it only when every member advertises it.
	EnableFEC bool
	// SymbolSize is the coded-symbol payload size (default
	// bcast.DefaultSymbolSize).
	SymbolSize int
	// RelayBudget bounds per-tick cooperative symbol relays (default
	// bcast.DefaultRelayBudget).
	RelayBudget int
	// EnableDHT runs the decentralized metadata index: a Kademlia-style
	// keyword→metadata DHT (internal/dht) layered over the existing peer
	// sessions. Internet nodes republish their catalog into it; every
	// node resolves open queries DHT-first (local cache, then iterative
	// FindValue) with the hello beacon as the legacy fallback, so keyword
	// queries keep resolving after the central catalog dies.
	EnableDHT bool
	// DHTK overrides the lookup width (default dht.DefaultK).
	DHTK int
	// DHTRepublish paces the DHT tick — table refresh, catalog
	// republish, query resolution (default 10× HelloInterval).
	DHTRepublish time.Duration
	// Fault, when the transport is wrapped in a fault injector, surfaces
	// its counters under /stats.
	Fault *fault.Transport
	// DataDir, when non-empty, persists node state — verified pieces,
	// learned metadata, the credit ledger, quarantine penalties — to a
	// crash-consistent WAL+snapshot store (internal/store). Every event
	// is fsynced before it takes effect in memory, and a restart against
	// the same directory resumes downloads from the persisted state: the
	// first hello advertises the recovered have-bitmaps, so peers never
	// re-send a piece that survived the crash.
	DataDir string
	// StoreFS overrides the store's filesystem (fault injection); nil
	// uses the OS.
	StoreFS store.FS
	// StoreCompactEvery overrides the store's auto-compaction threshold
	// in bytes (0 = store default, negative disables).
	StoreCompactEvery int64
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Stats is the daemon's observable state, served by the HTTP endpoint.
type Stats struct {
	ID                      trace.NodeID    `json:"id"`
	UptimeSeconds           float64         `json:"uptime_seconds"`
	InternetAccess          bool            `json:"internet_access"`
	CatalogFiles            int             `json:"catalog_files"`
	MetadataStored          int             `json:"metadata_stored"`
	Downloading             []string        `json:"downloading"`
	Completed               map[string]bool `json:"completed"`
	PiecesVerified          uint64          `json:"pieces_verified"`
	PiecesRejected          uint64          `json:"pieces_rejected"`
	PiecesDuplicate         uint64          `json:"pieces_duplicate"`
	PiecesResent            uint64          `json:"pieces_resent"`
	PiecesDroppedNoMetadata uint64          `json:"pieces_dropped_no_metadata"`
	BadSignatures           uint64          `json:"bad_signatures"`
	// The outbox fields sum the per-peer send lanes (peer.QueueStats):
	// OutboxDrops is the total across classes; the per-class splits and
	// live queue depths tell control shedding (bad) from data shedding
	// (expected under load) apart.
	OutboxDrops        uint64 `json:"outbox_drops"`
	OutboxDropsControl uint64 `json:"outbox_drops_control"`
	OutboxDropsData    uint64 `json:"outbox_drops_data"`
	OutboxControlDepth int    `json:"outbox_control_depth"`
	OutboxDataDepth    int    `json:"outbox_data_depth"`
	// Busy backpressure accounting: BusyReplies counts 429-style Busy
	// frames this daemon sent (paced, so one per peer/lane per window),
	// BusyBackoffs counts stall re-drives skipped because every live
	// peer was inside an advertised Busy window, QueriesShed the catalog
	// queries refused by per-peer admission control.
	BusyReplies  uint64 `json:"busy_replies"`
	BusyBackoffs uint64 `json:"busy_backoffs"`
	QueriesShed  uint64 `json:"queries_shed,omitempty"`
	// Stall re-drive accounting: Stalls counts stall detections,
	// Redrives the out-of-band hellos spent on them, Retries the
	// per-download budget spend against RetryBudget.
	Stalls      uint64         `json:"stalls"`
	Redrives    uint64         `json:"redrives"`
	RetryBudget int            `json:"retry_budget"`
	Retries     map[string]int `json:"retries,omitempty"`
	// Quarantine accounting: peers currently ignored for repeated bad
	// signatures and the messages dropped on that ground.
	Quarantined     []trace.NodeID `json:"quarantined,omitempty"`
	QuarantineDrops uint64         `json:"quarantine_drops"`
	// PiecesSuppressed counts pairwise piece serves skipped because the
	// requester is a confirmed group member (the schedule serves it).
	PiecesSuppressed uint64 `json:"pieces_suppressed"`
	// PiecesSkippedHeld counts, deal by deal, the pieces this node could
	// have served and left out because the peer's hello have-bitmap
	// already marked them held — e.g. pieces a restarted peer recovered
	// from its data directory.
	PiecesSkippedHeld uint64 `json:"pieces_skipped_held"`
	// PiecesForwarded counts pieces pushed to a neighbour the moment this
	// node applied them — the relay half of the standing order — rather
	// than in answer to a hello. Over the transport's pieces_sent it is
	// the share of serving that waited for nobody's beacon; the
	// requester's side of the same pace is transport.hellos_acked over
	// pieces_verified.
	PiecesForwarded uint64      `json:"pieces_forwarded"`
	Peers           []peer.Info `json:"peers"`
	Transport       peer.Stats  `json:"transport"`
	// Bcast is the group engine's state (with EnableBcast).
	Bcast *bcast.Stats `json:"bcast,omitempty"`
	// Fault is the injector's counters (with Config.Fault).
	Fault *fault.Stats `json:"fault,omitempty"`
	// Store is the durable store's counters, including what recovery
	// replayed (with Config.DataDir).
	Store *store.Stats `json:"store,omitempty"`
	// DHT is the decentralized index's counters (with Config.EnableDHT).
	DHT *dht.Stats `json:"dht,omitempty"`
	// PiecesRefetched counts verified pieces received over the wire that
	// the restored state already held. The crash-recovery invariant is
	// that this stays zero: persisted pieces are advertised in the hello
	// have-bitmap and peers never re-serve them.
	PiecesRefetched uint64 `json:"pieces_refetched"`
	// StoreErrors counts events dropped because their durable append
	// failed; the protocol's re-drive retries them.
	StoreErrors uint64 `json:"store_errors"`
}

// peerState is everything the daemon remembers about one peer, in one
// record under d.mu. sweepOnce drops the record when the peer is not
// live and nothing in it still binds: no offence on file, no Busy window
// it advertised still running, no Busy we told it still pacing.
type peerState struct {
	// sent is the send tracking and standing order (serve.go), per file
	// the peer's latest hello advertised as a download: onHello drops the
	// files it stopped listing and sweepOnce the whole map once the peer
	// is gone, so there is no per-piece mark for a file the peer no longer
	// wants.
	sent    map[metadata.URI]*sentFile
	offence offender
	// busyUntil holds, per lane, the backoff deadline the peer advertised
	// to us; busyTold when we last sent it a Busy, which paces our replies
	// to one per lane per BusyRetryAfter. Indexed by wire.BusyScope.
	busyUntil [numBusyScopes]time.Time
	busyTold  [numBusyScopes]time.Time
}

// numBusyScopes sizes the per-lane arrays: scopes count from 1.
const numBusyScopes = int(wire.BusySymbol) + 1

// busyOn reports whether the peer asked us to stay off the lane at wall.
func (ps *peerState) busyOn(sc wire.BusyScope, wall time.Time) bool {
	return !wall.After(ps.busyUntil[sc])
}

// binds reports whether the record still holds something at wall: an
// offence on file, a Busy window still running, or a Busy of ours sent
// less than pace ago.
func (ps *peerState) binds(wall time.Time, pace time.Duration) bool {
	if ps.offence.strikes+ps.offence.badSigs > 0 {
		return true
	}
	for sc := range ps.busyUntil {
		if ps.busyOn(wire.BusyScope(sc), wall) || wall.Sub(ps.busyTold[sc]) <= pace {
			return true
		}
	}
	return false
}

// offender is one peer's bad-signature record; the zero value is a clean
// one. Every badSigsPerStrike bad signatures are a strike, and the peer
// is ignored until the deadline; strikes double the penalty per repeat
// offense and decay away while the peer behaves.
type offender struct {
	badSigs int
	strikes int
	until   time.Time
	lastBad time.Time
}

// decay walks the record one step back toward clean once the peer has
// behaved for 4×base past its last offence and any sentence.
func (off *offender) decay(wall time.Time, base time.Duration) {
	if off.strikes+off.badSigs == 0 || wall.Sub(off.lastBad) <= 4*base || !wall.After(off.until) {
		return
	}
	if off.strikes > 0 {
		off.strikes--
	} else {
		off.badSigs = 0
	}
	off.lastBad = wall
}

// fileState is everything the daemon tracks about one file beside the
// node's own piece set, in one record under d.mu.
type fileState struct {
	// completed: every piece verified and applied; the record then stays
	// for good — it is the result set Stats reports.
	completed bool
	// lastProgress and retries drive stall detection while the file is a
	// wanted, incomplete download.
	lastProgress time.Time
	retries      int
	// restored marks the pieces recovered from DataDir.
	restored []bool
	// pending holds verified pieces staged for the committer but not yet
	// fsynced: not held (absent from Have and the hello bitmap), but a
	// second copy is already a duplicate. Always empty without a store.
	pending map[int]struct{}
}

// Daemon is a live MBT node. Construct with New, drive with Run.
type Daemon struct {
	cfg     Config
	mgr     *peer.Manager
	catalog *server.Safe     // nil unless InternetAccess
	bcast   *bcast.Engine    // nil unless EnableBcast
	store   *store.Store     // nil unless DataDir
	commitQ chan stagedPiece // onPiece → commitLoop; nil unless DataDir
	dht     *dht.Engine      // nil unless EnableDHT
	// clock is the node's one clock: every decision on time, here and in
	// the engines the daemon builds, is made on a reading of it. started
	// is its reading at construction, kept for uptime only.
	clock   func() time.Time
	started time.Time
	// tick delivers the beat's wake-ups when a test fires them by hand;
	// nil, as New leaves it, has Run arm the runtime ticker.
	tick <-chan time.Time

	// DHT plumbing: when maintenance is next due (the beat's own) and
	// whether a round is still in flight, the engine's RPC deadline, the
	// run context its sends inherit, and the in-flight dial-on-demand set.
	dhtDue     time.Time
	dhtRound   atomic.Bool
	dhtTimeout time.Duration
	dhtWG      sync.WaitGroup
	dialMu     sync.Mutex
	dhtCtx     context.Context
	dialing    map[string]bool

	listenMu sync.Mutex
	listener transport.Listener

	mu         sync.Mutex
	node       *node.Node
	peers      map[trace.NodeID]*peerState
	files      map[metadata.URI]*fileState
	lastPeerAt time.Time
	// lastShedAt is when admission control last shed an inbound message
	// (health surfaces it as a degraded reason while fresh).
	lastShedAt time.Time
	counters   struct {
		piecesVerified, piecesRejected, piecesNoMeta uint64
		piecesDuplicate, piecesResent                uint64
		badSignatures                                uint64
		stalls, redrives, quarantineDrops            uint64
		piecesSuppressed, piecesSkippedHeld          uint64
		piecesForwarded                              uint64
		piecesRefetched, storeErrors                 uint64
		busySent, busyBackoffs                       uint64
	}
}

// Validate reports the first reason c cannot describe a daemon. A zero
// field always means "use the default"; what is rejected is what no
// default can stand in for: a negative count, size, rate or duration, a
// liveness window shorter than the beacon it listens for, and an option
// that tunes a subsystem the same Config leaves off. New calls it first,
// so nothing is defaulted silently. StoreCompactEvery alone may be
// negative (the store's "never compact").
func (c Config) Validate() error {
	for _, rule := range []struct {
		broken bool
		what   string
	}{
		{c.Transport == nil, "nil transport"},
		{c.ListenAddr == "" && len(c.PeerAddrs) == 0, "no listen address and no peers"},
		{c.InternetNodes < 0, "negative InternetNodes"},
		{c.PublishFiles < 0, "negative PublishFiles"},
		{c.FileSize < 0, "negative FileSize"},
		{c.PieceSize < 0, "negative PieceSize"},
		{c.PiecesPerHello < 0, "negative PiecesPerHello"},
		{c.HelloInterval < 0, "negative HelloInterval"},
		{c.LivenessWindow < 0, "negative LivenessWindow"},
		{c.MaxPeers < 0, "negative MaxPeers"},
		{c.ResendAfter < 0, "negative ResendAfter"},
		{c.RetryBudget < 0, "negative RetryBudget"},
		{c.PeerRate < 0, "negative PeerRate"},
		{c.BusyRetryAfter < 0, "negative BusyRetryAfter"},
		{c.OutboxLen < 0, "negative OutboxLen"},
		{c.SymbolSize < 0, "negative SymbolSize"},
		{c.RelayBudget < 0, "negative RelayBudget"},
		{c.DHTK < 0, "negative DHTK"},
		{c.DHTRepublish < 0, "negative DHTRepublish"},
		{c.LivenessWindow > 0 && c.HelloInterval > 0 && c.LivenessWindow < c.HelloInterval,
			"LivenessWindow shorter than HelloInterval"},
		{c.EnableFEC && !c.EnableBcast, "EnableFEC needs EnableBcast"},
		{c.TitForTat && !c.EnableBcast, "TitForTat needs EnableBcast"},
		{c.DHTK != 0 && !c.EnableDHT, "DHTK needs EnableDHT"},
		{c.DHTRepublish != 0 && !c.EnableDHT, "DHTRepublish needs EnableDHT"},
		{c.StoreFS != nil && c.DataDir == "", "StoreFS needs DataDir"},
		{c.StoreCompactEvery != 0 && c.DataDir == "", "StoreCompactEvery needs DataDir"},
	} {
		if rule.broken {
			return errors.New("daemon: " + rule.what)
		}
	}
	return nil
}

// New validates cfg and builds the daemon (no I/O yet; Run starts it).
func New(cfg Config) (*Daemon, error) { return newDaemon(cfg, time.Now, nil) }

// newDaemon is New on the given clock and, when tick is not nil, with its
// beat woken by tick instead of a runtime ticker; tests pass a hand-driven
// clock and a channel they fire themselves.
func newDaemon(cfg Config, clock func() time.Time, tick <-chan time.Time) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.InternetNodes <= 0 {
		cfg.InternetNodes = 1
	}
	if cfg.PiecesPerHello <= 0 {
		cfg.PiecesPerHello = DefaultPiecesPerHello
	}
	if cfg.FileSize <= 0 {
		cfg.FileSize = DefaultFileSize
	}
	if cfg.PieceSize <= 0 {
		cfg.PieceSize = metadata.DefaultPieceSize
	}
	if cfg.HelloInterval <= 0 {
		cfg.HelloInterval = peer.DefaultHelloInterval
	}
	if cfg.LivenessWindow <= 0 {
		cfg.LivenessWindow = peer.DefaultLivenessWindow
	}
	if cfg.ResendAfter <= 0 {
		cfg.ResendAfter = 2 * cfg.LivenessWindow
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.DHTRepublish <= 0 {
		cfg.DHTRepublish = 10 * cfg.HelloInterval
	}
	if cfg.BusyRetryAfter <= 0 {
		cfg.BusyRetryAfter = 2 * cfg.HelloInterval
	}

	now := clock()
	d := &Daemon{
		cfg:     cfg,
		clock:   clock,
		started: now,
		tick:    tick,
		node:    node.New(cfg.ID, cfg.InternetAccess),
		peers:   make(map[trace.NodeID]*peerState),
		files:   make(map[metadata.URI]*fileState),
	}
	if cfg.DataDir != "" {
		st, err := store.Open(store.Options{
			Dir:          cfg.DataDir,
			FS:           cfg.StoreFS,
			CompactEvery: cfg.StoreCompactEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("daemon: open data dir: %w", err)
		}
		d.store = st
		d.commitQ = make(chan stagedPiece, commitQueueLen)
		d.restore(st.State(), now)
	}
	if cfg.InternetAccess {
		cat, err := server.NewSafe(cfg.InternetNodes)
		if err != nil {
			return nil, err
		}
		d.catalog = cat
		// The catalog gets the same per-peer rate as the dispatch layer
		// (zero leaves it unlimited).
		cat.SetQueryLimit(cfg.PeerRate, clock)
		for i := 0; i < cfg.PublishFiles; i++ {
			if err := cat.Publish(d.syntheticFile(metadata.FileID(i))); err != nil {
				return nil, err
			}
		}
	}
	for _, q := range cfg.Queries {
		d.node.AddQuery(q, protoTime(now).Add(DefaultTTL))
	}
	if cfg.EnableDHT {
		// The RPC deadline tracks the liveness window so a dial-on-demand
		// (dial + hello handshake) fits inside one request's patience.
		d.dhtTimeout = cfg.LivenessWindow / 2
		if d.dhtTimeout < dht.DefaultRequestTimeout {
			d.dhtTimeout = dht.DefaultRequestTimeout
		}
		d.dialing = make(map[string]bool)
		d.dht = dht.New(dht.Config{
			Self:           cfg.ID,
			Addr:           cfg.ListenAddr,
			K:              cfg.DHTK,
			RequestTimeout: d.dhtTimeout,
			Send:           d.dhtSend,
			Verify:         d.dhtVerify,
			SignedExpiry:   dhtSignedExpiry,
			Now:            clock,
			Logf:           cfg.Logf,
		})
	}
	if cfg.EnableBcast {
		d.bcast = bcast.New(bcast.Config{
			Self:        cfg.ID,
			TitForTat:   cfg.TitForTat,
			Window:      cfg.LivenessWindow,
			Store:       (*bcastStore)(d),
			Send:        (*bcastSender)(d),
			FEC:         cfg.EnableFEC && cfg.Symbols != nil,
			SymbolSize:  cfg.SymbolSize,
			RelayBudget: cfg.RelayBudget,
			Now:         clock,
			Logf:        cfg.Logf,
		})
	}
	d.mgr = peer.NewManager(peer.Config{
		Self:           cfg.ID,
		Hello:          d.helloContent,
		Handler:        (*handler)(d),
		HelloInterval:  cfg.HelloInterval,
		LivenessWindow: cfg.LivenessWindow,
		MaxPeers:       cfg.MaxPeers,
		Backoff:        cfg.Backoff,
		InboundRate:    cfg.PeerRate,
		QueueLen:       cfg.OutboxLen,
		OnShed:         d.onShed,
		Now:            clock,
		Logf:           cfg.Logf,
	})
	return d, nil
}

// syntheticFile builds catalog file id, named so that the query "f<id>"
// (workload.QueryFor's convention) matches it, signed with the shared
// synthetic key so any daemon can verify it.
func (d *Daemon) syntheticFile(id metadata.FileID) *metadata.Metadata {
	name := fmt.Sprintf("f%d synthetic file", id)
	publisher := "mbtd"
	return metadata.NewSynthetic(id, name, publisher,
		fmt.Sprintf("synthetic catalog file %d served by node %d", id, d.cfg.ID),
		d.cfg.FileSize, d.cfg.PieceSize, protoTime(d.clock()), DefaultTTL,
		workload.KeyFor(publisher))
}

// peerQueryTTL is how long a peer's hello-carried queries stay cached
// for query distribution: ten liveness windows.
const peerQueryTTL = 10 * simtime.Duration(peer.DefaultLivenessWindow/time.Millisecond)

// protoTime is the live node's one time base: an instant as the
// protocol state machines, the wire and the WAL carry it — Unix
// milliseconds. A record's Created and Expires therefore name the same
// instant at its publisher, at every receiver and after any restart.
func protoTime(t time.Time) simtime.Time { return simtime.Time(t.UnixMilli()) }

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// helloContent supplies the beacon payload: own queries, the files
// still being downloaded, and per-file have-bitmaps so peers serve only
// missing pieces. The bitmap matters most after a restart: pieces
// recovered from the data directory are advertised from the first
// beacon, so no peer ever re-sends what already survived the crash. It
// is also every ack's payload, so a bitmap is a copy of the piece set's
// own bits, not a walk over the file.
func (d *Daemon) helloContent() ([]string, []metadata.URI, []wire.GroupWant) {
	now := protoTime(d.clock())
	d.mu.Lock()
	defer d.mu.Unlock()
	downloading := d.node.WantedIncomplete()
	have := make([]wire.GroupWant, 0, len(downloading))
	for _, uri := range downloading {
		if rec, ps := d.heldLocked(uri, now); rec != nil {
			have = append(have, groupWant(uri, true, ps))
		}
	}
	return d.node.Queries(now), downloading, have
}

// peerLocked returns id's record, starting a clean one if there is none.
// Caller holds d.mu.
func (d *Daemon) peerLocked(id trace.NodeID) *peerState {
	ps := d.peers[id]
	if ps == nil {
		ps = &peerState{}
		d.peers[id] = ps
	}
	return ps
}

// fileLocked returns uri's record, starting an empty one if there is
// none. Caller holds d.mu.
func (d *Daemon) fileLocked(uri metadata.URI) *fileState {
	f := d.files[uri]
	if f == nil {
		f = &fileState{}
		d.files[uri] = f
	}
	return f
}

// restore folds the recovered durable state back into the runtime: the
// node re-learns persisted metadata and pieces, interrupted downloads
// are re-selected so the next hello advertises them (with have-bitmaps
// covering everything recovered), the credit ledger is replayed, and
// quarantine penalties still in the future are re-armed. What lapsed
// while the node was down stays lapsed, exactly as node.Expire would
// have left it: a record past its signed expiry is not re-learned, its
// unfinished piece set is dropped with it, a complete one is kept.
// Called from New before any I/O starts, so no lock is needed.
func (d *Daemon) restore(st *store.State, wall time.Time) {
	now := protoTime(wall)
	for uri, f := range st.Files {
		if f.Meta != nil {
			if f.Meta.Expired(now) && f.HaveCount() < f.Total {
				continue
			}
			d.node.AddMetadata(f.Meta.Clone(), f.Popularity, now)
		}
		held := make([]bool, f.Total)
		for i, have := range f.Have {
			if have {
				d.node.AddPiece(uri, i, f.Total)
				held[i] = true
			}
		}
		fs := d.fileLocked(uri)
		fs.restored = held
		if f.Selected {
			if d.node.HasFullFile(uri) {
				fs.completed = true
			} else {
				d.node.Select(uri) // its stall clock starts at the first sweep
			}
		}
	}
	for p, c := range st.Credit {
		d.node.Ledger.Add(p, c)
	}
	for p, q := range st.Quarantine {
		until := time.UnixMilli(q.UntilUnixMilli)
		if until.After(wall) {
			d.peerLocked(p).offence = offender{strikes: q.Strikes, until: until, lastBad: wall}
		}
	}
}

// persist appends one record to the durable store, if configured,
// returning whether the event may take effect. The caller holds d.mu
// across the fsync inside Append, which is why only the rare records
// come this way: metadata (once per download, and a piggybacked record
// must be in effect before the piece behind it is looked up) and
// quarantine (once per offence). Pieces and their credit, the per-piece
// traffic, are staged by onPiece for commitLoop instead and never sync
// under d.mu. On failure the event must be dropped — the protocol's hello
// re-drive will deliver it again — so memory never runs ahead of disk.
func (d *Daemon) persist(rec store.Record) bool {
	if d.store == nil {
		return true
	}
	if err := d.store.Append(rec); err != nil {
		d.counters.storeErrors++
		d.logf("daemon %d: store append %v: %v", d.cfg.ID, rec.RecordKind(), err)
		return false
	}
	return true
}

// Addr returns the bound listen address once Run has started listening
// ("" before then) — the address peers dial when ListenAddr was ":0".
func (d *Daemon) Addr() string {
	d.listenMu.Lock()
	defer d.listenMu.Unlock()
	if d.listener == nil {
		return ""
	}
	return d.listener.Addr()
}

// Manager exposes the peer table for stats and tests.
func (d *Daemon) Manager() *peer.Manager { return d.mgr }

// Run starts the daemon and blocks until ctx ends. All goroutines are
// joined before it returns.
func (d *Daemon) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	if d.dht != nil {
		d.dialMu.Lock()
		d.dhtCtx = ctx
		d.dialMu.Unlock()
	}

	if d.cfg.ListenAddr != "" {
		lis, err := d.cfg.Transport.Listen(d.cfg.ListenAddr)
		if err != nil {
			return fmt.Errorf("daemon: listen %s: %w", d.cfg.ListenAddr, err)
		}
		d.listenMu.Lock()
		d.listener = lis
		d.listenMu.Unlock()
		defer lis.Close()
		if d.dht != nil {
			// Advertise the bound address (ListenAddr may have been ":0").
			d.dht.SetAddr(lis.Addr())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.mgr.Serve(ctx, lis)
		}()
	}
	for _, addr := range d.cfg.PeerAddrs {
		addr := addr
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.mgr.Connect(ctx, d.cfg.Transport, addr)
		}()
	}
	committed := make(chan struct{})
	if d.store != nil {
		go func() {
			defer close(committed)
			d.commitLoop()
		}()
	}
	if d.bcast != nil {
		for name, lane := range map[string]transport.BroadcastConn{
			"broadcast medium": d.cfg.Broadcast, "symbol lane": d.cfg.Symbols,
		} {
			if lane != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d.lanePump(ctx, name, lane)
				}()
			}
		}
	}

	// The beat runs here, on Run's own goroutine, until ctx ends.
	tick, reset := d.tick, func(time.Duration) {}
	if tick == nil {
		t := time.NewTicker(d.cfg.HelloInterval)
		defer t.Stop()
		tick, reset = t.C, t.Reset
	}
	d.dhtDue = d.clock().Add(2 * d.cfg.HelloInterval)
	d.mgr.Run(ctx, tick, reset, func(wall time.Time) { d.beat(ctx, wall) })
	d.mgr.Close()
	wg.Wait()
	d.dhtWG.Wait()
	if d.store != nil {
		// Every goroutine that stages pieces has exited, so the queue can
		// close; the committer logs and applies what is still staged
		// before the store closes under it.
		close(d.commitQ)
		<-committed
		// Graceful shutdown flush: fold the WAL into a snapshot so the
		// next start replays one compact image instead of a long log.
		// Every record is already fsynced, so a failure here loses
		// nothing — the WAL remains the source of truth.
		if err := d.store.Close(); err != nil {
			d.logf("daemon %d: store close: %v", d.cfg.ID, err)
		}
	}
	return ctx.Err()
}

// beat is what the node does once per hello interval after the peer
// round (peer.Manager.Run), all of it judged at wall, the beat's one
// reading of the clock: the sweep, the group engine's beat — it announces
// the view and is the deadline after which an unacked piece is granted
// again; the schedule itself runs on the frames lanePump hands the engine
// — and, when due, DHT maintenance. That is due two intervals after start
// — once the configured links have handshaken, so a fresh node bootstraps
// its routing table and resolves its queries without waiting out a
// republish period — and every DHTRepublish from then on. A round blocks
// on the network, so it gets a goroutine of its own (Run joins it); while
// one is in flight the next is not started, only looked at again a beat
// later.
func (d *Daemon) beat(ctx context.Context, wall time.Time) {
	d.sweepOnce(wall)
	if d.bcast != nil {
		d.bcast.Tick(ctx)
	}
	if d.dht != nil && !wall.Before(d.dhtDue) && d.dhtRound.CompareAndSwap(false, true) {
		d.dhtDue = wall.Add(d.cfg.DHTRepublish)
		d.dhtWG.Add(1)
		go func() {
			defer d.dhtWG.Done()
			defer d.dhtRound.Store(false)
			d.dhtTick(ctx, protoTime(wall))
		}()
	}
}

// sweepOnce expires node/catalog state, takes the live peer set as the
// node's frequent contacts, and makes one pass over each of the daemon's
// two tables. Peers: forget send tracking for the vanished,
// decay quarantine strikes of those that have since behaved, note who is
// inside a Busy window, and drop every record that no longer holds
// anything. Files: re-drive stalled downloads — a wanted file with no new
// piece for 3× the liveness window spends one unit of its retry budget on
// an immediate out-of-band hello to every live peer, which prompts any
// holder to re-serve (its per-piece ResendAfter deadlines decide what).
func (d *Daemon) sweepOnce(wall time.Time) {
	now := protoTime(wall)
	peers := d.mgr.Peers()
	live := make(map[trace.NodeID]bool, len(peers))
	for _, id := range peers {
		live[id] = true
	}
	nudge := false
	d.mu.Lock()
	if len(live) > 0 {
		d.lastPeerAt = wall
	}
	d.node.SetFrequent(peers)
	d.node.Expire(now)
	// busy collects the peers still inside a piece- or query-lane window
	// they advertised — re-drives compose with backpressure by skipping
	// them, and when every live peer is backing us off, the re-drive
	// itself waits without spending budget.
	busy := make(map[trace.NodeID]bool)
	for id, ps := range d.peers {
		if !live[id] {
			ps.sent = nil
		}
		ps.offence.decay(wall, d.cfg.LivenessWindow)
		if ps.busyOn(wire.BusyPiece, wall) || ps.busyOn(wire.BusyQuery, wall) {
			busy[id] = true
		}
		if !live[id] && !ps.binds(wall, d.cfg.BusyRetryAfter) {
			delete(d.peers, id)
		}
	}
	allBusy := len(live) > 0
	for id := range live {
		if !busy[id] {
			allBusy = false
			break
		}
	}
	for uri, f := range d.files {
		ps := d.node.Pieces(uri)
		if ps == nil {
			// The node dropped the piece set with its expired record (or
			// the first piece is still staged): short of a completed
			// file, nothing here outlives it.
			if !f.completed && len(f.pending) == 0 {
				delete(d.files, uri)
			}
			continue
		}
		if !ps.Want || f.completed || ps.Complete() {
			continue
		}
		if f.lastProgress.IsZero() {
			f.lastProgress = wall // a restored download's first sweep
			continue
		}
		if wall.Sub(f.lastProgress) < 3*d.cfg.LivenessWindow {
			continue
		}
		d.counters.stalls++
		f.lastProgress = wall // re-arm the stall timer
		if f.retries >= d.cfg.RetryBudget {
			continue // budget spent: the regular beacon keeps trying
		}
		if allBusy {
			// Every live peer advertised Busy on the lanes a re-drive
			// would hit: honor the windows instead of spending budget on
			// a hello that would only be shed.
			d.counters.busyBackoffs++
			continue
		}
		f.retries++
		d.counters.redrives++
		nudge = true
	}
	d.mu.Unlock()
	if d.catalog != nil {
		d.catalog.Expire(now)
	}
	if nudge {
		d.logf("daemon %d: download stalled; re-driving live peers", d.cfg.ID)
		d.mgr.BroadcastExcept(func(id trace.NodeID) bool { return busy[id] })
	}
}

// AddQuery registers a new search at runtime, as if it had been in
// Config.Queries. A query that was not already in the set is beaconed
// at once; repeating one only extends its expiry.
func (d *Daemon) AddQuery(q string) {
	expiry := protoTime(d.clock()).Add(DefaultTTL)
	d.mu.Lock()
	added := d.node.AddQuery(q, expiry)
	d.mu.Unlock()
	if added {
		d.mgr.Kick()
	}
}

// Pause suspends the node's radio without tearing it down: beacons stop
// and inbound messages are dropped, so peers see exactly what a node
// that walked out of range looks like. State, sessions, and goroutines
// all stay put; Resume turns the radio back on. This is the swarm
// harness's scenario hook for scripted attendance (diurnal schedules,
// duty cycles) where a full kill/restart would be the wrong model.
func (d *Daemon) Pause() { d.mgr.SetPaused(true) }

// Resume turns a paused node's radio back on; liveness re-establishes
// within a hello interval on surviving sessions, and redial covers the
// rest.
func (d *Daemon) Resume() { d.mgr.SetPaused(false) }

// Paused reports whether the radio is suspended.
func (d *Daemon) Paused() bool { return d.mgr.Paused() }

// Have reports which pieces of uri this node can serve (nil when it has
// no record of the file): the whole file on a node whose catalog lists
// it, the held pieces elsewhere. The swarm harness unions these across
// nodes to decide whether a file is still reconstructable after seeder
// death — the availability metric's ground truth.
func (d *Daemon) Have(uri metadata.URI) []bool {
	rec, w := d.holding(uri, protoTime(d.clock()))
	if rec == nil {
		return nil
	}
	have := make([]bool, w.Total)
	for i := range have {
		have[i] = w.HaveBit(i)
	}
	return have
}

// CreditSnapshot copies the node's tit-for-tat ledger — the harness
// computes cross-swarm credit dispersion from these.
func (d *Daemon) CreditSnapshot() map[trace.NodeID]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.node.Ledger.Snapshot()
}

// Completed reports whether uri finished downloading and verified.
func (d *Daemon) Completed(uri metadata.URI) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.files[uri]
	return f != nil && f.completed
}

// Stats snapshots the daemon for the HTTP endpoint and tests.
func (d *Daemon) Stats() Stats {
	wall := d.clock()
	d.mu.Lock()
	st := Stats{
		ID:                      d.cfg.ID,
		UptimeSeconds:           wall.Sub(d.started).Seconds(),
		InternetAccess:          d.cfg.InternetAccess,
		MetadataStored:          len(d.node.MetadataStore()),
		Completed:               make(map[string]bool),
		PiecesVerified:          d.counters.piecesVerified,
		PiecesRejected:          d.counters.piecesRejected,
		PiecesDuplicate:         d.counters.piecesDuplicate,
		PiecesResent:            d.counters.piecesResent,
		PiecesDroppedNoMetadata: d.counters.piecesNoMeta,
		BadSignatures:           d.counters.badSignatures,
		BusyReplies:             d.counters.busySent,
		BusyBackoffs:            d.counters.busyBackoffs,
		Stalls:                  d.counters.stalls,
		Redrives:                d.counters.redrives,
		RetryBudget:             d.cfg.RetryBudget,
		QuarantineDrops:         d.counters.quarantineDrops,
		PiecesSuppressed:        d.counters.piecesSuppressed,
		PiecesSkippedHeld:       d.counters.piecesSkippedHeld,
		PiecesForwarded:         d.counters.piecesForwarded,
		PiecesRefetched:         d.counters.piecesRefetched,
		StoreErrors:             d.counters.storeErrors,
	}
	for _, uri := range d.node.WantedIncomplete() {
		st.Downloading = append(st.Downloading, string(uri))
	}
	for uri, f := range d.files {
		if f.completed {
			st.Completed[string(uri)] = true
		} else if f.retries > 0 {
			if st.Retries == nil {
				st.Retries = make(map[string]int)
			}
			st.Retries[string(uri)] = f.retries
		}
	}
	for id, ps := range d.peers {
		if wall.Before(ps.offence.until) {
			st.Quarantined = append(st.Quarantined, id)
		}
	}
	sort.Slice(st.Quarantined, func(i, j int) bool { return st.Quarantined[i] < st.Quarantined[j] })
	d.mu.Unlock()
	q := d.mgr.Queues()
	st.OutboxDropsControl = q.DropsControl
	st.OutboxDropsData = q.DropsData
	st.OutboxDrops = q.DropsControl + q.DropsData
	st.OutboxControlDepth, st.OutboxDataDepth = q.ControlDepth, q.DataDepth
	if d.catalog != nil {
		st.CatalogFiles = d.catalog.Len()
		st.QueriesShed = d.catalog.QueriesShed()
	}
	st.Peers = d.mgr.Table()
	st.Transport = d.mgr.Stats()
	if d.bcast != nil {
		bs := d.bcast.Stats()
		st.Bcast = &bs
	}
	if d.cfg.Fault != nil {
		fs := d.cfg.Fault.Stats()
		st.Fault = &fs
	}
	if d.store != nil {
		ss := d.store.Stats()
		st.Store = &ss
	}
	if d.dht != nil {
		ds := d.dht.Stats()
		st.DHT = &ds
	}
	return st
}

// handler adapts Daemon to peer.Handler without exporting the method on
// Daemon itself.
type handler Daemon

// Handle routes one admitted frame to the engine that consumes its
// kind — the daemon's one switch over the frame types.
func (h *handler) Handle(from trace.NodeID, msg wire.Msg) {
	d := (*Daemon)(h)
	switch v := msg.(type) {
	case *wire.Hello:
		d.onHello(from, v)
	case *wire.Metadata:
		d.onMetadata(from, v)
	case *wire.Piece:
		d.onPiece(from, v)
	case *wire.Busy:
		d.onBusy(from, v)
	case *wire.GroupHello, *wire.Grant, *wire.PieceBcast, *wire.Symbol, *wire.SymbolAck:
		// Group frames on a unicast session: the fan-out fallback of a
		// node without a shared medium.
		if d.bcast != nil && !d.quarantined(from) {
			d.bcast.HandleGroup(context.Background(), from, msg)
		}
	case *wire.FindNode, *wire.FindValue, *wire.StoreValue, *wire.NodesReply:
		d.onDHT(from, msg)
	}
}

// quarantined reports (and counts) whether a message from the peer
// must be dropped because the sender is serving a bad-signature
// quarantine.
func (d *Daemon) quarantined(from trace.NodeID) bool {
	wall := d.clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	ps := d.peers[from]
	if ps == nil || !wall.Before(ps.offence.until) {
		return false
	}
	d.counters.quarantineDrops++
	return true
}

// onHello is the live protocol's driver: answer the peer's queries with
// metadata, and feed its advertised downloads with pieces.
func (d *Daemon) onHello(from trace.NodeID, msg *wire.Hello) {
	if d.quarantined(from) {
		return
	}
	wall := d.clock()
	now := protoTime(wall)

	// Cache the queries of this node's "frequent contacts" — in the live
	// runtime the peer set as of the last beat (sweepOnce) — so MBT's
	// query distribution has state to work with once multi-hop topologies
	// appear.
	d.mu.Lock()
	d.node.LearnPeerQueries(from, msg.Queries, now.Add(peerQueryTTL))
	d.forgetFinishedLocked(from, msg.Downloading)
	d.mu.Unlock()

	// The heard list is the raw material of the clique graph: the sender
	// vouches it can receive each listed node.
	if d.bcast != nil {
		d.bcast.Observe(from, msg.Heard)
	}
	// Every live peer is a DHT contact. Its dialable address is learned
	// later from its own DHT frames; an empty one routes over the
	// session we already share.
	if d.dht != nil {
		d.dht.Observe(from, "")
	}

	// Metadata answers are queued before any piece is generated, so a
	// hello carrying both a query and a download is answered record-first.
	if len(msg.Queries) > 0 {
		holds := make(map[metadata.URI]bool, len(msg.Downloading))
		for _, uri := range msg.Downloading {
			holds[uri] = true
		}
		for _, q := range msg.Queries {
			for _, m := range d.answerQuery(now, from, q, holds) {
				d.mgr.Send(from, m)
			}
		}
	}
	// A confirmed group member's downloads are the schedule's job: one
	// broadcast serves every member, so pairwise streams to it would
	// only burn the medium. Collapse flips InGroup off and this path
	// resumes — the pairwise fallback.
	if d.bcast != nil && len(msg.Downloading) > 0 && d.bcast.InGroup(from) {
		d.mu.Lock()
		d.counters.piecesSuppressed += uint64(len(msg.Downloading))
		d.mu.Unlock()
		return
	}
	// Index the peer's have-bitmaps so the serve loop can skip pieces
	// it already holds (e.g. everything it recovered from disk).
	peerHave := make(map[metadata.URI]*wire.GroupWant, len(msg.Have))
	for i := range msg.Have {
		peerHave[msg.Have[i].URI] = &msg.Have[i]
	}
	for _, uri := range msg.Downloading {
		d.servePieces(wall, from, uri, peerHave[uri], msg.Heard)
	}
}

// forgetFinishedLocked drops the send tracking of every file the peer's
// hello no longer lists: a node advertises a download until it
// completes, so absence means done or abandoned, and a long-lived
// session must not keep one timestamp per piece of every file the peer
// ever fetched. Caller holds d.mu.
func (d *Daemon) forgetFinishedLocked(from trace.NodeID, downloading []metadata.URI) {
	ps := d.peers[from]
	if ps == nil {
		return
	}
	for uri := range ps.sent {
		if !slices.Contains(downloading, uri) {
			delete(ps.sent, uri)
		}
	}
}

// answerQuery collects matching metadata from the catalog (Internet
// nodes) and the node's own store, best first. Catalog admission
// control runs first: a peer past its query rate gets one paced Busy
// on the query lane instead of catalog work. Records in holds — the
// files the same hello advertises as downloads — are skipped: a node
// advertises a download only after it verified and selected the record,
// so re-sending it every beacon buys nothing, and the slots go to the
// next-best matches.
func (d *Daemon) answerQuery(now simtime.Time, from trace.NodeID, q string, holds map[metadata.URI]bool) []wire.Msg {
	if d.catalog != nil && !d.catalog.AllowQuery(from) {
		d.sendBusy(from, wire.BusyQuery)
		return nil
	}
	limit := DefaultMetadataPerHello
	var out []wire.Msg
	seen := make(map[metadata.URI]bool)
	if d.catalog != nil {
		for _, m := range d.catalog.Query(now, q, limit+len(holds)) {
			if len(out) >= limit {
				break
			}
			if holds[m.URI] {
				continue
			}
			d.catalog.RecordRequest(now, m.URI, from)
			pop := d.catalog.Popularity(now, m.URI)
			seen[m.URI] = true
			out = append(out, &wire.Metadata{Popularity: pop, Record: *m})
		}
	}
	d.mu.Lock()
	for _, sm := range d.node.MatchingQuery(q) {
		if len(out) >= limit {
			break
		}
		if seen[sm.Meta.URI] || holds[sm.Meta.URI] || sm.Meta.Expired(now) {
			continue
		}
		out = append(out, &wire.Metadata{Popularity: sm.Popularity, Record: *sm.Meta.Clone()})
	}
	d.mu.Unlock()
	return out
}

// servePieces answers one hello's advertisement of uri, beacon or ack
// alike, from what this node holds of it (holding.go). The first hello
// of a beat deals: it fixes this supplier's share of the peer's missing
// pieces as the standing order (serve.go) and opens it with pickPieces'
// holder-disjoint burst, the only place the fill rules are judged. A
// hello inside the beat — the peer acknowledging a piece — continues
// down that order instead. Either way at most PiecesPerHello pushes are
// left unacknowledged: the budget is the pipe's depth less what is still
// in it. Never served: a piece peerHave (the peer's bitmap for uri; nil
// means none held) marks held, so a restarted downloader's persisted
// pieces cross the wire zero times, and one pushed less than ResendAfter
// ago — while a push older than that whose receiver still advertises the
// download is served again: the advertisement is the implicit NACK, and
// the per-piece deadline is the live retransmit path for lost or
// corrupted frames. heard is the peer's neighbour list, which ranks the
// suppliers of a deal. A node that holds nothing of uri yet still deals:
// the order is what onPiece forwards by (takersLocked). Each piece is
// queued as soon as it is generated, so the first frame leaves while the
// rest of the burst is still being built. A piece the peer's full data
// lane drops keeps its sent mark, and its window slot for a beat — the
// resend deadline re-serves it, like any other lost frame.
func (d *Daemon) servePieces(wall time.Time, from trace.NodeID, uri metadata.URI, peerHave *wire.GroupWant, heard []trace.NodeID) {
	rec := d.catalogued(uri)
	whole := rec != nil
	held := func(i int) bool { return peerHave != nil && peerHave.HaveBit(i) }

	d.mu.Lock()
	var set *node.PieceSet
	if !whole {
		if rec, set = d.heldLocked(uri, protoTime(wall)); rec == nil {
			d.mu.Unlock()
			return
		}
	}
	total := rec.NumPieces()
	canServe := func(i int) bool { return whole || set.Have(i) }
	ps := d.peerLocked(from)
	sf := ps.sent[uri]
	known := sf != nil
	if !known {
		if ps.sent == nil {
			ps.sent = make(map[metadata.URI]*sentFile)
		}
		sf = newSentFile()
		ps.sent[uri] = sf
	}
	recent := func(i int) bool {
		at, pushed := sf.at[i]
		return pushed && wall.Sub(at) < d.cfg.ResendAfter
	}
	sf.have = peerHave
	acked := sf.settle(wall, d.cfg.HelloInterval)
	budget := d.cfg.PiecesPerHello - len(sf.window)
	var idxs []int
	if !known || opensBeat(wall.Sub(sf.dealtAt), d.cfg.HelloInterval, acked) {
		rank, k := shareOf(heard, d.cfg.ID)
		origin := serveOrigin(from, uri, total)
		others := fedByOthers(total, held, func(i int) bool { _, pushed := sf.at[i]; return pushed })
		sole := known && others == sf.others
		sf.others = others
		// Counted per deal, not per burst: a dealing hello that finds the
		// pipe full sends nothing and still left the held pieces out.
		d.counters.piecesSkippedHeld += uint64(sf.deal(wall, total, origin, rank, k, canServe, held))
		idxs, _ = pickPieces(total, origin, rank, k, budget, sole, canServe, held, recent)
	} else {
		idxs = sf.advance(total, budget, func(i int) bool { return canServe(i) && !held(i) && !recent(i) })
	}
	for _, i := range idxs {
		if sf.push(i, wall) {
			d.counters.piecesResent++
		}
	}
	d.mu.Unlock()

	for _, i := range idxs {
		d.mgr.Send(from, &wire.Piece{URI: uri, Index: i, Total: total, Data: pieceBytes(rec, i)})
	}
}

// onMetadata verifies and stores a received record; if it matches one
// of this node's own queries and FetchMatching is on, the file is
// selected for download.
func (d *Daemon) onMetadata(from trace.NodeID, m *wire.Metadata) {
	if d.quarantined(from) {
		return
	}
	wall := d.clock()
	now := protoTime(wall)
	rec := m.Record.Clone()
	if err := rec.Validate(); err != nil {
		d.bumpBadSignature(from)
		return
	}
	if !rec.Verify(workload.KeyFor(rec.Publisher)) {
		d.bumpBadSignature(from)
		return
	}
	d.mu.Lock()
	// Decide the full effect first so one durable record captures it:
	// a new record, a selection, or both.
	selected := false
	if f := d.files[rec.URI]; d.cfg.FetchMatching && (f == nil || !f.completed) {
		for _, q := range d.node.Queries(now) {
			if rec.MatchesQuery(q) {
				if ps := d.node.Pieces(rec.URI); ps == nil || !ps.Complete() {
					selected = true
				}
				break
			}
		}
	}
	isNew := !d.node.HasMetadata(rec.URI)
	wanted := false
	if ps := d.node.Pieces(rec.URI); ps != nil && ps.Want {
		wanted = true
	}
	if isNew || (selected && !wanted) {
		// Log before apply (see onPiece); re-learned records and repeat
		// selections change nothing durable and are not re-logged.
		if !d.persist(&store.MetadataRecord{Popularity: m.Popularity, Meta: *rec, Selected: selected}) {
			d.mu.Unlock()
			return
		}
	}
	added := d.node.AddMetadata(rec, m.Popularity, now)
	if selected {
		d.node.Select(rec.URI)
		if f := d.fileLocked(rec.URI); f.lastProgress.IsZero() {
			f.lastProgress = wall
		}
	}
	d.mu.Unlock()
	if selected && !wanted {
		// A new download is an interest change: advertise it now rather
		// than at the next tick, so the holder that just answered the
		// query starts serving pieces within the same contact.
		d.mgr.Kick()
	}
	if added && d.dht != nil {
		// Fold the verified record into the DHT cache: a DTN-side node
		// answers FindValue from gossip-learned state, no Internet path.
		d.dhtCacheRecord(&wire.Metadata{Popularity: m.Popularity, Record: *rec.Clone()})
	}
	if added {
		d.logf("daemon %d: stored metadata %s (pop %.3f) from node %d, selected=%v",
			d.cfg.ID, rec.URI, m.Popularity, from, selected)
	}
}

// bumpBadSignature records a failed record verification from a peer
// and escalates to quarantine when the peer keeps doing it: at
// badSigsPerStrike bad signatures the peer is ignored for one liveness
// window, doubling per repeated offense up to 8×. The strike count
// decays in sweepOnce while the peer behaves, so a link that was merely
// corrupting in flight earns its way back to full service.
func (d *Daemon) bumpBadSignature(from trace.NodeID) {
	wall := d.clock()
	var penalty time.Duration
	d.mu.Lock()
	d.counters.badSignatures++
	off := &d.peerLocked(from).offence
	off.badSigs++
	off.lastBad = wall
	if off.badSigs >= badSigsPerStrike {
		off.badSigs = 0
		off.strikes++
		doublings := off.strikes - 1
		if doublings > maxQuarantineDoublings {
			doublings = maxQuarantineDoublings
		}
		penalty = d.cfg.LivenessWindow * (1 << doublings)
		off.until = wall.Add(penalty)
		// Best effort: the penalty protects this node either way, but a
		// persisted one survives a restart, so an offender cannot reset
		// its sentence by crashing its victim.
		d.persist(&store.QuarantineRecord{
			Peer:           from,
			Strikes:        off.strikes,
			UntilUnixMilli: off.until.UnixMilli(),
		})
	}
	d.mu.Unlock()
	if penalty > 0 {
		d.logf("daemon %d: quarantining node %d for %v (repeated bad signatures)",
			d.cfg.ID, from, penalty)
	}
}

// onPiece takes a piece that arrived on a pairwise session.
func (d *Daemon) onPiece(from trace.NodeID, p *wire.Piece) bool { return d.acceptPiece(from, p, true) }

// acceptPiece runs the shared verify-and-store path for a received piece
// (pairwise, broadcast, or fountain-decoded); the piggybacked record
// (MBT-QM) is processed first when present. It reports whether the
// piece checked out — stored fresh, staged for the next group commit,
// or a duplicate of one already held — so the fountain path can
// distinguish a clean decode from poisoned bytes that failed
// verification. A pairwise piece is acknowledged to its sender once it
// is applied (pieceApplied); the group plane has its own acks.
//
// d.mu is held only to look the record up and, after the SHA-1 check,
// to stage the result: neither the hash nor any fsync runs under it.
func (d *Daemon) acceptPiece(from trace.NodeID, p *wire.Piece, pairwise bool) bool {
	if d.quarantined(from) {
		return false
	}
	if p.Piggyback != nil {
		d.onMetadata(from, p.Piggyback)
	}
	wall := d.clock()
	d.mu.Lock()
	sm := d.node.Metadata(p.URI)
	if sm == nil || sm.Meta.Expired(protoTime(wall)) {
		d.counters.piecesNoMeta++
		d.mu.Unlock()
		return false
	}
	meta := sm.Meta // immutable once stored, safe to hash against unlocked
	d.mu.Unlock()

	ok := p.Verify(meta)

	d.mu.Lock()
	if !ok {
		d.counters.piecesRejected++
		d.mu.Unlock()
		return false
	}
	ps := d.node.Pieces(p.URI)
	f := d.fileLocked(p.URI)
	_, staged := f.pending[p.Index]
	if staged || (ps != nil && ps.Have(p.Index)) {
		// A duplicate of a piece already held or staged: the injector's
		// Duplicate fault and the resend deadline both produce these.
		d.countDuplicateLocked(p.URI, p.Index)
		d.mu.Unlock()
		return true
	}
	sp := stagedPiece{
		from: from, uri: p.URI, index: p.Index, total: meta.NumPieces(), data: p.Data,
		pairwise: pairwise,
		// Useful delivery earns tit-for-tat credit (§IV-B), durably: the
		// ledger survives restarts, so standing is not wiped by a crash.
		credit: ps != nil && ps.Want,
	}
	if d.store == nil {
		out := d.applyPieceLocked(sp, wall)
		d.mu.Unlock()
		d.pieceApplied(out)
		return true
	}
	// Log before apply: the piece becomes part of the node's state — and
	// of the next hello's have-bitmap — only once the committer has
	// fsynced it. The bounded queue back-pressures this connection the
	// way a blocking Append would.
	if f.pending == nil {
		f.pending = make(map[int]struct{})
	}
	f.pending[p.Index] = struct{}{}
	d.mu.Unlock()
	d.commitQ <- sp
	return true
}

// stagedPiece is a verified piece on its way into the node's state:
// what commitLoop needs to write its records, and what applying it needs
// — the bytes ride along only for the neighbours the piece is forwarded
// to, so the queue pins at most commitQueueLen received frames.
type stagedPiece struct {
	from     trace.NodeID
	uri      metadata.URI
	index    int
	total    int
	data     []byte
	pairwise bool // arrived on from's session: acknowledged there once applied
	credit   bool // the piece was wanted: log and apply the sender's reward
}

// commitQueueLen bounds the pieces staged ahead of the committer, and
// so one group commit: the committer takes whatever arrived while the
// previous fsync ran, up to a queue's worth, and a full queue blocks
// the receiving connections until the disk catches up.
const commitQueueLen = 256

// commitLoop is the durable piece path's only writer. Each round takes
// everything staged while the previous round's fsync ran, logs it with
// one write and one sync — a piece record and, when earned, its credit
// record side by side, so the pair is durable together or not at all —
// and only then takes d.mu to apply it; what follows an applied piece
// (forwards, the ack, the completion) follows the fsync that made its
// bit true, one ack per distinct sender of the batch. A failed batch is
// truncated back by the store; its pieces are un-pended and left to the
// senders' resend deadlines. Returns when commitQ is closed and drained.
func (d *Daemon) commitLoop() {
	var (
		batch []stagedPiece
		recs  []store.Record
		outs  []applied
	)
	for sp := range d.commitQ {
		batch = append(batch[:0], sp)
	fill:
		for len(batch) < commitQueueLen {
			select {
			case sp, open := <-d.commitQ:
				if !open {
					break fill
				}
				batch = append(batch, sp)
			default:
				break fill
			}
		}
		recs = recs[:0]
		for _, sp := range batch {
			recs = append(recs, &store.PieceRecord{URI: sp.uri, Index: sp.index, Total: sp.total})
			if sp.credit {
				recs = append(recs, &store.CreditRecord{Peer: sp.from, Delta: credit.RequestedReward})
			}
		}
		err := d.store.AppendBatch(recs)

		outs = outs[:0]
		wall := d.clock()
		d.mu.Lock()
		for _, sp := range batch {
			delete(d.files[sp.uri].pending, sp.index)
			if err == nil {
				outs = append(outs, d.applyPieceLocked(sp, wall))
			}
		}
		if err != nil {
			d.counters.storeErrors++
		}
		d.mu.Unlock()
		if err != nil {
			d.logf("daemon %d: store append of %d pieces: %v", d.cfg.ID, len(batch), err)
		}
		for i, out := range outs {
			// The ack carries the whole bitmap: a sender's first covers its
			// every piece of the batch.
			out.ack = out.ack && !slices.ContainsFunc(outs[:i], func(o applied) bool { return o.ack && o.sp.from == out.sp.from })
			d.pieceApplied(out)
		}
	}
}

// applied is what applying one piece leaves to do once d.mu is released.
type applied struct {
	sp     stagedPiece
	takers []trace.NodeID // neighbours the piece is forwarded to
	ack    bool           // the sender is owed a hello
	done   bool           // the piece completed its file
}

// applyPieceLocked makes a verified (and, with a store, fsynced) piece
// part of the node's state at wall, and settles under the lock what is
// to follow: which neighbours it is forwarded to, whether its sender is
// owed an ack, whether it completed its file. The caller holds d.mu and
// hands the result to pieceApplied once it has let go.
func (d *Daemon) applyPieceLocked(sp stagedPiece, wall time.Time) applied {
	out := applied{sp: sp}
	if !d.node.AddPiece(sp.uri, sp.index, sp.total) {
		// The piece cache turned the newcomer away.
		d.countDuplicateLocked(sp.uri, sp.index)
		return out
	}
	d.counters.piecesVerified++
	f := d.fileLocked(sp.uri)
	f.lastProgress = wall
	if sp.credit {
		d.node.Ledger.RewardRequested(sp.from)
	}
	if d.node.HasFullFile(sp.uri) && !f.completed {
		f.completed = true
		out.done = true
	}
	out.takers = d.takersLocked(sp, wall)
	// The ack stays on the pairwise plane and inside backpressure: nothing
	// for a piece the group plane delivered, nothing to a peer that asked
	// for room on the lanes a hello drives.
	if sp.pairwise {
		from := d.peers[sp.from]
		out.ack = from == nil || !(from.busyOn(wire.BusyPiece, wall) || from.busyOn(wire.BusyQuery, wall))
	}
	return out
}

// takersLocked is forward-on-acquisition: it lists, and marks as pushed,
// the neighbours whose standing order (serve.go) takes the piece this
// node just applied — never the peer it came from, never one that asked
// for room on the piece lane. The caller holds d.mu.
func (d *Daemon) takersLocked(sp stagedPiece, wall time.Time) (takers []trace.NodeID) {
	for id, ps := range d.peers {
		sf := ps.sent[sp.uri]
		if sf == nil || id == sp.from || ps.busyOn(wire.BusyPiece, wall) {
			continue
		}
		if sf.takes(sp.index, wall, d.cfg.HelloInterval, d.cfg.PiecesPerHello) {
			sf.push(sp.index, wall)
			takers = append(takers, id)
			d.counters.piecesForwarded++
		}
	}
	return takers
}

// pieceApplied does, with d.mu released, what applyPieceLocked settled:
// the sender hears the new bitmap first — its next piece is the one this
// node waits for — then the piece goes on to its takers as received, and
// a finished download is announced.
func (d *Daemon) pieceApplied(out applied) {
	sp := out.sp
	if out.ack {
		d.mgr.Ack(sp.from)
	}
	for _, id := range out.takers {
		d.mgr.Send(id, &wire.Piece{URI: sp.uri, Index: sp.index, Total: sp.total, Data: sp.data})
	}
	if out.done {
		d.announceComplete(sp)
	}
}

// countDuplicateLocked counts a piece that changed nothing. The caller
// holds d.mu.
func (d *Daemon) countDuplicateLocked(uri metadata.URI, index int) {
	d.counters.piecesDuplicate++
	if f := d.files[uri]; f != nil && index < len(f.restored) && f.restored[index] {
		// A piece recovered from disk came over the wire again — the
		// have-bitmap advertisement should make this impossible.
		d.counters.piecesRefetched++
	}
}

// announceComplete logs a finished download and fires OnComplete, with
// d.mu released.
func (d *Daemon) announceComplete(last stagedPiece) {
	d.logf("daemon %d: download of %s complete (%d pieces, verified) via node %d",
		d.cfg.ID, last.uri, last.total, last.from)
	if d.cfg.OnComplete != nil {
		d.cfg.OnComplete(last.uri)
	}
}

// CompletedURIs lists finished downloads, sorted.
func (d *Daemon) CompletedURIs() []metadata.URI {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []metadata.URI
	for uri, f := range d.files {
		if f.completed {
			out = append(out, uri)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
