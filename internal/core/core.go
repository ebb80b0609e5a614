package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/choke"
	"repro/internal/discovery"
	"repro/internal/download"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

// serverQueryLimit bounds the best-matched metadata returned per pulled
// query string.
const serverQueryLimit = 5

// Sim is one configured simulation. Construct with New, run with Run.
type Sim struct {
	cfg       Config
	gen       *workload.Generator
	srv       *server.Server
	nodes     []*node.Node
	collector *metrics.Collector
	lossRng   *rng.Rand
	// failAt[i] is when node i permanently fails; past the trace end
	// means never.
	failAt []simtime.Time
}

// New builds the simulation state for cfg.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(cfg.Workload)
	if err != nil {
		return nil, err
	}

	n := cfg.Trace.NodeCount
	internetCount := int(cfg.InternetFraction*float64(n) + 0.5)
	if internetCount < 1 {
		// The Internet is the sole file source; without access nodes the
		// DTN would be empty. Keep at least one.
		internetCount = 1
	}
	srv, err := server.New(internetCount)
	if err != nil {
		return nil, err
	}

	s := &Sim{
		cfg:       cfg,
		gen:       gen,
		srv:       srv,
		nodes:     make([]*node.Node, n),
		collector: metrics.NewCollector(),
	}

	r := rng.New(cfg.Seed)
	s.lossRng = r.Split()
	perm := r.Perm(n)
	internet := make(map[int]bool, internetCount)
	for _, idx := range perm[:internetCount] {
		internet[idx] = true
	}
	riderCount := int(cfg.FreeRiderFraction*float64(n) + 0.5)
	riders := make(map[int]bool, riderCount)
	for _, idx := range r.Perm(n)[:riderCount] {
		riders[idx] = true
	}

	// Churn: pick the failing nodes and their failure instants.
	never := cfg.Trace.End() + 1
	s.failAt = make([]simtime.Time, n)
	for i := range s.failAt {
		s.failAt[i] = never
	}
	failCount := int(cfg.NodeFailureRate*float64(n) + 0.5)
	span := int(cfg.Trace.End())
	if span < 1 {
		span = 1
	}
	for _, idx := range r.Perm(n)[:failCount] {
		s.failAt[idx] = simtime.Time(r.Intn(span))
	}

	freq := trace.NewStats(cfg.Trace).FrequentContacts(cfg.FrequentContactsPerDay)
	for i := range s.nodes {
		nd := node.New(trace.NodeID(i), internet[i])
		nd.FreeRider = riders[i]
		nd.SetFrequent(freq[trace.NodeID(i)])
		nd.SetLimits(node.Limits{
			MaxMetadata:    cfg.MetadataCapacity,
			MaxCachedFiles: cfg.PieceCacheCapacity,
		})
		if cfg.ChokeMinCredit > 0 {
			nd.ChokePolicy = &choke.Policy{
				MinCredit:       cfg.ChokeMinCredit,
				OptimisticEvery: cfg.ChokeOptimisticEvery,
			}
		}
		s.nodes[i] = nd
	}
	return s, nil
}

// Nodes exposes the node states (read-mostly; used by examples and
// tests).
func (s *Sim) Nodes() []*node.Node { return s.nodes }

// Collector exposes the metrics collector.
func (s *Sim) Collector() *metrics.Collector { return s.collector }

// Run executes the full simulation and returns its result. A Sim must
// only be run once.
func (s *Sim) Run() (*Result, error) {
	start := time.Now()
	// Everything that happens is known before the run starts: one
	// publication per day and the trace's sessions, both already in time
	// order, and simulated time is the instant of the event being handled.
	// Merge the two lists; a publication at the same instant as a session
	// comes first.
	sessions := s.cfg.Trace.Sessions
	for day := 0; day < s.cfg.Workload.Days; day++ {
		at := simtime.At(day, simtime.FileGenerationOffset)
		for len(sessions) > 0 && sessions[0].Start < at {
			s.handleSession(sessions[0])
			sessions = sessions[1:]
		}
		s.publishDay(day, at)
	}
	for _, sess := range sessions {
		s.handleSession(sess)
	}

	internetCount := 0
	for _, nd := range s.nodes {
		if nd.InternetAccess {
			internetCount++
		}
	}
	c := s.collector
	traffic := c.Traffic()
	return &Result{
		Variant:            s.cfg.Variant,
		Queries:            c.Queries(),
		MetadataDeliveries: c.MetadataDeliveries(),
		FileDeliveries:     c.FileDeliveries(),
		MetadataRatio:      c.MetadataRatio(),
		FileRatio:          c.FileRatio(),
		MeanMetadataDelay:  c.MeanMetadataDelay(),
		MeanFileDelay:      c.MeanFileDelay(),
		MetadataBroadcasts: traffic.MetadataBroadcasts,
		PieceBroadcasts:    traffic.PieceBroadcasts,
		InternetNodes:      internetCount,
		Sessions:           len(s.cfg.Trace.Sessions),
		Events:             s.cfg.Workload.Days + len(s.cfg.Trace.Sessions),
		Wall:               time.Since(start),
	}, nil
}

// Run builds and runs a simulation in one call.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// publishDay executes the 14:00 publication of one day's files: the
// server catalogs them, Internet-access nodes download what they want,
// and measured nodes generate queries for the files they are interested
// in.
func (s *Sim) publishDay(day int, now simtime.Time) {
	files := s.gen.FilesForDay(day)
	for _, f := range files {
		if err := s.srv.Publish(f.Meta); err != nil {
			// Generated metadata is valid by construction; a publish
			// failure is a programming error worth surfacing loudly.
			panic(fmt.Sprintf("core: publish day %d: %v", day, err))
		}
	}
	s.srv.Expire(now)

	for i, nd := range s.nodes {
		for _, f := range files {
			if !s.gen.Interested(i, f) {
				continue
			}
			if nd.InternetAccess {
				// Internet nodes download directly: metadata, then the
				// whole file (the paper grants them enough bandwidth).
				if err := s.srv.RecordRequest(now, f.Meta.URI, nd.ID); err != nil {
					panic(fmt.Sprintf("core: record request: %v", err))
				}
				nd.AddMetadata(f.Meta, f.Popularity, now)
				nd.Select(f.Meta.URI)
				nd.GrantFullFile(f.Meta.URI, f.Meta.NumPieces())
				continue
			}
			// Measured nodes only get a query; the DTN must do the rest.
			nd.AddQuery(workload.QueryFor(f), f.Meta.Expires)
			s.collector.QueryCreated(nd.ID, f.Meta.URI, now, f.Meta.Expires)
		}
	}

	// The server pushes the day's most popular metadata to Internet
	// nodes (MBT and MBT-Q; MBT-QM has no standalone metadata
	// distribution).
	if s.cfg.Variant != MBTQM && s.cfg.ServerPushTop > 0 {
		top := topByPopularity(files, s.cfg.ServerPushTop)
		for _, nd := range s.nodes {
			if !nd.InternetAccess {
				continue
			}
			for _, f := range top {
				nd.AddMetadata(f.Meta, f.Popularity, now)
			}
		}
	}

}

// topByPopularity returns up to k files in decreasing popularity.
func topByPopularity(files []*workload.File, k int) []*workload.File {
	sorted := make([]*workload.File, len(files))
	copy(sorted, files)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Popularity != sorted[j].Popularity {
			return sorted[i].Popularity > sorted[j].Popularity
		}
		return sorted[i].ID < sorted[j].ID
	})
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

// pullFromServer fetches best-matched metadata for each query into the
// gateway node's store.
func (s *Sim) pullFromServer(nd *node.Node, queries []string, now simtime.Time) {
	for _, q := range queries {
		for _, m := range s.srv.Query(now, q, serverQueryLimit) {
			pop := 0.0
			if f := s.gen.ByURI(m.URI); f != nil {
				pop = f.Popularity
			}
			nd.AddMetadata(m, pop, now)
		}
	}
}

// handleSession runs one contact: housekeeping, hello/query exchange,
// the discovery phase, user selection, and the download phase.
func (s *Sim) handleSession(sess trace.Session) {
	now := sess.Start
	members := make([]*node.Node, 0, len(sess.Nodes))
	for _, id := range sess.Nodes {
		if now >= s.failAt[id] {
			continue // the node has failed; it misses this contact
		}
		nd := s.nodes[id]
		nd.Expire(now)
		members = append(members, nd)
	}
	if len(members) < 2 {
		return
	}

	// Hello exchange: in MBT, nodes cache the queries of their frequent
	// contacts (LearnPeerQueries ignores non-frequent peers).
	if s.cfg.Variant == MBT {
		for _, a := range members {
			for _, b := range members {
				if a == b {
					continue
				}
				for q, exp := range b.ActiveQueryMap(now) {
					a.LearnPeerQueries(b.ID, []string{q}, exp)
				}
			}
		}
	}

	// Internet members are online and send the server "the query strings
	// they have" (§IV): under MBT that includes the queries cached from
	// their frequent contacts, so they fetch the matching metadata and
	// can relay it through the discovery phase. A non-Internet node's
	// query reaches the server only through such a caching frequent
	// contact — there is no live gateway for arbitrary bystanders.
	if s.cfg.Variant == MBT {
		for _, m := range members {
			if m.InternetAccess {
				s.pullFromServer(m, m.PeerQueries(now), now)
			}
		}
	}

	// Discovery phase (start of the contact, §V's observation that short
	// contacts suffice for metadata).
	if s.cfg.Variant != MBTQM && s.cfg.MetadataPerContact > 0 {
		events := discovery.Exchange(now, members, discovery.Config{
			Budget:            s.cfg.MetadataPerContact,
			QueryDistribution: s.cfg.Variant == MBT,
			TitForTat:         s.cfg.TitForTat,
			PopularityOnly:    s.cfg.PopularityOnlyOrdering,
			Loss:              s.cfg.BroadcastLossRate,
			Rng:               s.lossRng,
		})
		s.collector.MetadataBroadcasts += len(events)
		for _, ev := range events {
			s.collector.MetadataReceipts += len(ev.NewReceivers)
		}
	}
	s.reconcile(members, now)

	// Download phase for the remainder of the contact.
	budget := s.cfg.FilesPerContact * s.cfg.Workload.PiecesPerFile
	if budget > 0 {
		events := download.Exchange(now, members, download.Config{
			PieceBudget:       budget,
			TitForTat:         s.cfg.TitForTat,
			PiggybackMetadata: s.cfg.Variant == MBTQM,
			Loss:              s.cfg.BroadcastLossRate,
			Rng:               s.lossRng,
		})
		s.collector.PieceBroadcasts += len(events)
		for _, ev := range events {
			s.collector.PieceReceipts += len(ev.NewReceivers)
		}
	}
	s.reconcile(members, now)
}

// reconcile records deliveries and performs the user's metadata
// selection: any stored metadata matching an active query is counted as
// delivered and its file marked for download; completed wanted files are
// counted as file deliveries.
func (s *Sim) reconcile(members []*node.Node, now simtime.Time) {
	for _, m := range members {
		if m.InternetAccess {
			continue // not measured; their files arrived at publication
		}
		for _, q := range m.Queries(now) {
			for _, sm := range m.MatchingQuery(q) {
				s.collector.MetadataDelivered(m.ID, sm.Meta.URI, now)
				m.Select(sm.Meta.URI)
			}
		}
		for _, uri := range completeWanted(m) {
			s.collector.FileDelivered(m.ID, uri, now)
		}
	}
}

// completeWanted lists the wanted URIs whose downloads are complete.
func completeWanted(m *node.Node) []metadata.URI {
	var out []metadata.URI
	for _, uri := range m.PieceURIs() {
		ps := m.Pieces(uri)
		if ps.Want && ps.Complete() {
			out = append(out, uri)
		}
	}
	return out
}
