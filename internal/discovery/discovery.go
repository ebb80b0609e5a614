// Package discovery implements cooperative file discovery (§IV): the
// broadcast exchange of metadata within a clique of connected nodes.
//
// Each contact's discovery phase sends at most Budget metadata broadcasts.
// In the cooperative case the order is the paper's two-phase rule:
//
//	Phase 1: metadata matching the queries of connected nodes, those
//	         matching more nodes first, ties by decreasing popularity.
//	Phase 2: remaining metadata in decreasing popularity.
//
// With query distribution enabled (the full MBT protocol), a node's
// demand includes the cached queries of its frequent contacts, so nodes
// collect metadata on behalf of peers they meet often. In the tit-for-tat
// case senders take turns in the clique's agreed cyclic order and each
// weighs candidate metadata by the summed credit of the requesting nodes.
package discovery

import (
	"repro/internal/clique"
	"repro/internal/metadata"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Config controls one discovery exchange.
type Config struct {
	// Budget is the number of metadata broadcasts this contact may use.
	Budget int
	// QueryDistribution includes frequent-contact queries in each node's
	// demand (MBT); without it nodes pull only for their own queries
	// (MBT-Q).
	QueryDistribution bool
	// TitForTat switches from the cooperative coordinator ordering to
	// credit-weighted sending in cyclic order (§IV-B).
	TitForTat bool
	// PopularityOnly disables the two-phase request-aware ordering and
	// sends strictly by decreasing popularity — the ablation baseline
	// for the paper's phase-1 rule. Ignored under TitForTat.
	PopularityOnly bool
	// Loss is the per-receiver probability that a broadcast is not
	// decoded (lossy wireless). Requires Rng when positive.
	Loss float64
	// Rng drives loss draws; runs are deterministic given its state.
	Rng *rng.Rand
}

// dropped reports whether one receiver loses the current broadcast.
func (c Config) dropped() bool {
	return c.Loss > 0 && c.Rng != nil && c.Rng.Bool(c.Loss)
}

// Event records one metadata broadcast.
type Event struct {
	// Meta is the broadcast record.
	Meta *metadata.Metadata
	// Popularity is the advisory popularity sent along.
	Popularity float64
	// Sender transmitted the record.
	Sender trace.NodeID
	// NewReceivers stored the record for the first time.
	NewReceivers []trace.NodeID
	// MatchedOwn lists new receivers whose own active query matches the
	// record — a metadata delivery in the paper's metric.
	MatchedOwn []trace.NodeID
}

// Exchange runs the discovery phase of one contact among members and
// returns the broadcasts performed. Member state (stores, ledgers) is
// updated in place.
func Exchange(now simtime.Time, members []*node.Node, cfg Config) []Event {
	if cfg.Budget <= 0 || len(members) < 2 {
		return nil
	}
	if cfg.TitForTat {
		return exchangeTFT(now, members, cfg)
	}
	return exchangeCooperative(now, members, cfg)
}

// contact adapts the members' metadata stores to the scheduling rule's
// view: each record is a one-piece file, held by the members storing it
// and asked for by the lacking members whose queries it matches.
type contact struct {
	byID map[trace.NodeID]*node.Node
	// records is the richest (highest advisory popularity) unexpired
	// copy of each record any member holds.
	records map[metadata.URI]*node.StoredMetadata
	views   []sched.Member
}

func stored(int) bool { return true }

// viewContact builds the view. Under the popularity-only ablation the
// records carry no requests and the rule degenerates to popularity
// order.
func viewContact(now simtime.Time, members []*node.Node, cfg Config) *contact {
	demand := cfg.TitForTat || !cfg.PopularityOnly
	q := &contact{
		byID:    make(map[trace.NodeID]*node.Node, len(members)),
		records: make(map[metadata.URI]*node.StoredMetadata),
	}
	for _, m := range members {
		q.byID[m.ID] = m
		for _, sm := range m.MetadataStore() {
			if sm.Meta.Expired(now) {
				continue
			}
			if best := q.records[sm.Meta.URI]; best == nil || sm.Popularity > best.Popularity {
				q.records[sm.Meta.URI] = sm
			}
		}
	}
	for _, m := range members {
		// A member pulls for its own queries, plus the cached queries of
		// its frequent contacts when query distribution is on.
		var own, carried []string
		if demand {
			own = m.Queries(now)
			if cfg.QueryDistribution {
				carried = m.PeerQueries(now)
			}
		}
		v := sched.Member{ID: m.ID, MaySend: !m.FreeRider}
		for uri, sm := range q.records {
			f := sched.File{URI: uri, Total: 1}
			switch cur := m.Metadata(uri); {
			case cur == nil:
				f.Wanted = matchesAny(sm.Meta, own)
				f.Proxy = !f.Wanted && matchesAny(sm.Meta, carried)
			case cur.Meta.Expired(now):
				continue // an expired copy: neither offered nor asked for
			default:
				f.Have = stored
			}
			v.Files = append(v.Files, f)
		}
		q.views = append(q.views, v)
	}
	return q
}

func (q *contact) popularity(uri metadata.URI) float64 { return q.records[uri].Popularity }

func matchesAny(rec *metadata.Metadata, queries []string) bool {
	for _, qs := range queries {
		if rec.MatchesQuery(qs) {
			return true
		}
	}
	return false
}

// broadcast delivers c from sender to every lacker, updating stores,
// credits and the event record. Only a receiver's own queries make the
// record a delivery (and a requested item for credit); proxy demand
// does not.
func (q *contact) broadcast(now simtime.Time, c *sched.Candidate, sender *node.Node, cfg Config) Event {
	sm := q.records[c.URI]
	ev := Event{
		Meta:       sm.Meta,
		Popularity: sm.Popularity,
		Sender:     sender.ID,
	}
	for _, id := range c.Lackers {
		m := q.byID[id]
		if cfg.dropped() {
			continue
		}
		if !m.AddMetadata(sm.Meta, sm.Popularity, now) {
			continue
		}
		ev.NewReceivers = append(ev.NewReceivers, id)
		if matchesAny(sm.Meta, m.Queries(now)) {
			ev.MatchedOwn = append(ev.MatchedOwn, id)
			m.Ledger.RewardRequested(sender.ID)
		} else {
			m.Ledger.RewardUnrequested(sender.ID, sm.Popularity)
		}
	}
	return ev
}

// exchangeCooperative is the altruistic two-phase ordering (§IV-A).
// Present members' own demand outranks carried (proxy) demand, so query
// distribution only ever spends leftover budget: it adds coverage for
// absent frequent contacts without displacing the deliveries this
// contact could make directly.
func exchangeCooperative(now simtime.Time, members []*node.Node, cfg Config) []Event {
	q := viewContact(now, members, cfg)
	var events []Event
	for _, c := range sched.Candidates(q.views, q.popularity, nil) {
		if len(events) >= cfg.Budget {
			break
		}
		if c.Sender == sched.NoSender {
			continue
		}
		if ev := q.broadcast(now, c, q.byID[c.Sender], cfg); len(ev.NewReceivers) > 0 {
			events = append(events, ev)
		}
	}
	return events
}

// exchangeTFT is the selfish-tolerant variant (§IV-B): senders rotate in
// the clique's deterministic cyclic order; each sender broadcasts the
// record it holds that ranks first when requests weigh their
// requesters' summed credit in the sender's own ledger, falling back to
// popularity pushes. Requests from zero-credit peers add nothing — that
// is the incentive: a sender gains standing by serving proven
// contributors or by pushing popular records, never by serving
// free-riders.
func exchangeTFT(now simtime.Time, members []*node.Node, cfg Config) []Event {
	ids := make([]trace.NodeID, len(members))
	for i, m := range members {
		ids[i] = m.ID
	}
	order := clique.CyclicOrder(ids)

	q := viewContact(now, members, cfg)
	var events []Event
	sent := make(map[metadata.URI]bool)
	idle := 0
	for turn := 0; len(events) < cfg.Budget && idle < len(order); turn++ {
		sender := q.byID[order[turn%len(order)]]
		if sender.FreeRider {
			idle++
			continue
		}
		var c *sched.Candidate
		for _, cand := range sched.Candidates(q.views, q.popularity, sender.Ledger.WeightRequest) {
			if !sent[cand.URI] && cand.HeldBy(sender.ID) {
				c = cand
				break
			}
		}
		if c == nil {
			idle++
			continue
		}
		idle = 0
		sent[c.URI] = true
		if ev := q.broadcast(now, c, sender, cfg); len(ev.NewReceivers) > 0 {
			events = append(events, ev)
		}
		q = viewContact(now, members, cfg) // the broadcast moved state
	}
	return events
}
