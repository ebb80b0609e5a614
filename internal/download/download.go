// Package download implements broadcast-based file download (§V): within
// a clique, exactly one node transmits a file piece at a time while every
// other member receives it, so a single transmission can serve many
// downloaders at once.
//
// In the cooperative case (§V-A) the clique's coordinator orders pieces in
// two phases: pieces requested by more members first (ties by decreasing
// file popularity), then unrequested pieces in decreasing popularity. In
// the tit-for-tat case (§V-B) there is no coordinator — a selfish one
// could bias the schedule — so members transmit in the agreed-upon cyclic
// order, each weighing candidate pieces by the summed credit of their
// requesters.
//
// With Config.PiggybackMetadata set, pieces travel with their file's
// metadata, so a receiver can identify, verify and — if the file matches
// one of its queries — discover it. That is the MBT-QM baseline's only
// metadata channel (it has no standalone metadata distribution, like the
// prior content-distribution systems the paper compares against); MBT and
// MBT-Q leave it off and rely on the discovery phase instead.
package download

import (
	"repro/internal/clique"
	"repro/internal/metadata"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Config controls one download exchange.
type Config struct {
	// PieceBudget is the number of piece broadcasts this contact may use.
	PieceBudget int
	// TitForTat switches from coordinator scheduling to cyclic-order
	// credit-weighted sending.
	TitForTat bool
	// PiggybackMetadata attaches the file's metadata to each piece
	// broadcast. This is how MBT-QM — which has no standalone metadata
	// distribution, like the prior content-distribution systems — lets
	// receivers identify and verify content; MBT and MBT-Q distribute
	// metadata exclusively through the discovery phase.
	PiggybackMetadata bool
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

// Event records one piece broadcast.
type Event struct {
	// URI identifies the file; Piece the piece index.
	URI   metadata.URI
	Piece int
	// Sender transmitted the piece.
	Sender trace.NodeID
	// NewReceivers stored the piece for the first time.
	NewReceivers []trace.NodeID
	// Completed lists receivers whose wanted file became complete.
	Completed []trace.NodeID
	// MetaDelivered lists receivers who got the piggybacked metadata as
	// new and whose own query matches it (a metadata delivery).
	MetaDelivered []trace.NodeID
}

// Exchange runs the download phase of one contact among members,
// returning the broadcasts performed. Member state is updated in place.
func Exchange(now simtime.Time, members []*node.Node, cfg Config) []Event {
	if cfg.PieceBudget <= 0 || len(members) < 2 {
		return nil
	}
	if cfg.TitForTat {
		return exchangeTFT(now, members, cfg)
	}
	return exchangeCoordinator(now, members, cfg)
}

// contact adapts the members' state to the scheduling rule's view. The
// simulator hears everything in the clique, so every member takes part
// in every file known to any of them: a member without a piece set is a
// lacker like any other and receives pushes.
type contact struct {
	byID map[trace.NodeID]*node.Node
	// total and meta are per file: the piece count, and the richest
	// unexpired metadata any member holds (nil for cached pushes whose
	// metadata nobody present has).
	total map[metadata.URI]int
	meta  map[metadata.URI]*node.StoredMetadata
	views []sched.Member
}

func viewContact(now simtime.Time, members []*node.Node) *contact {
	q := &contact{
		byID:  make(map[trace.NodeID]*node.Node, len(members)),
		total: make(map[metadata.URI]int),
		meta:  make(map[metadata.URI]*node.StoredMetadata),
	}
	for _, m := range members {
		q.byID[m.ID] = m
		for _, sm := range m.MetadataStore() {
			if sm.Meta.Expired(now) {
				continue
			}
			q.total[sm.Meta.URI] = sm.Meta.NumPieces()
			if best := q.meta[sm.Meta.URI]; best == nil || sm.Popularity > best.Popularity {
				q.meta[sm.Meta.URI] = sm
			}
		}
	}
	for _, m := range members {
		for _, uri := range m.PieceURIs() {
			if _, ok := q.total[uri]; !ok {
				q.total[uri] = m.Pieces(uri).Total()
			}
		}
	}
	for _, m := range members {
		v := sched.Member{ID: m.ID, MaySend: !m.FreeRider, Files: make([]sched.File, 0, len(q.total))}
		for uri, total := range q.total {
			f := sched.File{URI: uri, Total: total}
			if ps := m.Pieces(uri); ps != nil {
				f.Wanted, f.Have = ps.Want, ps.Have
			}
			v.Files = append(v.Files, f)
		}
		q.views = append(q.views, v)
	}
	return q
}

func (q *contact) popularity(uri metadata.URI) float64 {
	if sm := q.meta[uri]; sm != nil {
		return sm.Popularity
	}
	return 0
}

// broadcast transmits c from sender to all lackers.
func (q *contact) broadcast(now simtime.Time, c *sched.Candidate, sender *node.Node, cfg Config) Event {
	ev := Event{URI: c.URI, Piece: c.Piece, Sender: sender.ID}
	// Prefer the sender's own metadata for the piggyback; fall back to
	// the clique's best.
	var sm *node.StoredMetadata
	if cfg.PiggybackMetadata {
		sm = sender.Metadata(c.URI)
		if sm == nil {
			sm = q.meta[c.URI]
		}
	}
	// Choking (footnote-1 extension): a sender with a choke policy
	// encrypts the broadcast and hands the content key only to unchoked
	// peers; everyone else hears undecipherable bytes.
	var unchoked map[trace.NodeID]bool
	if sender.ChokePolicy != nil {
		unchoked = make(map[trace.NodeID]bool)
		for _, id := range sender.ChokePolicy.Unchoked(sender.Ledger, c.Lackers) {
			unchoked[id] = true
		}
	}
	for _, id := range c.Lackers {
		m := q.byID[id]
		if unchoked != nil && !unchoked[id] {
			continue
		}
		if cfg.dropped() {
			continue
		}
		if sm != nil && m.AddMetadata(sm.Meta, sm.Popularity, now) {
			for _, qs := range m.Queries(now) {
				if sm.Meta.MatchesQuery(qs) {
					ev.MetaDelivered = append(ev.MetaDelivered, id)
					break
				}
			}
		}
		if !m.AddPiece(c.URI, c.Piece, c.Total) {
			continue
		}
		ev.NewReceivers = append(ev.NewReceivers, id)
		ps := m.Pieces(c.URI)
		wanted := ps.Want
		if wanted {
			m.Ledger.RewardRequested(sender.ID)
		} else {
			m.Ledger.RewardUnrequested(sender.ID, c.Popularity)
		}
		if wanted && ps.Complete() {
			ev.Completed = append(ev.Completed, id)
		}
	}
	return ev
}

// exchangeCoordinator is the cooperative two-phase schedule (§V-A): the
// coordinator (lowest ID, elected identically by every member) sends the
// pieces in the rule's order, each from its lowest-ID willing holder.
func exchangeCoordinator(now simtime.Time, members []*node.Node, cfg Config) []Event {
	q := viewContact(now, members)
	var events []Event
	for _, c := range sched.Candidates(q.views, q.popularity, nil) {
		if len(events) >= cfg.PieceBudget {
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

// exchangeTFT rotates senders in the deterministic cyclic order; each
// sender broadcasts the piece it holds that ranks first when requests
// weigh their requesters' summed credit in the sender's own ledger.
// Zero-credit requests carry no weight — see the discovery package's
// rationale.
func exchangeTFT(now simtime.Time, members []*node.Node, cfg Config) []Event {
	ids := make([]trace.NodeID, len(members))
	for i, m := range members {
		ids[i] = m.ID
	}
	order := clique.CyclicOrder(ids)

	q := viewContact(now, members)
	var events []Event
	idle := 0
	for turn := 0; len(events) < cfg.PieceBudget && idle < len(order); turn++ {
		sender := q.byID[order[turn%len(order)]]
		if sender.FreeRider {
			idle++
			continue
		}
		var c *sched.Candidate
		for _, cand := range sched.Candidates(q.views, q.popularity, sender.Ledger.WeightRequest) {
			if cand.HeldBy(sender.ID) {
				c = cand
				break
			}
		}
		if c == nil {
			idle++
			continue
		}
		idle = 0
		if ev := q.broadcast(now, c, sender, cfg); len(ev.NewReceivers) > 0 {
			events = append(events, ev)
		} else {
			idle++
		}
		q = viewContact(now, members) // the broadcast moved state
	}
	return events
}
