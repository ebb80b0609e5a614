// Package sched is the paper's one scheduling rule (§IV-A/§V-A, and
// §IV-B/§V-B under tit-for-tat), shared by the simulator's discovery
// and download exchanges and by the live broadcast group.
//
// Among co-located members, an item — a file piece, or a metadata
// record treated as a one-piece file — is transferable when some member
// holds it and some member lacks it. Transferable items go out in this
// order: items more lacking members ask for first, then by decreasing
// file popularity (which also orders the unrequested pushes), with URI
// and piece index as the final tie-break so every member computes the
// same schedule. Demand a member carries for an absent frequent contact
// (MBT's query distribution) counts, but never outranks demand a
// present member has itself. Under tit-for-tat the count of requesters
// is replaced by their summed credit in the sender's ledger.
//
// The package is pure: callers hand in a view of the members' state and
// get the ordered transmissions back; delivery, credit, loss and
// regrant handling stay with the callers.
package sched

import (
	"sort"

	"repro/internal/metadata"
	"repro/internal/trace"
)

// NoSender is Candidate.Sender when no holder may transmit.
const NoSender trace.NodeID = -1

// File is one member's state for one file.
type File struct {
	URI   metadata.URI
	Total int
	// Wanted marks the member's own demand; Proxy marks demand it
	// carries for a frequent contact.
	Wanted, Proxy bool
	// Have reports whether the member holds piece i; nil holds nothing.
	Have func(i int) bool
}

// Member is one clique member as the rule sees it. A member takes part
// in a file — as holder or lacker — only if Files lists it.
type Member struct {
	ID trace.NodeID
	// MaySend is false for members that never transmit (free-riders).
	MaySend bool
	Files   []File
}

// Rank is the key the rule orders by.
type Rank struct {
	// Own counts lacking members asking for themselves.
	Own int
	// Demand counts all lacking members asking, proxy demand included —
	// or, under tit-for-tat, is their summed credit.
	Demand     float64
	Popularity float64
	URI        metadata.URI
	Piece      int
}

// Before reports whether a is transmitted before b. It is a strict
// total order over distinct (URI, Piece) pairs.
func (a Rank) Before(b Rank) bool {
	if a.Own != b.Own {
		return a.Own > b.Own
	}
	if a.Demand != b.Demand {
		return a.Demand > b.Demand
	}
	if a.Popularity != b.Popularity {
		return a.Popularity > b.Popularity
	}
	if a.URI != b.URI {
		return a.URI < b.URI
	}
	return a.Piece < b.Piece
}

// Candidate is one transferable piece. The ID lists are ascending.
type Candidate struct {
	Rank
	Total int
	// Sender is the lowest-ID holder that may send, or NoSender.
	Sender  trace.NodeID
	Holders []trace.NodeID
	Lackers []trace.NodeID
}

// HeldBy reports whether id holds the piece.
func (c *Candidate) HeldBy(id trace.NodeID) bool {
	i := sort.Search(len(c.Holders), func(i int) bool { return c.Holders[i] >= id })
	return i < len(c.Holders) && c.Holders[i] == id
}

// Candidates enumerates the transferable pieces among members in
// transmission order. popularity supplies the per-file tie-break. A nil
// weight counts requesters; otherwise weight is the sender's credit
// ledger and replaces both counts with the requesters' summed credit.
// The result does not depend on the order of members.
func Candidates(members []Member, popularity func(metadata.URI) float64,
	weight func(requesters []trace.NodeID) float64) []*Candidate {
	sorted := append([]Member(nil), members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	type listing struct {
		m *Member
		f *File
	}
	byURI := make(map[metadata.URI][]listing)
	for i := range sorted {
		m := &sorted[i]
		for j := range m.Files {
			f := &m.Files[j]
			byURI[f.URI] = append(byURI[f.URI], listing{m, f})
		}
	}

	var out []*Candidate
	var holders, lackers, requesters []trace.NodeID // scratch, reused per piece
	for uri, ls := range byURI {
		total := 0
		for _, l := range ls {
			if l.f.Total > total {
				total = l.f.Total
			}
		}
		pop := popularity(uri)
		for i := 0; i < total; i++ {
			holders, lackers, requesters = holders[:0], lackers[:0], requesters[:0]
			sender, own := NoSender, 0
			for _, l := range ls {
				if l.f.Have != nil && l.f.Have(i) {
					holders = append(holders, l.m.ID)
					if sender == NoSender && l.m.MaySend {
						sender = l.m.ID
					}
					continue
				}
				lackers = append(lackers, l.m.ID)
				if l.f.Wanted {
					own++
				}
				if l.f.Wanted || l.f.Proxy {
					requesters = append(requesters, l.m.ID)
				}
			}
			if len(holders) == 0 || len(lackers) == 0 {
				continue
			}
			c := &Candidate{
				Rank:    Rank{Own: own, Demand: float64(len(requesters)), Popularity: pop, URI: uri, Piece: i},
				Total:   total,
				Sender:  sender,
				Holders: append([]trace.NodeID(nil), holders...),
				Lackers: append([]trace.NodeID(nil), lackers...),
			}
			if weight != nil {
				c.Own, c.Demand = 0, weight(requesters)
			}
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank.Before(out[j].Rank) })
	return out
}
