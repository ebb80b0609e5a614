// Package node holds the per-node protocol state: the metadata store the
// discovery process fills, the piece store the download process fills,
// the node's active queries, the cached queries of its frequent contacts
// (the "query distribution" that distinguishes MBT from MBT-Q), and the
// tit-for-tat credit ledger.
package node

import (
	"sort"

	"repro/internal/choke"
	"repro/internal/credit"
	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// StoredMetadata is a metadata record held by a node together with the
// advisory popularity it was last told.
type StoredMetadata struct {
	Meta *metadata.Metadata
	// Popularity is the latest popularity value learned for the file
	// (from the server directly or relayed by peers).
	Popularity float64
	// ReceivedAt is when the node first stored the record.
	ReceivedAt simtime.Time
}

// PieceSet tracks download progress for one file. The held pieces are
// one bit each, piece i at bit i%8 of byte i/8 — the form the live
// hellos carry, so advertising a download copies the set instead of
// walking it.
type PieceSet struct {
	// Want is true once the node's user selected the file for download.
	Want  bool
	total int
	bits  []byte
	n     int
}

func newPieceSet(total int) *PieceSet {
	return &PieceSet{total: total, bits: make([]byte, (total+7)/8)}
}

// Total returns the file's piece count.
func (p *PieceSet) Total() int { return p.total }

// Have reports whether piece i is stored.
func (p *PieceSet) Have(i int) bool {
	return i >= 0 && i < p.total && p.bits[i/8]&(1<<(i%8)) != 0
}

// Count returns the number of stored pieces.
func (p *PieceSet) Count() int { return p.n }

// Complete reports whether every piece is stored.
func (p *PieceSet) Complete() bool { return p.total > 0 && p.n == p.total }

// Bitmap is the held set as Total bits, shared with the set: callers
// read or copy it, never write.
func (p *PieceSet) Bitmap() []byte { return p.bits }

// Missing returns the indices of absent pieces.
func (p *PieceSet) Missing() []int {
	var out []int
	for i := 0; i < p.total; i++ {
		if !p.Have(i) {
			out = append(out, i)
		}
	}
	return out
}

// add stores piece i, reporting whether it was new.
func (p *PieceSet) add(i int) bool {
	if i < 0 || i >= p.total || p.Have(i) {
		return false
	}
	p.bits[i/8] |= 1 << (i % 8)
	p.n++
	return true
}

// Node is one participant in the hybrid DTN.
type Node struct {
	// ID is the node's trace identity.
	ID trace.NodeID
	// InternetAccess marks nodes that can reach the Internet directly.
	InternetAccess bool
	// FreeRider marks nodes that never transmit (tit-for-tat
	// experiments); they still receive broadcasts.
	FreeRider bool
	// Ledger is the node's tit-for-tat credit table.
	Ledger *credit.Ledger
	// ChokePolicy, when set, encrypts this node's piece broadcasts and
	// hands content keys only to unchoked peers (the paper's footnote-1
	// extension). nil broadcasts in the clear.
	ChokePolicy *choke.Policy

	queries     map[string]simtime.Time // query -> expiry
	peerQueries map[trace.NodeID]map[string]simtime.Time
	store       map[metadata.URI]*StoredMetadata
	pieces      map[metadata.URI]*PieceSet
	frequent    map[trace.NodeID]bool
	limits      Limits
}

// New returns an empty node.
func New(id trace.NodeID, internetAccess bool) *Node {
	return &Node{
		ID:             id,
		InternetAccess: internetAccess,
		Ledger:         credit.NewLedger(),
		queries:        make(map[string]simtime.Time),
		peerQueries:    make(map[trace.NodeID]map[string]simtime.Time),
		store:          make(map[metadata.URI]*StoredMetadata),
		pieces:         make(map[metadata.URI]*PieceSet),
		frequent:       make(map[trace.NodeID]bool),
	}
}

// SetFrequent records the node's frequent contacts (derived from trace
// statistics); only their queries are cached for cooperative discovery.
func (n *Node) SetFrequent(peers []trace.NodeID) {
	n.frequent = make(map[trace.NodeID]bool, len(peers))
	for _, p := range peers {
		n.frequent[p] = true
	}
}

// IsFrequent reports whether peer is a frequent contact.
func (n *Node) IsFrequent(peer trace.NodeID) bool { return n.frequent[peer] }

// AddQuery registers an active query until expiry, keeping the later
// expiry when q is already registered. It reports whether the query set
// changed, i.e. q was not in it.
func (n *Node) AddQuery(q string, expiry simtime.Time) (added bool) {
	cur, ok := n.queries[q]
	if !ok || expiry > cur {
		n.queries[q] = expiry
	}
	return !ok
}

// Queries returns the node's unexpired queries, sorted for determinism.
func (n *Node) Queries(now simtime.Time) []string {
	var out []string
	for q, exp := range n.queries {
		if now < exp {
			out = append(out, q)
		}
	}
	sort.Strings(out)
	return out
}

// ActiveQueryMap returns a copy of the unexpired queries with their
// expiries, for relaying to peers in hello messages.
func (n *Node) ActiveQueryMap(now simtime.Time) map[string]simtime.Time {
	out := make(map[string]simtime.Time)
	for q, exp := range n.queries {
		if now < exp {
			out[q] = exp
		}
	}
	return out
}

// LearnPeerQueries caches a frequent contact's queries so this node can
// collect metadata on the peer's behalf (MBT's query distribution).
// Queries from non-frequent peers are ignored, mirroring the paper: nodes
// store the query strings of their most frequently connected nodes.
func (n *Node) LearnPeerQueries(peer trace.NodeID, queries []string, expiry simtime.Time) {
	if !n.frequent[peer] {
		return
	}
	m := n.peerQueries[peer]
	if m == nil {
		m = make(map[string]simtime.Time)
		n.peerQueries[peer] = m
	}
	for _, q := range queries {
		if cur, ok := m[q]; !ok || expiry > cur {
			m[q] = expiry
		}
	}
}

// PeerQueries returns the cached unexpired queries of frequent contacts,
// sorted for determinism.
func (n *Node) PeerQueries(now simtime.Time) []string {
	var out []string
	seen := make(map[string]bool)
	for _, m := range n.peerQueries {
		for q, exp := range m {
			if now < exp && !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	sort.Strings(out)
	return out
}

// AddMetadata stores a metadata record with its advisory popularity,
// reporting whether the URI was new to the node. Expired records are
// rejected. Higher popularity values refresh stored records.
func (n *Node) AddMetadata(m *metadata.Metadata, popularity float64, now simtime.Time) bool {
	if m.Expired(now) {
		return false
	}
	if cur, ok := n.store[m.URI]; ok {
		if popularity > cur.Popularity {
			cur.Popularity = popularity
		}
		return false
	}
	n.store[m.URI] = &StoredMetadata{
		Meta:       m.Clone(),
		Popularity: popularity,
		ReceivedAt: now,
	}
	n.enforceMetadataLimit()
	// Eviction may have rejected the newcomer itself.
	return n.store[m.URI] != nil
}

// Metadata returns the stored record for uri, or nil.
func (n *Node) Metadata(uri metadata.URI) *StoredMetadata { return n.store[uri] }

// HasMetadata reports whether uri's metadata is stored.
func (n *Node) HasMetadata(uri metadata.URI) bool { return n.store[uri] != nil }

// MetadataStore returns all stored records sorted by URI.
func (n *Node) MetadataStore() []*StoredMetadata {
	out := make([]*StoredMetadata, 0, len(n.store))
	for _, sm := range n.store {
		out = append(out, sm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.URI < out[j].Meta.URI })
	return out
}

// MatchingQuery returns stored records matching the query, sorted by
// decreasing popularity then URI — the "sorted list of matched metadata"
// the user sees.
func (n *Node) MatchingQuery(query string) []*StoredMetadata {
	var out []*StoredMetadata
	for _, sm := range n.store {
		if sm.Meta.MatchesQuery(query) {
			out = append(out, sm)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Popularity != out[j].Popularity {
			return out[i].Popularity > out[j].Popularity
		}
		return out[i].Meta.URI < out[j].Meta.URI
	})
	return out
}

// Select marks uri's file for download (the user picked its metadata).
// It is a no-op without stored metadata.
func (n *Node) Select(uri metadata.URI) bool {
	sm := n.store[uri]
	if sm == nil {
		return false
	}
	ps := n.ensurePieces(uri, sm.Meta.NumPieces())
	ps.Want = true
	return true
}

func (n *Node) ensurePieces(uri metadata.URI, pieces int) *PieceSet {
	ps := n.pieces[uri]
	if ps == nil {
		ps = newPieceSet(pieces)
		n.pieces[uri] = ps
	}
	return ps
}

// Pieces returns the piece set for uri, or nil.
func (n *Node) Pieces(uri metadata.URI) *PieceSet { return n.pieces[uri] }

// AddPiece stores piece i of uri, reporting whether it was new. Pieces
// can be cached for files the node has no metadata for only when the
// piece count is known from the carried metadata; callers pass total for
// that purpose.
func (n *Node) AddPiece(uri metadata.URI, i, total int) bool {
	ps := n.ensurePieces(uri, total)
	added := ps.add(i)
	if added && !ps.Want {
		n.enforcePieceLimit()
		// Eviction may have rejected the newcomer's cache entry.
		added = n.pieces[uri] != nil
	}
	return added
}

// GrantFullFile stores every piece (Internet download).
func (n *Node) GrantFullFile(uri metadata.URI, total int) {
	ps := n.ensurePieces(uri, total)
	for i := 0; i < total; i++ {
		ps.add(i)
	}
}

// PieceURIs returns every URI with a piece set, sorted.
func (n *Node) PieceURIs() []metadata.URI {
	out := make([]metadata.URI, 0, len(n.pieces))
	for uri := range n.pieces {
		out = append(out, uri)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasFullFile reports whether all pieces of uri are stored.
func (n *Node) HasFullFile(uri metadata.URI) bool {
	ps := n.pieces[uri]
	return ps != nil && ps.Complete()
}

// WantedIncomplete returns the URIs the node wants and has not completed,
// sorted.
func (n *Node) WantedIncomplete() []metadata.URI {
	var out []metadata.URI
	for uri, ps := range n.pieces {
		if ps.Want && !ps.Complete() {
			out = append(out, uri)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Expire drops expired metadata and queries; piece sets of files whose
// metadata expired are kept only if complete (a finished download remains
// useful to its owner, but the node stops advertising or wanting it).
func (n *Node) Expire(now simtime.Time) {
	for q, exp := range n.queries {
		if now >= exp {
			delete(n.queries, q)
		}
	}
	for _, m := range n.peerQueries {
		for q, exp := range m {
			if now >= exp {
				delete(m, q)
			}
		}
	}
	for uri, sm := range n.store {
		if sm.Meta.Expired(now) {
			delete(n.store, uri)
			if ps := n.pieces[uri]; ps != nil && !ps.Complete() {
				delete(n.pieces, uri)
			}
		}
	}
}
