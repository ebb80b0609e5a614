// Package server implements the central metadata server on the Internet
// side of the hybrid DTN (§III-A, §IV).
//
// The server holds the metadata catalog, answers keyword queries with the
// best-matched metadata, maintains each metadata's popularity — defined by
// the paper as the fraction of Internet-access nodes that requested the
// file during the past 24 hours — and serves file pieces to nodes that are
// connected to the Internet.
package server

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/metadata"
	"repro/internal/search"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// PopularityWindow is the sliding window over which request popularity is
// measured: 24 hours, per the paper.
const PopularityWindow = simtime.Day

// Server is the Internet-side catalog and popularity authority. Construct
// with New; not safe for concurrent use (the simulator is
// single-threaded).
type Server struct {
	internetNodes int

	byURI   map[metadata.URI]*entry
	byDocID map[int]*entry
	index   *search.Index
	nextDoc int

	// requests holds (time, uri, node) records inside the window, oldest
	// first.
	requests []request
}

type entry struct {
	meta  *metadata.Metadata
	docID int
	// requesters tracks which Internet-access nodes requested the file
	// within the window (set semantics: a node counts once).
	requesters map[trace.NodeID]int
}

type request struct {
	at   simtime.Time
	uri  metadata.URI
	node trace.NodeID
}

// ErrUnknownURI reports a lookup or request for a file not in the
// catalog.
var ErrUnknownURI = errors.New("server: unknown URI")

// New returns an empty server. internetNodes is the number of
// Internet-access nodes in the population, the popularity denominator; it
// must be positive.
func New(internetNodes int) (*Server, error) {
	if internetNodes <= 0 {
		return nil, fmt.Errorf("server: internetNodes = %d must be positive", internetNodes)
	}
	return &Server{
		internetNodes: internetNodes,
		byURI:         make(map[metadata.URI]*entry),
		byDocID:       make(map[int]*entry),
		index:         search.NewIndex(),
	}, nil
}

// Publish adds metadata to the catalog. Re-publishing a URI replaces the
// record.
func (s *Server) Publish(m *metadata.Metadata) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("publish %q: %w", m.URI, err)
	}
	if old, ok := s.byURI[m.URI]; ok {
		s.index.Remove(old.docID)
		delete(s.byDocID, old.docID)
	}
	e := &entry{
		meta:       m.Clone(),
		docID:      s.nextDoc,
		requesters: make(map[trace.NodeID]int),
	}
	s.nextDoc++
	s.byURI[m.URI] = e
	s.byDocID[e.docID] = e
	s.index.Add(e.docID, m.SearchText())
	return nil
}

// Len returns the catalog size.
func (s *Server) Len() int { return len(s.byURI) }

// Lookup returns the metadata for uri.
func (s *Server) Lookup(uri metadata.URI) (*metadata.Metadata, error) {
	e, ok := s.byURI[uri]
	if !ok {
		return nil, fmt.Errorf("%q: %w", uri, ErrUnknownURI)
	}
	return e.meta, nil
}

// expireRequests drops records older than the window.
func (s *Server) expireRequests(now simtime.Time) {
	cut := 0
	for cut < len(s.requests) && now.Sub(s.requests[cut].at) > PopularityWindow {
		old := s.requests[cut]
		if e, ok := s.byURI[old.uri]; ok {
			if e.requesters[old.node]--; e.requesters[old.node] <= 0 {
				delete(e.requesters, old.node)
			}
		}
		cut++
	}
	s.requests = s.requests[cut:]
}

// RecordRequest notes that an Internet-access node requested the file at
// now, feeding the popularity estimate.
func (s *Server) RecordRequest(now simtime.Time, uri metadata.URI, node trace.NodeID) error {
	e, ok := s.byURI[uri]
	if !ok {
		return fmt.Errorf("%q: %w", uri, ErrUnknownURI)
	}
	s.expireRequests(now)
	s.requests = append(s.requests, request{at: now, uri: uri, node: node})
	e.requesters[node]++
	return nil
}

// Popularity returns the measured popularity of uri at now: the fraction
// of Internet-access nodes that requested it within the past 24 hours.
// Unknown URIs have zero popularity.
func (s *Server) Popularity(now simtime.Time, uri metadata.URI) float64 {
	s.expireRequests(now)
	e, ok := s.byURI[uri]
	if !ok {
		return 0
	}
	return float64(len(e.requesters)) / float64(s.internetNodes)
}

// Expire removes catalog entries whose TTL has passed.
func (s *Server) Expire(now simtime.Time) int {
	removed := 0
	for uri, e := range s.byURI {
		if e.meta.Expired(now) {
			s.index.Remove(e.docID)
			delete(s.byDocID, e.docID)
			delete(s.byURI, uri)
			removed++
		}
	}
	return removed
}

// Query returns up to limit best-matched, unexpired metadata for the
// keyword query, best first (most matched tokens, then measured
// popularity, then URI for determinism).
func (s *Server) Query(now simtime.Time, query string, limit int) []*metadata.Metadata {
	hits := s.index.Search(query, -1)
	type scored struct {
		e     *entry
		score float64
		pop   float64
	}
	var out []scored
	for _, h := range hits {
		e := s.byDocID[h.DocID]
		if e == nil || e.meta.Expired(now) {
			continue
		}
		out = append(out, scored{e: e, score: h.Score, pop: s.Popularity(now, e.meta.URI)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		if out[i].pop != out[j].pop {
			return out[i].pop > out[j].pop
		}
		return out[i].e.meta.URI < out[j].e.meta.URI
	})
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	result := make([]*metadata.Metadata, 0, len(out))
	for _, sc := range out {
		result = append(result, sc.e.meta)
	}
	if len(result) == 0 {
		return nil
	}
	return result
}

// Top returns up to limit unexpired metadata in decreasing measured
// popularity (ties by URI) — the server-side source for popularity-pushed
// metadata.
func (s *Server) Top(now simtime.Time, limit int) []*metadata.Metadata {
	type scored struct {
		m   *metadata.Metadata
		pop float64
	}
	var out []scored
	for uri, e := range s.byURI {
		if e.meta.Expired(now) {
			continue
		}
		out = append(out, scored{m: e.meta, pop: s.Popularity(now, uri)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pop != out[j].pop {
			return out[i].pop > out[j].pop
		}
		return out[i].m.URI < out[j].m.URI
	})
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	result := make([]*metadata.Metadata, 0, len(out))
	for _, sc := range out {
		result = append(result, sc.m)
	}
	if len(result) == 0 {
		return nil
	}
	return result
}

// StoredRecord pairs one catalog record with its measured popularity at
// the time of enumeration.
type StoredRecord struct {
	Meta       *metadata.Metadata
	Popularity float64
}

// Records enumerates the unexpired catalog with popularities, sorted by
// URI — the walk an Internet node's DHT publish loop takes when it
// pushes the whole catalog into the decentralized index.
func (s *Server) Records(now simtime.Time) []StoredRecord {
	out := make([]StoredRecord, 0, len(s.byURI))
	for uri, e := range s.byURI {
		if e.meta.Expired(now) {
			continue
		}
		out = append(out, StoredRecord{Meta: e.meta, Popularity: s.Popularity(now, uri)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.URI < out[j].Meta.URI })
	return out
}
