// The record store: a bounded local cache of keyword→metadata records.
// Capacity pressure evicts the lowest-popularity record (ties: the one
// stored longest ago) — the popularity-ranked retention that keeps the
// records DTN-side peers most often ask for on the nodes that carry DHT
// state out of Internet range. Every record carries the absolute expiry
// its publisher stamped; the publisher keeps it alive by republishing
// with a later stamp, and nothing else can move it.
package dht

import (
	"time"

	"repro/internal/metadata"
	"repro/internal/wire"
)

// Record is one stored value with its bookkeeping.
type Record struct {
	Key     Key
	Keyword string
	Meta    wire.Metadata
	Expires time.Time
	Stored  time.Time
}

// Store is the bounded record cache. Not safe for concurrent use; the
// Engine serializes access.
type Store struct {
	cap     int
	byKey   map[Key]map[metadata.URI]*Record
	count   int
	evicted uint64
}

// NewStore returns a cache bounded to cap records (0 means a default of
// 1024).
func NewStore(cap int) *Store {
	if cap <= 0 {
		cap = 1024
	}
	return &Store{cap: cap, byKey: make(map[Key]map[metadata.URI]*Record)}
}

// Len returns the number of stored records.
func (s *Store) Len() int { return s.count }

// Evicted returns how many records capacity pressure has pushed out.
func (s *Store) Evicted() uint64 { return s.evicted }

// Put stores one record under key until expires, replacing any record
// for the same (key, URI) pair; a record already expired at now is
// dropped. Of two stamps for one record the later survives: a republish
// moves the expiry forward, a late or duplicated older store cannot pull
// it back — and since stamps are absolute, neither can revive a record
// past its time. When the cache is full the lowest-popularity record is
// evicted first; an incoming record less popular than everything stored
// still enters (it may be the only copy reachable on this side of the
// network) and becomes the next eviction candidate.
func (s *Store) Put(key Key, keyword string, meta wire.Metadata, expires, now time.Time) {
	if !expires.After(now) {
		return
	}
	uri := meta.Record.URI
	if recs := s.byKey[key]; recs != nil {
		if old := recs[uri]; old != nil {
			old.Keyword = keyword
			old.Meta = meta
			if expires.After(old.Expires) {
				old.Expires = expires
			}
			old.Stored = now
			return
		}
	}
	for s.count >= s.cap {
		s.evictOne()
	}
	recs := s.byKey[key]
	if recs == nil {
		recs = make(map[metadata.URI]*Record)
		s.byKey[key] = recs
	}
	recs[uri] = &Record{
		Key: key, Keyword: keyword, Meta: meta,
		Expires: expires, Stored: now,
	}
	s.count++
}

// evictOne removes the lowest-popularity record, ties broken by oldest
// store time, then by URI for determinism.
func (s *Store) evictOne() {
	var victim *Record
	for _, recs := range s.byKey {
		for _, r := range recs {
			if victim == nil || worseThan(r, victim) {
				victim = r
			}
		}
	}
	if victim == nil {
		return
	}
	s.remove(victim)
	s.evicted++
}

func worseThan(a, b *Record) bool {
	if a.Meta.Popularity != b.Meta.Popularity {
		return a.Meta.Popularity < b.Meta.Popularity
	}
	if !a.Stored.Equal(b.Stored) {
		return a.Stored.Before(b.Stored)
	}
	return a.Meta.Record.URI < b.Meta.Record.URI
}

func (s *Store) remove(r *Record) {
	recs := s.byKey[r.Key]
	if recs == nil {
		return
	}
	if _, ok := recs[r.Meta.Record.URI]; !ok {
		return
	}
	delete(recs, r.Meta.Record.URI)
	if len(recs) == 0 {
		delete(s.byKey, r.Key)
	}
	s.count--
}

// Get returns the unexpired records stored under key as wire values
// carrying their stored expiry unchanged, most popular first.
func (s *Store) Get(key Key, now time.Time) []wire.DHTValue {
	recs := s.byKey[key]
	if len(recs) == 0 {
		return nil
	}
	var live []*Record
	for _, r := range recs {
		if r.Expires.After(now) {
			live = append(live, r)
		}
	}
	// Most popular first, ties by URI for determinism.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && worseThan(live[j-1], live[j]); j-- {
			live[j-1], live[j] = live[j], live[j-1]
		}
	}
	out := make([]wire.DHTValue, len(live))
	for i, r := range live {
		out[i] = wire.DHTValue{
			Keyword:          r.Keyword,
			ExpiresUnixMilli: r.Expires.UnixMilli(),
			Meta:             r.Meta,
		}
	}
	return out
}

// Sweep drops expired records and returns how many were removed.
func (s *Store) Sweep(now time.Time) int {
	var dead []*Record
	for _, recs := range s.byKey {
		for _, r := range recs {
			if !r.Expires.After(now) {
				dead = append(dead, r)
			}
		}
	}
	for _, r := range dead {
		s.remove(r)
	}
	return len(dead)
}
