package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/limit"
	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Safe is a concurrency-safe wrapper around Server for the live runtime,
// where catalog queries arrive from many peer sessions at once. All
// methods take one mutex; the underlying Server is never exposed.
//
// Methods that return metadata return clones made under the lock:
// Metadata lazily caches its search tokens on first MatchesQuery, so
// handing out the catalog's own records would race once two sessions
// matched the same record concurrently.
type Safe struct {
	mu sync.Mutex
	s  *Server

	// Query admission control (SetQueryLimit): one token bucket per
	// requesting node, guarded separately so shedding never waits on a
	// catalog operation in flight.
	limMu       sync.Mutex
	queryLim    map[trace.NodeID]*limit.Bucket
	queryRate   float64
	queryClock  limit.Clock
	queriesShed atomic.Uint64
}

// NewSafe wraps an empty server; internetNodes as in New.
func NewSafe(internetNodes int) (*Safe, error) {
	s, err := New(internetNodes)
	if err != nil {
		return nil, err
	}
	return &Safe{s: s}, nil
}

// Publish adds metadata to the catalog.
func (c *Safe) Publish(m *metadata.Metadata) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Publish(m)
}

// Len returns the catalog size.
func (c *Safe) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Len()
}

// Lookup returns a clone of the metadata for uri.
func (c *Safe) Lookup(uri metadata.URI) (*metadata.Metadata, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := c.s.Lookup(uri)
	if err != nil {
		return nil, err
	}
	return m.Clone(), nil
}

// Peek returns the catalog's own record for uri, or nil: no clone, so a
// caller on a per-frame path pays nothing for the checksum list. The
// caller may read the record's size fields and URI and nothing else —
// Publish replaces a record, never edits one, but matching a query
// caches search tokens in it under the catalog's lock.
func (c *Safe) Peek(uri metadata.URI) *metadata.Metadata {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := c.s.Lookup(uri)
	if err != nil {
		return nil
	}
	return m
}

// RecordRequest notes a popularity-feeding request.
func (c *Safe) RecordRequest(now simtime.Time, uri metadata.URI, node trace.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.RecordRequest(now, uri, node)
}

// Popularity returns the measured popularity of uri at now.
func (c *Safe) Popularity(now simtime.Time, uri metadata.URI) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Popularity(now, uri)
}

// Expire removes catalog entries whose TTL has passed.
func (c *Safe) Expire(now simtime.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Expire(now)
}

// SetQueryLimit installs per-peer query admission control: each node
// gets rate catalog queries per second from a bucket holding one
// second's worth (burst = rate); excess queries should be refused
// (AllowQuery returns false) and answered with Busy backpressure by the
// host. A nil clock means time.Now; rate <= 0 removes the limit.
func (c *Safe) SetQueryLimit(rate float64, clock limit.Clock) {
	c.limMu.Lock()
	defer c.limMu.Unlock()
	c.queryRate = rate
	c.queryClock = clock
	c.queryLim = nil
	if rate > 0 {
		c.queryLim = make(map[trace.NodeID]*limit.Bucket)
	}
}

// AllowQuery charges one query against node's bucket. With no limit
// installed every query is admitted. The bucket map is bounded: a flood
// of fabricated node IDs resets it rather than growing without limit.
func (c *Safe) AllowQuery(node trace.NodeID) bool {
	c.limMu.Lock()
	if c.queryLim == nil {
		c.limMu.Unlock()
		return true
	}
	if len(c.queryLim) > 4096 {
		c.queryLim = make(map[trace.NodeID]*limit.Bucket)
	}
	bk := c.queryLim[node]
	if bk == nil {
		bk = limit.NewBucket(c.queryRate, c.queryRate, c.queryClock)
		c.queryLim[node] = bk
	}
	c.limMu.Unlock()
	if !bk.Allow() {
		c.queriesShed.Add(1)
		return false
	}
	return true
}

// QueriesShed reports how many queries admission control has refused.
func (c *Safe) QueriesShed() uint64 { return c.queriesShed.Load() }

// Query returns clones of up to limit best-matched records.
func (c *Safe) Query(now simtime.Time, query string, limit int) []*metadata.Metadata {
	c.mu.Lock()
	defer c.mu.Unlock()
	return clones(c.s.Query(now, query, limit))
}

// Top returns clones of up to limit most popular records.
func (c *Safe) Top(now simtime.Time, limit int) []*metadata.Metadata {
	c.mu.Lock()
	defer c.mu.Unlock()
	return clones(c.s.Top(now, limit))
}

// Records enumerates the unexpired catalog with popularities, cloned.
func (c *Safe) Records(now simtime.Time) []StoredRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := c.s.Records(now)
	for i := range recs {
		recs[i].Meta = recs[i].Meta.Clone()
	}
	return recs
}

func clones(in []*metadata.Metadata) []*metadata.Metadata {
	if in == nil {
		return nil
	}
	out := make([]*metadata.Metadata, len(in))
	for i, m := range in {
		out[i] = m.Clone()
	}
	return out
}
