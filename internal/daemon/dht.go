// The daemon's DHT face: internal/dht's engine wired over the existing
// peer sessions. The engine owns routing and records; this file owns
// the plumbing — inbound frames arrive through handler.Handle,
// outbound RPCs ride Manager.Send with a dial-on-demand fallback for
// contacts outside the current peer set, and the round the beat starts
// when maintenance is due (Daemon.beat) refreshes the table, republishes
// the catalog (Internet nodes), and resolves still-open queries DHT-first.
//
// The query path is deliberately layered: a keyword resolves from the
// local record cache when it can (zero traffic — the DTN-side path),
// from an iterative FindValue when it must, and the ordinary hello
// beacon keeps carrying the query regardless, so a node that cannot
// reach the DHT still gets the legacy server/gossip answer. Records
// resolved via the DHT enter the node through the same
// verify-and-select path a gossiped metadata frame takes, but never
// touch the transport counters — DHT traffic and metadata traffic stay
// separately accounted.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dht"
	"repro/internal/metadata"
	"repro/internal/peer"
	"repro/internal/search"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// onDHT feeds one inbound DHT frame to the engine, whose replies leave
// over the sender's send lanes like every other handler-originated
// message.
func (d *Daemon) onDHT(from trace.NodeID, msg wire.Msg) {
	if d.dht == nil || d.quarantined(from) {
		return
	}
	if reply := d.dht.HandleMessage(msg); reply != nil {
		d.mgr.Send(from, reply)
	}
}

// dhtVerify vets a DHT value exactly like a gossiped record: structural
// validity plus the publisher's signature. The engine calls it on every
// StoreValue and on every FindValue result before caching.
func (d *Daemon) dhtVerify(v *wire.DHTValue) bool {
	rec := v.Meta.Record.Clone()
	if rec.Validate() != nil {
		return false
	}
	return rec.Verify(workload.KeyFor(rec.Publisher))
}

// dhtSignedExpiry is the instant the signed record expires — the bound
// no DHT stamp may outlive, so the index never resolves what the node
// would refuse.
func dhtSignedExpiry(m *wire.Metadata) time.Time {
	return time.UnixMilli(int64(m.Record.Expires))
}

// dhtSend queues one engine-originated message. A contact with no live
// session but a known address gets a dial-on-demand: ConnectOnce brings
// up a transient session and the send is offered again until it is up or
// the engine's RPC timeout runs out of patience for the dial; liveness
// expiry reaps the link once the lookups stop.
func (d *Daemon) dhtSend(c dht.Contact, m wire.Msg) error {
	err := d.mgr.Send(c.ID, m)
	if err == nil || !errors.Is(err, peer.ErrUnknownPeer) || c.Addr == "" {
		return err
	}
	ctx := d.dhtRunCtx()
	d.dialOnDemand(ctx, c.Addr)
	retry := d.cfg.HelloInterval / 4
	if retry <= 0 {
		retry = time.Millisecond
	}
	t := time.NewTicker(retry)
	defer t.Stop()
	for waited := retry; waited <= d.dhtTimeout; waited += retry {
		select {
		case <-t.C:
			if err = d.mgr.Send(c.ID, m); err == nil || !errors.Is(err, peer.ErrUnknownPeer) {
				return err
			}
		case <-ctx.Done():
			return fmt.Errorf("dht dial %s: %w", c.Addr, ctx.Err())
		}
	}
	return fmt.Errorf("dht dial %s: no session within %v", c.Addr, d.dhtTimeout)
}

// dhtRunCtx returns the daemon's run context (Background before Run,
// for construction-time calls in tests).
func (d *Daemon) dhtRunCtx() context.Context {
	d.dialMu.Lock()
	defer d.dialMu.Unlock()
	if d.dhtCtx == nil {
		return context.Background()
	}
	return d.dhtCtx
}

// dialOnDemand starts one transient outbound session to addr unless one
// is already coming up.
func (d *Daemon) dialOnDemand(ctx context.Context, addr string) {
	d.dialMu.Lock()
	if d.dialing[addr] {
		d.dialMu.Unlock()
		return
	}
	d.dialing[addr] = true
	d.dialMu.Unlock()
	d.dhtWG.Add(1)
	go func() {
		defer d.dhtWG.Done()
		d.mgr.ConnectOnce(ctx, d.cfg.Transport, addr)
		d.dialMu.Lock()
		delete(d.dialing, addr)
		d.dialMu.Unlock()
	}()
}

// dhtTick is one round of DHT maintenance: bootstrap/refresh the
// routing table, drop expired records, republish the catalog (Internet
// nodes), and resolve open queries, all judged at now.
func (d *Daemon) dhtTick(ctx context.Context, now simtime.Time) {
	tctx, cancel := context.WithTimeout(ctx, d.cfg.DHTRepublish)
	defer cancel()
	d.dht.Refresh(tctx)
	d.dht.Sweep()
	if d.catalog != nil {
		d.publishCatalog(tctx, now)
	}
	d.resolveQueries(tctx, now)
}

// publishCatalog pushes every catalog record into the DHT under each
// keyword of its name, so the index survives this server's death at the
// K closest nodes per keyword.
func (d *Daemon) publishCatalog(ctx context.Context, now simtime.Time) {
	for _, sr := range d.catalog.Records(now) {
		for _, tok := range search.Tokenize(sr.Meta.Name) {
			if ctx.Err() != nil {
				return
			}
			m := wire.Metadata{Popularity: sr.Popularity, Record: *sr.Meta}
			if _, err := d.dht.Publish(ctx, tok, m); err != nil &&
				!errors.Is(err, dht.ErrNoContacts) {
				d.logf("daemon %d: dht publish %q: %v", d.cfg.ID, tok, err)
			}
		}
	}
}

// resolveQueries answers still-open searches DHT-first: skip queries
// some stored record already satisfies, try each keyword against the
// local cache and then the iterative lookup, and feed what resolves
// through the ordinary metadata path. Queries that miss entirely stay
// in the hello beacon — the legacy fallback costs nothing extra.
func (d *Daemon) resolveQueries(ctx context.Context, now simtime.Time) {
	d.mu.Lock()
	queries := d.node.Queries(now)
	d.mu.Unlock()
	for _, q := range queries {
		if ctx.Err() != nil {
			return
		}
		if d.queryAnswered(q, now) {
			continue
		}
		for _, tok := range search.Tokenize(q) {
			vals, err := d.dht.Query(ctx, tok)
			if err != nil || len(vals) == 0 {
				continue
			}
			d.applyDHTValues(vals)
		}
	}
}

// queryAnswered reports whether some stored record unexpired at now
// already matches q, making a DHT lookup for it redundant.
func (d *Daemon) queryAnswered(q string, now simtime.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, sm := range d.node.MetadataStore() {
		if !sm.Meta.Expired(now) && sm.Meta.MatchesQuery(q) {
			return true
		}
	}
	return false
}

// applyDHTValues runs resolved records through the same verify-and-
// select path a gossiped metadata frame takes (onMetadata), attributed
// to self: the engine already signature-checked them, and they must not
// count as peer metadata traffic.
func (d *Daemon) applyDHTValues(vals []wire.DHTValue) {
	for i := range vals {
		m := vals[i].Meta
		d.onMetadata(d.cfg.ID, &m)
	}
}

// dhtCacheRecord folds one verified gossiped record into the local DHT
// cache under its name's keywords. This is what lets a DTN-side node
// answer FindValue — and its own later queries — from state it learned
// entirely over gossip, with no Internet path.
func (d *Daemon) dhtCacheRecord(m *wire.Metadata) {
	for _, tok := range search.Tokenize(m.Record.Name) {
		d.dht.StoreLocal(tok, *m, 0)
	}
}

// KnowsMetadata reports whether this node holds an unexpired record for
// uri — the swarm harness's query-resolution ground truth.
func (d *Daemon) KnowsMetadata(uri metadata.URI) bool {
	now := protoTime(d.clock())
	d.mu.Lock()
	defer d.mu.Unlock()
	sm := d.node.Metadata(uri)
	return sm != nil && !sm.Meta.Expired(now)
}

// DHT exposes the engine for tests and stats (nil without EnableDHT).
func (d *Daemon) DHT() *dht.Engine { return d.dht }
