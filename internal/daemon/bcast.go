// Broadcast-group glue: the adapters that plug internal/bcast into the
// daemon. The engine sees the daemon through two narrow views —
// bcastStore (piece state) and bcastSender (group traffic out) — and
// feeds received pieces back through the same verify-and-store path as
// pairwise transfers, so dedup between the two paths is free.
//
// Lock ordering: the engine may call these adapters with its own mutex
// held, so they take d.mu freely; the daemon in turn only calls engine
// methods (Observe, InGroup, HandleGroup, Tick, Stats) with d.mu
// released.
package daemon

import (
	"context"
	"time"

	"repro/internal/metadata"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// bcastWantsCap bounds the per-hello piece-state advertisement; a node
// holding more files than this advertises the first bcastWantsCap in
// URI order, and the rest stay on the pairwise path.
const bcastWantsCap = 64

// lanePump drains one group lane — the shared broadcast medium or the
// lossy symbol lane — into the engine until the lane dies or ctx ends.
// What a lane loses or skips on the way is the medium's business; the
// pump only drops frames that claim no sender, our own, or a
// quarantined peer's.
func (d *Daemon) lanePump(ctx context.Context, name string, lane transport.BroadcastConn) {
	for {
		msg, err := lane.Recv(ctx)
		if err != nil {
			if ctx.Err() == nil {
				d.logf("daemon %d: %s down: %v", d.cfg.ID, name, err)
			}
			return
		}
		from, ok := groupFrom(msg)
		if !ok || from == d.cfg.ID || d.quarantined(from) {
			continue
		}
		d.bcast.HandleGroup(ctx, from, msg)
	}
}

// groupFrom extracts the sender a group message claims; non-group
// traffic on the medium is ignored.
func groupFrom(msg wire.Msg) (trace.NodeID, bool) {
	switch v := msg.(type) {
	case *wire.GroupHello:
		return v.From, true
	case *wire.Grant:
		return v.From, true
	case *wire.PieceBcast:
		return v.From, true
	case *wire.Symbol:
		return v.From, true
	case *wire.SymbolAck:
		return v.From, true
	}
	return 0, false
}

// bcastSender ships group messages: one Send on the shared medium when
// the daemon has one, otherwise a unicast fan-out over the members'
// send lanes (never blocking — a full lane drops and the next tick
// re-announces).
type bcastSender Daemon

func (s *bcastSender) Broadcast(_ context.Context, members []trace.NodeID, m wire.Msg) {
	d := (*Daemon)(s)
	if bc := d.cfg.Broadcast; bc != nil {
		// The medium is best-effort by design; a full receiver queue is
		// a missed frame, same as radio.
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := bc.Send(sctx, m); err != nil {
			d.logf("daemon %d: broadcast %v: %v", d.cfg.ID, m.Type(), err)
		}
		return
	}
	for _, id := range members {
		if id != d.cfg.ID {
			d.mgr.Send(id, m)
		}
	}
}

// BroadcastSymbol ships one coded symbol on the datagram lane. It is
// the lossy half of the Sender: no fan-out fallback, no retry — a
// failed send is indistinguishable from a lost datagram, and the
// engine's top-up bursts absorb both. The engine only activates the
// symbol plane when Config.FEC is set, which the daemon gates on the
// lane existing, so the nil check is a belt against misconfiguration,
// not a code path.
func (s *bcastSender) BroadcastSymbol(_ context.Context, m wire.Msg) {
	d := (*Daemon)(s)
	lane := d.cfg.Symbols
	if lane == nil {
		return
	}
	sctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := lane.Send(sctx, m); err != nil {
		d.logf("daemon %d: symbol lane %v: %v", d.cfg.ID, m.Type(), err)
	}
}

// bcastStore is the engine's read/write view of the daemon's state.
type bcastStore Daemon

func (s *bcastStore) LivePeers() []trace.NodeID {
	return (*Daemon)(s).mgr.Peers()
}

// Wants reports this node's per-file piece state: every piece set it
// holds or has staged (Downloading marks active incomplete downloads)
// plus, on Internet nodes, the catalog's files as complete holdings.
func (s *bcastStore) Wants() []wire.GroupWant {
	d := (*Daemon)(s)
	var out []wire.GroupWant
	seen := make(map[metadata.URI]bool)
	now := protoTime(d.clock())

	d.mu.Lock()
	for _, uri := range d.node.PieceURIs() {
		if len(out) >= bcastWantsCap {
			break
		}
		if rec, ps := d.heldLocked(uri, now); rec != nil {
			w := groupWant(uri, ps.Want && !ps.Complete(), ps)
			// A piece staged for the log counts: the engine acked it on
			// delivery, and a view without it would take the ack back
			// until the fsync returns. A failed commit un-stages it and
			// the next view says so.
			if f := d.files[uri]; f != nil {
				for i := range f.pending {
					w.SetHave(i)
				}
			}
			out = append(out, w)
			seen[uri] = true
		}
	}
	d.mu.Unlock()

	if d.catalog != nil {
		for _, m := range d.catalog.Top(now, bcastWantsCap) {
			if len(out) >= bcastWantsCap {
				break
			}
			if !seen[m.URI] {
				out = append(out, wholeFile(m.URI, m.NumPieces()))
			}
		}
	}
	return out
}

// PieceData produces a servable piece from the node's holding of uri —
// the same source servePieces draws from.
func (s *bcastStore) PieceData(uri metadata.URI, i int) ([]byte, int, bool) {
	d := (*Daemon)(s)
	rec := d.servable(uri, i, protoTime(d.clock()))
	if rec == nil {
		return nil, 0, false
	}
	return pieceBytes(rec, i), rec.NumPieces(), true
}

func (s *bcastStore) Popularity(uri metadata.URI) float64 {
	d := (*Daemon)(s)
	if d.catalog != nil {
		return d.catalog.Popularity(protoTime(d.clock()), uri)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if sm := d.node.Metadata(uri); sm != nil {
		return sm.Popularity
	}
	return 0
}

// DeliverPiece feeds a broadcast piece through the pairwise receive
// path: verification against stored metadata, idempotent store (a piece
// already heard pairwise counts as a duplicate, not a conflict), and
// completion detection. The report feeds the fountain plane: false
// (verification failed, metadata missing) makes the engine restart the
// piece's symbol collection instead of acking poisoned bytes.
func (s *bcastStore) DeliverPiece(from trace.NodeID, p *wire.PieceBcast) bool {
	return (*Daemon)(s).acceptPiece(from, p.AsPiece(), false)
}
