package daemon

import (
	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// The holdings view: every path that serves or advertises a file —
// pairwise serving, the group plane's piece source and want list, the
// hello's have-bitmaps, the harness's coverage probe — asks the same
// question, "which record, which pieces, which bytes can this node serve
// for uri", and gets it answered here.

// holding returns the record uri is served under and which of its pieces
// this node can serve: every piece of a file its catalog lists (an
// Internet node holds its catalog whole), otherwise what the node's own
// piece set holds under a record unexpired at now. A nil record means
// nothing is servable. The record is shared, not a copy: callers read
// its immutable size fields only.
func (d *Daemon) holding(uri metadata.URI, now simtime.Time) (*metadata.Metadata, []bool) {
	if d.catalog != nil {
		if rec, err := d.catalog.Lookup(uri); err == nil {
			return rec, allHeld(rec.NumPieces())
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.heldLocked(uri, now)
}

// allHeld is the bitmap of a file held whole.
func allHeld(total int) []bool {
	have := make([]bool, total)
	for i := range have {
		have[i] = true
	}
	return have
}

// heldLocked is holding's node half. Caller holds d.mu.
func (d *Daemon) heldLocked(uri metadata.URI, now simtime.Time) (*metadata.Metadata, []bool) {
	sm, ps := d.node.Metadata(uri), d.node.Pieces(uri)
	if sm == nil || sm.Meta.Expired(now) || ps == nil || ps.Total() == 0 {
		return nil, nil
	}
	have := make([]bool, ps.Total())
	for i := range have {
		have[i] = ps.Have(i)
	}
	return sm.Meta, have
}

// pieceBytes produces the content of piece i of rec's file. Today that
// is the synthetic generator; a content store replaces this one function.
func pieceBytes(rec *metadata.Metadata, i int) []byte {
	return metadata.SyntheticPiece(rec.URI, i, rec.PieceLen(i))
}

// groupWant renders a holding as the bitmap hellos and group hellos
// carry.
func groupWant(uri metadata.URI, downloading bool, have []bool) wire.GroupWant {
	w := wire.NewGroupWant(uri, len(have), downloading)
	for i, held := range have {
		if held {
			w.SetHave(i)
		}
	}
	return *w
}
