package daemon

import (
	"repro/internal/metadata"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// The holdings view: every path that serves or advertises a file —
// pairwise serving, the group plane's piece source and want list, the
// hello's have-bitmaps, the harness's coverage probe — asks the same
// question, "which record, which pieces, which bytes can this node serve
// for uri", and gets it answered here.

// catalogued returns the record of a file this node's catalog lists — an
// Internet node holds its catalog whole — or nil. The record is the
// catalog's own, shared like heldLocked's.
func (d *Daemon) catalogued(uri metadata.URI) *metadata.Metadata {
	if d.catalog == nil {
		return nil
	}
	return d.catalog.Peek(uri)
}

// heldLocked returns the record uri is served under and the node's piece
// set for it: what the node itself holds under a record unexpired at now.
// A nil record means nothing is servable. Both are shared, not copies:
// callers read the record's immutable size fields, and the set only
// while they hold d.mu. Caller holds d.mu.
func (d *Daemon) heldLocked(uri metadata.URI, now simtime.Time) (*metadata.Metadata, *node.PieceSet) {
	sm, ps := d.node.Metadata(uri), d.node.Pieces(uri)
	if sm == nil || sm.Meta.Expired(now) || ps == nil || ps.Total() == 0 {
		return nil, nil
	}
	return sm.Meta, ps
}

// holding returns the record uri is served under and a copy of the
// bitmap of the pieces this node can serve: every piece of a catalogued
// file, otherwise what heldLocked finds.
func (d *Daemon) holding(uri metadata.URI, now simtime.Time) (*metadata.Metadata, wire.GroupWant) {
	if rec := d.catalogued(uri); rec != nil {
		return rec, wholeFile(uri, rec.NumPieces())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rec, ps := d.heldLocked(uri, now)
	if rec == nil {
		return nil, wire.GroupWant{}
	}
	return rec, groupWant(uri, false, ps)
}

// servable returns the record piece i of uri can be served under, nil
// when this node does not hold that piece.
func (d *Daemon) servable(uri metadata.URI, i int, now simtime.Time) *metadata.Metadata {
	if rec := d.catalogued(uri); rec != nil {
		if i < 0 || i >= rec.NumPieces() {
			return nil
		}
		return rec
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if rec, ps := d.heldLocked(uri, now); rec != nil && ps.Have(i) {
		return rec
	}
	return nil
}

// pieceBytes produces the content of piece i of rec's file. Today that
// is the synthetic generator; a content store replaces this one function.
func pieceBytes(rec *metadata.Metadata, i int) []byte {
	return metadata.SyntheticPiece(rec.URI, i, rec.PieceLen(i))
}

// groupWant renders a piece set as the bitmap hellos and group hellos
// carry: a copy of the set's own bits, so a snapshot costs one memmove
// whatever the file's size.
func groupWant(uri metadata.URI, downloading bool, ps *node.PieceSet) wire.GroupWant {
	w := wire.NewGroupWant(uri, ps.Total(), downloading)
	copy(w.Have, ps.Bitmap())
	return *w
}

// wholeFile is the bitmap of a file held whole.
func wholeFile(uri metadata.URI, total int) wire.GroupWant {
	w := wire.NewGroupWant(uri, total, false)
	for i := range w.Have {
		w.Have[i] = 0xff
	}
	if rem := total % 8; rem != 0 {
		w.Have[len(w.Have)-1] = 1<<rem - 1
	}
	return *w
}
