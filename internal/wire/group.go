// Group messages carry the live broadcast-group protocol of §V on the
// wire. Clique members converge on a shared group view through
// GroupHello, a sequencer opens each round by naming exactly one
// transmitter with Grant, and the granted node ships the piece to the
// whole group in one PieceBcast. The formats follow the same header +
// length-prefixed big-endian layout as the three base messages.
package wire

import (
	"fmt"

	"repro/internal/metadata"
	"repro/internal/trace"
)

// GroupWant is one file's piece state inside a GroupHello: which pieces
// the sender holds (Have is a little-endian-within-byte bitset of Total
// bits) and whether it is actively downloading the file (a requester)
// or merely holding pieces it can serve.
type GroupWant struct {
	URI         metadata.URI
	Total       int
	Downloading bool
	Have        []byte
}

// HaveLen is the bitset byte length for n pieces.
func HaveLen(n int) int { return (n + 7) / 8 }

// inBitset reports whether piece i of total has a byte in have. A struct
// built by hand may carry a bitset shorter than its Total promises (the
// codec rejects one off the wire), so both accessors of both bitset
// carriers — GroupWant and SymbolAck — go through this guard.
func inBitset(have []byte, total, i int) bool {
	return i >= 0 && i < total && i/8 < len(have)
}

func haveBit(have []byte, total, i int) bool {
	return inBitset(have, total, i) && have[i/8]&(1<<(i%8)) != 0
}

func setHave(have []byte, total, i int) {
	if inBitset(have, total, i) {
		have[i/8] |= 1 << (i % 8)
	}
}

// NewGroupWant returns a want for total pieces with an all-zero bitset.
func NewGroupWant(uri metadata.URI, total int, downloading bool) *GroupWant {
	return &GroupWant{URI: uri, Total: total, Downloading: downloading, Have: make([]byte, HaveLen(total))}
}

// HaveBit reports whether piece i is held.
func (w *GroupWant) HaveBit(i int) bool { return haveBit(w.Have, w.Total, i) }

// SetHave marks piece i as held.
func (w *GroupWant) SetHave(i int) { setHave(w.Have, w.Total, i) }

// Complete reports whether every piece is held.
func (w *GroupWant) Complete() bool {
	for i := 0; i < w.Total; i++ {
		if !w.HaveBit(i) {
			return false
		}
	}
	return w.Total > 0
}

// GroupHello announces the sender's broadcast-group view: the members
// it currently believes form its clique group, the highest round it has
// seen, and its per-file piece state. A group goes live only once every
// member's GroupHello lists the same member set.
type GroupHello struct {
	From    trace.NodeID
	Members []trace.NodeID
	Round   uint64
	Wants   []GroupWant
	// FEC advertises fountain-coded data-plane support: a group streams
	// symbols only when *every* confirmed member's GroupHello sets it,
	// and falls back to grant/resend piece broadcast otherwise.
	FEC bool
}

// NoPiece marks a Grant that leaves the piece choice to the sender
// (tit-for-tat: the cyclic order names the sender, the sender picks).
const NoPiece = int32(-1)

// Grant names the round's one transmitter. URI/Piece pin the piece in
// the cooperative case; an empty URI with Piece == NoPiece leaves the
// choice to the granted sender.
type Grant struct {
	From  trace.NodeID
	To    trace.NodeID
	Round uint64
	URI   metadata.URI
	Piece int32
}

// PieceBcast is one piece transmitted to the whole group at once — the
// (n-1)/n capacity move of §V. It mirrors Piece plus the sender and
// round, so receivers can dedup against the pairwise path and trackers
// can follow the schedule.
type PieceBcast struct {
	From  trace.NodeID
	Round uint64
	URI   metadata.URI
	Index int
	Total int
	Data  []byte
}

// AsPiece converts the broadcast to the pairwise piece form so the
// receive path (verify against stored metadata, store, dedup) is shared.
func (p *PieceBcast) AsPiece() *Piece {
	return &Piece{URI: p.URI, Index: p.Index, Total: p.Total, Data: p.Data}
}

// Type implements Msg.
func (*GroupHello) Type() MsgType { return TypeGroupHello }

// Type implements Msg.
func (*Grant) Type() MsgType { return TypeGrant }

// Type implements Msg.
func (*PieceBcast) Type() MsgType { return TypePieceBcast }

// wantMinLen is the least one encoded GroupWant occupies: an empty URI,
// the total, the downloading flag and an empty bitset.
const wantMinLen = strMinLen + 4 + 1 + 4

// encodeWantList appends a length-prefixed per-file piece-state list —
// the codec shared by GroupHello.Wants and Hello.Have.
func encodeWantList(w *buffer, wants []GroupWant) {
	w.uint32(uint32(len(wants)))
	for i := range wants {
		want := &wants[i]
		w.str(string(want.URI))
		w.uint32(uint32(want.Total))
		w.flag(want.Downloading)
		w.bytes(want.Have)
	}
}

// decodeWantList parses a length-prefixed per-file piece-state list.
func decodeWantList(c *Cursor) []GroupWant {
	var out []GroupWant
	n := c.Count("want list", maxListLen, wantMinLen)
	for i := 0; i < n && c.err == nil; i++ {
		var want GroupWant
		want.URI = metadata.URI(c.Str(maxStrLen))
		want.Total = c.Bounded("piece total", maxListLen)
		want.Downloading = c.Flag("downloading")
		want.Have = decodeBitset(c, "have", want.Total)
		out = append(out, want)
	}
	return out
}

// decodeBitset reads a have-bitset, whose byte length must be exactly
// what total pieces need.
func decodeBitset(c *Cursor, what string, total int) []byte {
	have := c.Bytes(maxListLen)
	if len(have) != HaveLen(total) {
		c.Fail(fmt.Errorf("%s bitset %d bytes for %d pieces: %w", what, len(have), total, ErrTooLong))
	}
	return have
}

// EncodeGroupHello serializes a group view announcement.
func EncodeGroupHello(g *GroupHello) []byte { return Encode(g) }

func encodeGroupHello(w *buffer, g *GroupHello) {
	w.uint32(uint32(g.From))
	encodeIDs(w, g.Members)
	w.uint64(g.Round)
	encodeWantList(w, g.Wants)
	w.flag(g.FEC)
}

func decodeGroupHello(c *Cursor) *GroupHello {
	g := &GroupHello{}
	g.From = trace.NodeID(c.Uint32())
	g.Members = decodeIDs(c, "member list")
	g.Round = c.Uint64()
	g.Wants = decodeWantList(c)
	g.FEC = c.Flag("fec")
	return g
}

// DecodeGroupHello parses a group view announcement.
func DecodeGroupHello(b []byte) (*GroupHello, error) {
	return decodeAs[*GroupHello](b)
}

// EncodeGrant serializes a transmit grant.
func EncodeGrant(g *Grant) []byte { return Encode(g) }

func encodeGrant(w *buffer, g *Grant) {
	w.uint32(uint32(g.From))
	w.uint32(uint32(g.To))
	w.uint64(g.Round)
	w.str(string(g.URI))
	w.uint32(uint32(g.Piece))
}

func decodeGrant(c *Cursor) *Grant {
	g := &Grant{}
	g.From = trace.NodeID(c.Uint32())
	g.To = trace.NodeID(c.Uint32())
	g.Round = c.Uint64()
	g.URI = metadata.URI(c.Str(maxStrLen))
	g.Piece = int32(c.Uint32())
	return g
}

// DecodeGrant parses a transmit grant.
func DecodeGrant(b []byte) (*Grant, error) { return decodeAs[*Grant](b) }

// EncodePieceBcast serializes a broadcast piece.
func EncodePieceBcast(p *PieceBcast) []byte { return Encode(p) }

func encodePieceBcast(w *buffer, p *PieceBcast) {
	w.uint32(uint32(p.From))
	w.uint64(p.Round)
	w.str(string(p.URI))
	w.uint32(uint32(p.Index))
	w.uint32(uint32(p.Total))
	w.bytes(p.Data)
}

func decodePieceBcast(c *Cursor) *PieceBcast {
	p := &PieceBcast{}
	p.From = trace.NodeID(c.Uint32())
	p.Round = c.Uint64()
	p.URI = metadata.URI(c.Str(maxStrLen))
	p.Index = int(c.Uint32())
	p.Total = int(c.Uint32())
	p.Data = c.Bytes(maxDataLen)
	return p
}

// DecodePieceBcast parses a broadcast piece.
func DecodePieceBcast(b []byte) (*PieceBcast, error) {
	return decodeAs[*PieceBcast](b)
}
