// Symbol messages carry the fountain-coded broadcast data plane: the
// round's granted sender streams coded symbols (internal/fec) over the
// best-effort datagram lane instead of shipping named pieces, and
// receivers answer with one aggregate SymbolAck when a piece decodes.
// Symbols ride an unreliable, unordered medium, so unlike the TCP-framed
// messages each Symbol carries everything needed to place it — the block
// identity (file, piece, seed) plus the symbol index — and a payload
// checksum: a corrupted payload that still parses would XOR garbage into
// the receiver's eliminator and poison the whole block, so receivers
// drop symbols whose check fails rather than trusting the lane.
package wire

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/metadata"
	"repro/internal/trace"
)

// Symbol is one fountain-coded symbol of one piece. (Seed, Index)
// fully determine the symbol's source-set under internal/fec, so a
// relay can forward symbols it has not decoded, and DataLen together
// with len(Payload) reconstructs the decoder's Params on sight.
type Symbol struct {
	From  trace.NodeID
	Round uint64
	URI   metadata.URI
	// Piece is the piece index within the file; Total the file's piece
	// count, so first sight of a file's stream can size tracking state.
	Piece int
	Total int
	// Seed names the block's symbol stream; DataLen is the original
	// piece length in bytes (the last piece of a file runs short).
	Seed    uint64
	DataLen int
	// Index selects the coded symbol within the stream.
	Index uint32
	// Check guards every other field against datagram corruption — see
	// checksum.
	Check   uint32
	Payload []byte
}

// SymbolAck is a receiver's aggregate decode report for one file: a
// bitset of the pieces it has fully decoded (or already held). One ack
// replaces per-piece NACK round-trips — the sender stops streaming a
// block as soon as every member's ack covers it.
type SymbolAck struct {
	From  trace.NodeID
	Round uint64
	URI   metadata.URI
	Total int
	// Have marks decoded pieces, same bitset form as GroupWant.Have.
	Have []byte
}

// checksum covers every field except Check itself. Datagram corruption
// is indiscriminate: a flipped Round would poison the engine's round
// clock and a flipped Piece would aim good equations at the wrong
// decoder, so the whole header is bound, not just the payload and
// stream identity.
func (s *Symbol) checksum() uint32 {
	var hdr [40]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(s.From))
	binary.BigEndian.PutUint64(hdr[4:], s.Round)
	binary.BigEndian.PutUint32(hdr[12:], uint32(s.Piece))
	binary.BigEndian.PutUint32(hdr[16:], uint32(s.Total))
	binary.BigEndian.PutUint64(hdr[20:], s.Seed)
	binary.BigEndian.PutUint32(hdr[28:], uint32(s.DataLen))
	binary.BigEndian.PutUint32(hdr[32:], s.Index)
	binary.BigEndian.PutUint32(hdr[36:], uint32(len(s.URI)))
	c := crc32.Update(0, crc32.IEEETable, hdr[:40])
	c = crc32.Update(c, crc32.IEEETable, []byte(s.URI))
	return crc32.Update(c, crc32.IEEETable, s.Payload)
}

// Seal stamps Check from the symbol's current fields.
func (s *Symbol) Seal() { s.Check = s.checksum() }

// CheckOK reports whether Check matches the symbol's current fields.
func (s *Symbol) CheckOK() bool { return s.Check == s.checksum() }

// Type implements Msg.
func (*Symbol) Type() MsgType { return TypeSymbol }

// Type implements Msg.
func (*SymbolAck) Type() MsgType { return TypeSymbolAck }

// EncodeSymbol serializes a coded symbol.
func EncodeSymbol(s *Symbol) []byte { return Encode(s) }

func encodeSymbol(w *buffer, s *Symbol) {
	w.uint32(uint32(s.From))
	w.uint64(s.Round)
	w.str(string(s.URI))
	w.uint32(uint32(s.Piece))
	w.uint32(uint32(s.Total))
	w.uint64(s.Seed)
	w.uint32(uint32(s.DataLen))
	w.uint32(s.Index)
	w.uint32(s.Check)
	w.bytes(s.Payload)
}

// decodeSymbol parses a coded symbol. The payload checksum is NOT
// verified here — framing errors answer with the usual sentinels, but
// Check is the receiver's call (CheckOK) so transports and tests can
// observe corrupted-but-parseable symbols.
func decodeSymbol(c *Cursor) *Symbol {
	s := &Symbol{}
	s.From = trace.NodeID(c.Uint32())
	s.Round = c.Uint64()
	s.URI = metadata.URI(c.Str(maxStrLen))
	s.Piece = int(c.Uint32())
	s.Total = c.Bounded("piece total", maxListLen)
	s.Seed = c.Uint64()
	s.DataLen = c.Bounded("symbol data length", maxDataLen)
	s.Index = c.Uint32()
	s.Check = c.Uint32()
	s.Payload = c.Bytes(maxDataLen)
	return s
}

// DecodeSymbol parses a coded symbol.
func DecodeSymbol(b []byte) (*Symbol, error) { return decodeAs[*Symbol](b) }

// EncodeSymbolAck serializes an aggregate decode report.
func EncodeSymbolAck(a *SymbolAck) []byte { return Encode(a) }

func encodeSymbolAck(w *buffer, a *SymbolAck) {
	w.uint32(uint32(a.From))
	w.uint64(a.Round)
	w.str(string(a.URI))
	w.uint32(uint32(a.Total))
	w.bytes(a.Have)
}

func decodeSymbolAck(c *Cursor) *SymbolAck {
	a := &SymbolAck{}
	a.From = trace.NodeID(c.Uint32())
	a.Round = c.Uint64()
	a.URI = metadata.URI(c.Str(maxStrLen))
	a.Total = c.Bounded("piece total", maxListLen)
	a.Have = decodeBitset(c, "ack", a.Total)
	return a
}

// DecodeSymbolAck parses an aggregate decode report.
func DecodeSymbolAck(b []byte) (*SymbolAck, error) { return decodeAs[*SymbolAck](b) }

// HaveBit reports whether piece i is marked decoded in the ack.
func (a *SymbolAck) HaveBit(i int) bool { return haveBit(a.Have, a.Total, i) }

// SetHave marks piece i as decoded in the ack.
func (a *SymbolAck) SetHave(i int) { setHave(a.Have, a.Total, i) }
