// Package wire defines the on-air message formats of §III-B and their
// binary codec. Nodes exchange three base message kinds:
//
//   - hello beacons — node ID, the IDs heard in the past 5 seconds, the
//     node's query strings, the URIs of the files it is downloading, and
//     a per-file have-bitmap so senders serve only missing pieces;
//   - metadata records — the discovery phase's payload, carrying the
//     advisory popularity alongside the signed record;
//   - file pieces — the download phase's payload, optionally carrying a
//     piggybacked metadata record (MBT-QM);
//
// plus the three broadcast-group messages of §V (group.go): group-hello,
// grant and piece-bcast, the fountain-coded data plane's symbol and
// symbol-ack (symbol.go), the DHT RPCs (dht.go) and busy (busy.go).
//
// The format is a fixed header (magic, version, type) followed by
// length-prefixed fields in big-endian order. What a frame type is — its
// name, plane, shedding class, Busy lane and codec — is one row of the
// kind table (kind.go), and every body is read through one latching
// Cursor (cursor.go). Decoding is strict: junk, truncation, or trailing
// bytes are errors, and a decoded piece can be verified against its
// file's checksums before it is stored.
package wire

import (
	"crypto/sha1"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"

	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/trace"
)

const (
	magic   = 0xD7
	version = 1
)

// Limits guard against hostile lengths.
const (
	maxStrLen  = 64 * 1024
	maxListLen = 64 * 1024
	maxDataLen = 16 * 1024 * 1024
)

// The least an element of each list kind occupies, which is what
// Cursor.Count holds a declared length against.
const (
	idLen          = 4                                                 // a node ID
	strMinLen      = 4                                                 // an empty string's length prefix
	metadataMinLen = 8 + 4*strMinLen + 8 + 4 + 8 + 8 + 4 + sha256.Size // a record with no piece hashes
)

// Decode errors. These are sentinels so the transport layer can match
// with errors.Is and react per cause: ErrBadMagic means framing garbage
// (close the connection), ErrVersion means a healthy peer speaking a
// different protocol revision (close politely, do not retry), and the
// remaining sentinels mean a malformed but well-framed message (drop it
// and keep the connection).
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrBadMagic  = errors.New("wire: bad magic byte")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrBadType   = errors.New("wire: unknown message type")
	ErrTrailing  = errors.New("wire: trailing bytes after message")
	ErrTooLong   = errors.New("wire: field exceeds limit")
)

// Hello is the beacon message.
type Hello struct {
	From        trace.NodeID
	Heard       []trace.NodeID
	Queries     []string
	Downloading []metadata.URI
	// Have advertises per-file piece state for the downloads (same
	// bitset form as GroupHello.Wants), so senders serve only missing
	// pieces. A node that restarts against its data directory resumes
	// advertising everything it persisted, and peers never re-send a
	// piece the bitmap already marks held.
	Have []GroupWant
}

// Metadata is the discovery payload.
type Metadata struct {
	Popularity float64
	Record     metadata.Metadata
}

// Piece is the download payload.
type Piece struct {
	URI   metadata.URI
	Index int
	Total int
	Data  []byte
	// Piggyback optionally carries the file's metadata (MBT-QM).
	Piggyback *Metadata
}

func header(t MsgType) *buffer {
	w := &buffer{}
	w.byte(magic)
	w.byte(version)
	w.byte(byte(t))
	return w
}

// encodeIDs appends a length-prefixed node-ID list — Hello.Heard and
// GroupHello.Members.
func encodeIDs(w *buffer, ids []trace.NodeID) {
	w.uint32(uint32(len(ids)))
	for _, id := range ids {
		w.uint32(uint32(id))
	}
}

func decodeIDs(c *Cursor, what string) []trace.NodeID {
	var out []trace.NodeID
	n := c.Count(what, maxListLen, idLen)
	for i := 0; i < n && c.err == nil; i++ {
		out = append(out, trace.NodeID(c.Uint32()))
	}
	return out
}

// EncodeHello serializes a hello beacon.
func EncodeHello(h *Hello) []byte {
	w := header(TypeHello)
	w.uint32(uint32(h.From))
	encodeIDs(w, h.Heard)
	w.uint32(uint32(len(h.Queries)))
	for _, q := range h.Queries {
		w.str(q)
	}
	w.uint32(uint32(len(h.Downloading)))
	for _, uri := range h.Downloading {
		w.str(string(uri))
	}
	encodeWantList(w, h.Have)
	return w.b
}

func decodeHello(c *Cursor) *Hello {
	h := &Hello{}
	h.From = trace.NodeID(c.Uint32())
	h.Heard = decodeIDs(c, "heard list")
	n := c.Count("query list", maxListLen, strMinLen)
	for i := 0; i < n && c.err == nil; i++ {
		h.Queries = append(h.Queries, c.Str(maxStrLen))
	}
	n = c.Count("download list", maxListLen, strMinLen)
	for i := 0; i < n && c.err == nil; i++ {
		h.Downloading = append(h.Downloading, metadata.URI(c.Str(maxStrLen)))
	}
	h.Have = decodeWantList(c)
	return h
}

// encodeMetadataBody appends the metadata payload without a header.
func encodeMetadataBody(w *buffer, m *Metadata) {
	w.uint64(math.Float64bits(m.Popularity))
	rec := &m.Record
	w.str(string(rec.URI))
	w.str(rec.Name)
	w.str(rec.Publisher)
	w.str(rec.Description)
	w.uint64(uint64(rec.Size))
	w.uint32(uint32(rec.PieceSize))
	w.uint64(uint64(rec.Created))
	w.uint64(uint64(rec.Expires))
	w.uint32(uint32(len(rec.PieceHashes)))
	for i := range rec.PieceHashes {
		w.fixed(rec.PieceHashes[i][:])
	}
	w.fixed(rec.Signature[:])
}

// decodeMetadataBody parses the metadata payload without a header.
func decodeMetadataBody(c *Cursor, m *Metadata) {
	m.Popularity = math.Float64frombits(c.Uint64())
	rec := &m.Record
	rec.URI = metadata.URI(c.Str(maxStrLen))
	rec.Name = c.Str(maxStrLen)
	rec.Publisher = c.Str(maxStrLen)
	rec.Description = c.Str(maxStrLen)
	rec.Size = int64(c.Uint64())
	rec.PieceSize = int(c.Uint32())
	rec.Created = simtime.Time(c.Uint64())
	rec.Expires = simtime.Time(c.Uint64())
	rec.PieceHashes = make([][sha1.Size]byte, c.Count("piece hash list", maxListLen, sha1.Size))
	for i := range rec.PieceHashes {
		c.Fixed(rec.PieceHashes[i][:])
	}
	c.Fixed(rec.Signature[:])
}

// EncodeMetadata serializes a discovery payload.
func EncodeMetadata(m *Metadata) []byte {
	w := header(TypeMetadata)
	encodeMetadataBody(w, m)
	return w.b
}

func decodeMetadata(c *Cursor) *Metadata {
	m := &Metadata{}
	decodeMetadataBody(c, m)
	return m
}

// EncodePiece serializes a download payload.
func EncodePiece(p *Piece) []byte {
	w := header(TypePiece)
	w.str(string(p.URI))
	w.uint32(uint32(p.Index))
	w.uint32(uint32(p.Total))
	w.bytes(p.Data)
	w.flag(p.Piggyback != nil)
	if p.Piggyback != nil {
		encodeMetadataBody(w, p.Piggyback)
	}
	return w.b
}

func decodePiece(c *Cursor) *Piece {
	p := &Piece{}
	p.URI = metadata.URI(c.Str(maxStrLen))
	p.Index = int(c.Uint32())
	p.Total = int(c.Uint32())
	p.Data = c.Bytes(maxDataLen)
	if c.Flag("piggyback") {
		p.Piggyback = decodeMetadata(c)
	}
	return p
}

// Verify reports whether the piece's data matches the checksum in the
// given metadata record (the receiver-side integrity check).
func (p *Piece) Verify(rec *metadata.Metadata) bool {
	return rec.URI == p.URI && rec.VerifyPiece(p.Index, p.Data)
}

// Msg is any decoded on-air message: one of the thirteen frame structs
// the kind table lists, or a pre-encoded Raw.
type Msg interface {
	// Type returns the message's wire type tag.
	Type() MsgType
}

// Raw is a pre-encoded message: Encode returns Frame as-is, so one
// encoding can fan out to many connections without re-serializing per
// peer. The beacon path uses it — a node with hundreds of live peers
// encodes its hello once per tick instead of once per peer. Frame must
// be a complete encoded message of type T and must not be mutated after
// the first Send; receivers decode it into the ordinary typed messages,
// so Raw never appears on the receive path.
type Raw struct {
	T     MsgType
	Frame []byte
}

// NewRaw pre-encodes m for fan-out.
func NewRaw(m Msg) *Raw { return &Raw{T: m.Type(), Frame: Encode(m)} }

// Type implements Msg.
func (r *Raw) Type() MsgType { return r.T }

// Type implements Msg.
func (*Hello) Type() MsgType { return TypeHello }

// Type implements Msg.
func (*Metadata) Type() MsgType { return TypeMetadata }

// Type implements Msg.
func (*Piece) Type() MsgType { return TypePiece }

// Encode serializes any message.
func Encode(m Msg) []byte {
	if r, ok := m.(*Raw); ok {
		return r.Frame
	}
	return m.Type().row().encode(m)
}

// Peek returns the message type of an encoded buffer without decoding it.
func Peek(b []byte) (MsgType, error) {
	if len(b) < 3 {
		return 0, ErrTruncated
	}
	if b[0] != magic {
		return 0, ErrBadMagic
	}
	if b[1] != version {
		return 0, fmt.Errorf("version %d: %w", b[1], ErrVersion)
	}
	t := MsgType(b[2])
	if t.row().decode == nil {
		return 0, fmt.Errorf("type %d: %w", b[2], ErrBadType)
	}
	return t, nil
}

// Decode parses any encoded message, dispatching on the header's type
// tag. Errors wrap the sentinel decode errors (ErrTruncated, ErrBadMagic,
// ErrVersion, ...) so callers can distinguish framing garbage from a
// version mismatch from a malformed body.
func Decode(b []byte) (Msg, error) {
	t, err := Peek(b)
	if err != nil {
		return nil, err
	}
	c := NewCursor(b[3:])
	m := t.row().decode(c)
	if err := c.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeAs is Decode for a caller that knows which kind it holds.
func decodeAs[M Msg](b []byte) (M, error) {
	m, err := Decode(b)
	if err != nil {
		var none M
		return none, err
	}
	typed, ok := m.(M)
	if !ok {
		return typed, fmt.Errorf("got %v, want %T: %w", m.Type(), typed, ErrBadType)
	}
	return typed, nil
}

// DecodeHello parses a hello beacon.
func DecodeHello(b []byte) (*Hello, error) { return decodeAs[*Hello](b) }

// DecodeMetadata parses a discovery payload.
func DecodeMetadata(b []byte) (*Metadata, error) { return decodeAs[*Metadata](b) }

// DecodePiece parses a download payload.
func DecodePiece(b []byte) (*Piece, error) { return decodeAs[*Piece](b) }
