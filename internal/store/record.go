package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/metadata"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Kind tags one WAL record.
type Kind byte

// The persisted event kinds: everything a node accumulates across
// contacts that a crash must not erase.
const (
	// KindPiece records one checksum-verified piece received.
	KindPiece Kind = iota + 1
	// KindMetadata records a newly learned metadata record with its
	// advisory popularity and whether the node selected it for download.
	KindMetadata
	// KindCredit records a tit-for-tat credit delta for one peer.
	KindCredit
	// KindQuarantine records a bad-signature quarantine penalty.
	KindQuarantine
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case KindPiece:
		return "piece"
	case KindMetadata:
		return "metadata"
	case KindCredit:
		return "credit"
	case KindQuarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("Kind(%d)", byte(k))
	}
}

// Record is one durable event. The concrete types are PieceRecord,
// MetadataRecord, CreditRecord, and QuarantineRecord.
type Record interface {
	RecordKind() Kind
}

// PieceRecord notes that piece Index of the file at URI verified against
// its checksum and is held. Total pins the file's piece count so a
// piece-only file (no metadata yet) still has a sized bitmap.
type PieceRecord struct {
	URI   metadata.URI
	Index int
	Total int
}

// RecordKind implements Record.
func (*PieceRecord) RecordKind() Kind { return KindPiece }

// MetadataRecord notes a signed metadata record the node stored, with
// the popularity it was told and whether the user (or FetchMatching)
// selected the file for download.
type MetadataRecord struct {
	Popularity float64
	Meta       metadata.Metadata
	Selected   bool
}

// RecordKind implements Record.
func (*MetadataRecord) RecordKind() Kind { return KindMetadata }

// CreditRecord notes a tit-for-tat credit delta earned by Peer.
type CreditRecord struct {
	Peer  trace.NodeID
	Delta float64
}

// RecordKind implements Record.
func (*CreditRecord) RecordKind() Kind { return KindCredit }

// QuarantineRecord notes a bad-signature quarantine penalty applied to
// Peer: the strike count and the wall-clock end of the penalty, so a
// restart does not amnesty an offender mid-sentence.
type QuarantineRecord struct {
	Peer           trace.NodeID
	Strikes        int
	UntilUnixMilli int64
}

// RecordKind implements Record.
func (*QuarantineRecord) RecordKind() Kind { return KindQuarantine }

// Codec errors. ErrBadRecord wraps every malformed-record cause so
// replay can match one sentinel.
var (
	ErrBadRecord = errors.New("store: malformed record")
)

// maxRecordLen caps one encoded record; a metadata record for a large
// file (piece hash per 256 KB) dominates, and 4 MB covers files far
// beyond the synthetic catalog's.
const maxRecordLen = 4 << 20

// EncodeRecord serializes one record as kind byte + body, following the
// wire codec discipline: big-endian, length-prefixed variable fields.
// The metadata body is the wire codec's own metadata encoding, so the
// WAL and the air share one source of truth for the record layout.
func EncodeRecord(rec Record) []byte { return appendRecord(nil, rec) }

// appendRecord appends rec's encoding to b.
func appendRecord(b []byte, rec Record) []byte {
	switch r := rec.(type) {
	case *PieceRecord:
		b = append(b, byte(KindPiece))
		b = appendStr(b, string(r.URI))
		b = binary.BigEndian.AppendUint32(b, uint32(r.Index))
		b = binary.BigEndian.AppendUint32(b, uint32(r.Total))
		return b
	case *MetadataRecord:
		b = append(b, byte(KindMetadata))
		enc := wire.EncodeMetadata(&wire.Metadata{Popularity: r.Popularity, Record: r.Meta})
		b = binary.BigEndian.AppendUint32(b, uint32(len(enc)))
		b = append(b, enc...)
		if r.Selected {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		return b
	case *CreditRecord:
		b = append(b, byte(KindCredit))
		b = binary.BigEndian.AppendUint32(b, uint32(r.Peer))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Delta))
		return b
	case *QuarantineRecord:
		b = append(b, byte(KindQuarantine))
		b = binary.BigEndian.AppendUint32(b, uint32(r.Peer))
		b = binary.BigEndian.AppendUint32(b, uint32(r.Strikes))
		b = binary.BigEndian.AppendUint64(b, uint64(r.UntilUnixMilli))
		return b
	default:
		panic(fmt.Sprintf("store: EncodeRecord(%T)", rec))
	}
}

func appendStr(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// DecodeRecord parses one encoded record, reading the body through the
// wire codec's cursor. Every malformed input returns an error wrapping
// ErrBadRecord; it never panics.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("empty: %w", ErrBadRecord)
	}
	c := wire.NewCursor(b[1:])
	var rec Record
	var err error
	switch Kind(b[0]) {
	case KindPiece:
		r := &PieceRecord{}
		r.URI = metadata.URI(c.Str(maxRecordLen))
		r.Index = int(c.Uint32())
		r.Total = int(c.Uint32())
		if r.Total <= 0 || r.Index < 0 || r.Index >= r.Total {
			err = fmt.Errorf("piece %d of %d", r.Index, r.Total)
		}
		rec = r
	case KindMetadata:
		body := c.View("metadata body", maxRecordLen)
		selected := c.Flag("selected")
		var wm *wire.Metadata
		if wm, err = wire.DecodeMetadata(body); err == nil {
			rec = &MetadataRecord{Popularity: wm.Popularity, Meta: wm.Record, Selected: selected}
		}
	case KindCredit:
		r := &CreditRecord{}
		r.Peer = trace.NodeID(c.Uint32())
		r.Delta = math.Float64frombits(c.Uint64())
		if math.IsNaN(r.Delta) || math.IsInf(r.Delta, 0) {
			err = fmt.Errorf("credit delta %v", r.Delta)
		}
		rec = r
	case KindQuarantine:
		r := &QuarantineRecord{}
		r.Peer = trace.NodeID(c.Uint32())
		r.Strikes = int(c.Uint32())
		r.UntilUnixMilli = int64(c.Uint64())
		rec = r
	default:
		return nil, fmt.Errorf("kind %d: %w", b[0], ErrBadRecord)
	}
	// The cursor's failure (a short or over-long field, trailing bytes)
	// comes first: a value check on fields it never read means nothing.
	if cerr := c.Done(); cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrBadRecord)
	}
	return rec, nil
}
