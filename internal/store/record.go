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

// rreader consumes an encoded record body.
type rreader struct{ b []byte }

func (r *rreader) uint32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, ErrBadRecord
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *rreader) uint64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, ErrBadRecord
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *rreader) str() (string, error) {
	n, err := r.uint32()
	if err != nil {
		return "", err
	}
	if int64(n) > maxRecordLen || len(r.b) < int(n) {
		return "", ErrBadRecord
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

func (r *rreader) done() error {
	if len(r.b) != 0 {
		return fmt.Errorf("%d trailing bytes: %w", len(r.b), ErrBadRecord)
	}
	return nil
}

// DecodeRecord parses one encoded record. Every malformed input returns
// an error wrapping ErrBadRecord; it never panics.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("empty: %w", ErrBadRecord)
	}
	r := &rreader{b: b[1:]}
	switch Kind(b[0]) {
	case KindPiece:
		uri, err := r.str()
		if err != nil {
			return nil, err
		}
		idx, err := r.uint32()
		if err != nil {
			return nil, err
		}
		total, err := r.uint32()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		rec := &PieceRecord{URI: metadata.URI(uri), Index: int(idx), Total: int(total)}
		if rec.Total <= 0 || rec.Index < 0 || rec.Index >= rec.Total {
			return nil, fmt.Errorf("piece %d of %d: %w", rec.Index, rec.Total, ErrBadRecord)
		}
		return rec, nil
	case KindMetadata:
		n, err := r.uint32()
		if err != nil {
			return nil, err
		}
		if int64(n) > maxRecordLen || len(r.b) < int(n) {
			return nil, fmt.Errorf("metadata body %d: %w", n, ErrBadRecord)
		}
		wm, err := wire.DecodeMetadata(r.b[:n])
		if err != nil {
			return nil, fmt.Errorf("metadata body: %v: %w", err, ErrBadRecord)
		}
		r.b = r.b[n:]
		flag, err := r.oneByte()
		if err != nil {
			return nil, err
		}
		if flag > 1 {
			return nil, fmt.Errorf("selected flag %d: %w", flag, ErrBadRecord)
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		return &MetadataRecord{Popularity: wm.Popularity, Meta: wm.Record, Selected: flag == 1}, nil
	case KindCredit:
		peer, err := r.uint32()
		if err != nil {
			return nil, err
		}
		bits, err := r.uint64()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		delta := math.Float64frombits(bits)
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return nil, fmt.Errorf("credit delta %v: %w", delta, ErrBadRecord)
		}
		return &CreditRecord{Peer: trace.NodeID(peer), Delta: delta}, nil
	case KindQuarantine:
		peer, err := r.uint32()
		if err != nil {
			return nil, err
		}
		strikes, err := r.uint32()
		if err != nil {
			return nil, err
		}
		until, err := r.uint64()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		return &QuarantineRecord{
			Peer:           trace.NodeID(peer),
			Strikes:        int(strikes),
			UntilUnixMilli: int64(until),
		}, nil
	default:
		return nil, fmt.Errorf("kind %d: %w", b[0], ErrBadRecord)
	}
}

func (r *rreader) oneByte() (byte, error) {
	if len(r.b) < 1 {
		return 0, ErrBadRecord
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}
