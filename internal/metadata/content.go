package metadata

import (
	"crypto/sha1"
	"encoding/binary"

	"repro/internal/simtime"
)

// SyntheticPiece deterministically generates the content of piece i of the
// file at uri. The simulator never ships real media, but examples and
// tests exercise the full checksum path with content derived from
// (uri, piece index) so that every piece is unique and reproducible.
func SyntheticPiece(uri URI, i, size int) []byte {
	data := make([]byte, size)
	// seed = SHA-1(uri ‖ i); short URIs stay on the stack.
	in := make([]byte, 0, 128)
	in = append(in, uri...)
	in = binary.BigEndian.AppendUint64(in, uint64(i))
	seed := sha1.Sum(in)

	// Expand the seed with SHA-1 in counter mode: block off is
	// SHA-1(seed ‖ off). One stack input and sha1.Sum per block — this
	// is the seeder's per-byte cost, so it must not allocate per block.
	var block [sha1.Size + 8]byte
	copy(block[:], seed[:])
	for off := 0; off < size; {
		binary.BigEndian.PutUint64(block[sha1.Size:], uint64(off))
		sum := sha1.Sum(block[:])
		off += copy(data[off:], sum[:])
	}
	return data
}

// NewSynthetic builds signed metadata for a synthetic file whose pieces
// come from SyntheticPiece, so that VerifyPiece succeeds on generated
// content. size is the file length in bytes; created/ttl set the record's
// lifetime; key signs the record.
func NewSynthetic(id FileID, name, publisher, description string, size int64,
	pieceSize int, created simtime.Time, ttl simtime.Duration, key []byte) *Metadata {
	m := &Metadata{
		URI:         URIFor(id),
		Name:        name,
		Publisher:   publisher,
		Description: description,
		Size:        size,
		PieceSize:   pieceSize,
		Created:     created,
		Expires:     created.Add(ttl),
	}
	n := m.NumPieces()
	m.PieceHashes = make([][sha1.Size]byte, n)
	for i := 0; i < n; i++ {
		m.PieceHashes[i] = sha1.Sum(SyntheticPiece(m.URI, i, m.pieceLen(i)))
	}
	m.Sign(key)
	return m
}

// pieceLen returns the byte length of piece i (the final piece may be
// short).
func (m *Metadata) pieceLen(i int) int {
	if i < m.NumPieces()-1 {
		return m.PieceSize
	}
	rem := int(m.Size % int64(m.PieceSize))
	if rem == 0 {
		return m.PieceSize
	}
	return rem
}

// PieceLen returns the byte length of piece i, or 0 if i is out of range.
func (m *Metadata) PieceLen(i int) int {
	if i < 0 || i >= m.NumPieces() {
		return 0
	}
	return m.pieceLen(i)
}
