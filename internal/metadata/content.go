package metadata

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha1"
	"encoding/binary"
	"runtime"
	"sync"

	"repro/internal/simtime"
)

// SyntheticPiece deterministically generates the content of piece i of the
// file at uri. The simulator never ships real media, but examples and
// tests exercise the full checksum path with content derived from
// (uri, piece index) so that every piece is unique and reproducible.
func SyntheticPiece(uri URI, i, size int) []byte {
	data := make([]byte, size)
	fillSynthetic(data, uri, i)
	return data
}

// fillSynthetic writes piece i of the file at uri over data, whose
// length is the piece's: SyntheticPiece into a buffer the caller reuses.
// The bytes are the AES-128-CTR keystream under the first 16 bytes of
// SHA-1(uri ‖ i), from a zero counter: a pure function of (uri, i) whose
// shorter pieces are prefixes of longer ones, produced at the cipher's
// hardware speed — well above a link's, so a seeder's pace is the wire
// and the verify, not its content.
func fillSynthetic(data []byte, uri URI, i int) {
	// seed = SHA-1(uri ‖ i); short URIs stay on the stack.
	in := make([]byte, 0, 128)
	in = append(in, uri...)
	in = binary.BigEndian.AppendUint64(in, uint64(i))
	seed := sha1.Sum(in)
	block, err := aes.NewCipher(seed[:16])
	if err != nil {
		panic(err) // unreachable: a 16-byte key is always valid
	}
	var iv [aes.BlockSize]byte
	clear(data)
	cipher.NewCTR(block, iv[:]).XORKeyStream(data, data)
}

// NewSynthetic builds signed metadata for a synthetic file whose pieces
// come from SyntheticPiece, so that VerifyPiece succeeds on generated
// content. size is the file length in bytes; created/ttl set the record's
// lifetime; key signs the record. The pieces are generated and hashed
// on min(GOMAXPROCS, pieces) workers, each striding over the file with
// one reused piece buffer; every hash lands at its own index, so the
// record is the one a serial loop builds.
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
	workers := min(runtime.GOMAXPROCS(0), n)
	hash := func(first int) {
		buf := make([]byte, m.pieceLen(0))
		for i := first; i < n; i += workers {
			piece := buf[:m.pieceLen(i)]
			fillSynthetic(piece, m.URI, i)
			m.PieceHashes[i] = sha1.Sum(piece)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hash(w)
		}()
	}
	if workers > 0 {
		hash(0)
	}
	wg.Wait()
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
