package testutil

import (
	"crypto/sha1"
	"encoding/binary"
)

// SHA1CounterPiece is the synthetic piece content metadata.SyntheticPiece
// generated before it became an AES-CTR keystream: block off of the piece
// is SHA-1(seed ‖ off), with seed = SHA-1(uri ‖ i). Fixtures pinned on
// the old bytes — the wire seed frames and the committed FuzzDecode
// corpus — build their pieces and piece hashes from it, so they stay
// evidence about the codec rather than about the content generator.
func SHA1CounterPiece(uri string, i, size int) []byte {
	seed := sha1.Sum(binary.BigEndian.AppendUint64([]byte(uri), uint64(i)))
	data := make([]byte, size)
	var block [sha1.Size + 8]byte
	copy(block[:], seed[:])
	for off := 0; off < len(data); {
		binary.BigEndian.PutUint64(block[sha1.Size:], uint64(off))
		sum := sha1.Sum(block[:])
		off += copy(data[off:], sum[:])
	}
	return data
}
