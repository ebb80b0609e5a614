package metadata

import (
	"bytes"
	"crypto/aes"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"

	"repro/internal/simtime"
)

// TestSyntheticPieceGolden pins the generated bytes: a published record's
// piece checksums are taken over them, so two nodes of one fleet must
// generate the same ones, and the generator may get faster but never
// different without a new pin. The digests are SHA-256 over piece 3 of
// dtn://files/7 at sizes around the 16-byte AES block edge, around the
// 20-byte edge of the SHA-1 keystream this generator replaced, and at
// the sizes the workloads use.
func TestSyntheticPieceGolden(t *testing.T) {
	for _, tc := range []struct {
		size   int
		sha256 string
	}{
		{1, "2e7d2c03a9507ae265ecf5b5356885a53393a2029d241394997265a1a25aefc6"},
		{15, "4bd6f6cb74aebba697666709741e797ac989a53cac2e44b8b9fb3cf78450c45d"},
		{16, "d186b56dd7aee7942033fb569f5e65de4df2c42560229d003dbf19dea5dbbd84"},
		{17, "cd8fa2e4090cbc4c0bf9ff50d7410e3d82d8942c04d2eab6718568fc7d8b33e8"},
		{19, "942a5bf5f46012042a673d26a667113337b3bad0beb0e718e66443c668c3cafd"},
		{20, "40a13f65a0b2001139fddde14acb811138443d49a7be10f6dada1f1a369ad080"},
		{21, "68942eb5588a663b8b4825a69d2a56e1bf06f35a93ddc7d3840d28840b05c41a"},
		{4096, "6ba0843bd29c0e77918348cce809bf4b523f0c25eb3874663ab3d3f51be8ae39"},
		{200001, "722ab4890c80b87ecf6b1b727179e858eb635e404f1c7c1a5bcde5521bba107e"},
		{262144, "896765ba469096442de45641b0fca9d7296171c159aa464e2931fa96760f3f50"},
	} {
		data := SyntheticPiece("dtn://files/7", 3, tc.size)
		if len(data) != tc.size {
			t.Errorf("size %d: got %d bytes", tc.size, len(data))
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("size %d: sha256 %s, want %s", tc.size, got, tc.sha256)
		}
	}
}

// TestSyntheticPieceIsCounterMode: a piece is block k = AES-128 of the
// big-endian counter k under the first 16 bytes of SHA-1(uri ‖ i), cut
// to the piece's length — checked block by block with the bare cipher,
// so the pins above are the stated construction's and a shorter piece
// is a prefix of a longer one.
func TestSyntheticPieceIsCounterMode(t *testing.T) {
	const uri, i = "dtn://files/7", 3
	seed := sha1.Sum(binary.BigEndian.AppendUint64([]byte(uri), i))
	block, err := aes.NewCipher(seed[:16])
	if err != nil {
		t.Fatal(err)
	}
	long := SyntheticPiece(uri, i, 100)
	var want []byte
	for k := uint64(0); len(want) < len(long); k++ {
		var ctr, out [aes.BlockSize]byte
		binary.BigEndian.PutUint64(ctr[8:], k)
		block.Encrypt(out[:], ctr[:])
		want = append(want, out[:]...)
	}
	if !bytes.Equal(long, want[:len(long)]) {
		t.Fatal("piece is not the AES-128-CTR keystream of its seed")
	}
	for _, n := range []int{0, 1, 15, 16, 17, 33} {
		if short := SyntheticPiece(uri, i, n); !bytes.Equal(short, long[:n]) {
			t.Fatalf("the %d-byte piece is not a prefix of the 100-byte one", n)
		}
	}
}

var pieceSink []byte

// BenchmarkSyntheticPiece is the seeder's content generator at the
// paper's 256 KiB piece size — bulk-tcp's pace.
func BenchmarkSyntheticPiece(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(DefaultPieceSize)
	for i := 0; i < b.N; i++ {
		pieceSink = SyntheticPiece("dtn://files/7", i, DefaultPieceSize)
	}
}

// TestParallelPublishIsSerial: NewSynthetic's workers build the record a
// serial loop over SyntheticPiece builds — the same hashes at the same
// indices and the same signature — at one, two and eight Ps, for a file
// with a short last piece, a one-piece file, a file shorter than a piece
// and an empty file.
func TestParallelPublishIsSerial(t *testing.T) {
	serial := func(m *Metadata) *Metadata {
		ref := m.Clone()
		for i := range ref.PieceHashes {
			ref.PieceHashes[i] = sha1.Sum(SyntheticPiece(ref.URI, i, ref.PieceLen(i)))
		}
		ref.Sign(testKey)
		return ref
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			name            string
			size            int64
			pieceSize, want int
		}{
			{"short last piece", 17*4096 + 1234, 4096, 18},
			{"whole pieces", 16 * 4096, 4096, 16},
			{"one piece", 4096, 4096, 1},
			{"shorter than a piece", 1000, 4096, 1},
			{"empty", 0, 4096, 0},
		} {
			m := NewSynthetic(5, "f5", "pub", "", tc.size, tc.pieceSize, 0, simtime.Days(1), testKey)
			if len(m.PieceHashes) != tc.want {
				t.Fatalf("GOMAXPROCS %d, %s: %d hashes, want %d", procs, tc.name, len(m.PieceHashes), tc.want)
			}
			ref := serial(m)
			if !slices.Equal(m.PieceHashes, ref.PieceHashes) || m.Signature != ref.Signature {
				t.Fatalf("GOMAXPROCS %d, %s: the parallel record differs from the serial one", procs, tc.name)
			}
			for i := range m.PieceHashes {
				if !m.VerifyPiece(i, SyntheticPiece(m.URI, i, m.PieceLen(i))) {
					t.Fatalf("GOMAXPROCS %d, %s: piece %d fails its own hash", procs, tc.name, i)
				}
			}
		}
	}
}
