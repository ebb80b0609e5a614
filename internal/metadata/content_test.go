package metadata

import (
	"crypto/sha1"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"slices"
	"testing"

	"repro/internal/simtime"
)

// TestSyntheticPieceGolden pins the generated bytes: every published
// record's piece checksums, the WAL crash fixtures and the swarm
// digests assume them, so the generator may get faster but never
// different. The digests are SHA-256 over piece 3 of dtn://files/7 at
// sizes around the 20-byte block edge and at the sizes the workloads use.
func TestSyntheticPieceGolden(t *testing.T) {
	for _, tc := range []struct {
		size   int
		sha256 string
	}{
		{1, "d4b0c0a4a8cc6c257aed34d16d39dd3c2d3539ed67fd4badd40aef16c1591715"},
		{19, "2aeeea697ced5bbdbda57fa4dc006ea446c65aecfff5f7af730837157607332a"},
		{20, "1b6c97af12c9c03df580b354a61567ed57f64da0b4cc1a9f4f4d451abc32e5c2"},
		{21, "9bccf4a35a8917c72514cbcb496e84f7f00f461380b8f7c55c5d1afbebc3ccf3"},
		{4096, "5ef2add92b84c227b2e66eae10de94234b3b477027717b4b535c6d86f6452a3a"},
		{200001, "2905316af17a4ba00589c57697925c3e4641a3c7dc4092706d6efaeba105d3c5"},
		{262144, "cfb6bf6673d1b117183b185ed29fc88c00eaa78dc781bcc732a61458c709fe15"},
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
