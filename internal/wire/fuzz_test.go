package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/metadata"
	"repro/internal/trace"
)

// seedFrames returns at least one valid encoding of every frame kind: the
// fuzz corpus's starting points and the rows of the conformance table
// (kind_test.go).
func seedFrames() [][]byte {
	m := sampleMeta()
	data := metadata.SyntheticPiece(m.Record.URI, 0, m.Record.PieceLen(0))
	return [][]byte{
		EncodeHello(&Hello{
			From:        7,
			Heard:       []trace.NodeID{1, 2, 9},
			Queries:     []string{"jazz", "late show"},
			Downloading: []metadata.URI{"dtn://files/3"},
		}),
		EncodeHello(&Hello{From: 0}),
		EncodeMetadata(m),
		EncodePiece(&Piece{URI: m.Record.URI, Index: 0, Total: m.Record.NumPieces(), Data: data}),
		EncodePiece(&Piece{URI: m.Record.URI, Index: 1, Total: m.Record.NumPieces(),
			Data: metadata.SyntheticPiece(m.Record.URI, 1, m.Record.PieceLen(1)), Piggyback: m}),
		EncodeGroupHello(sampleGroupHello()),
		EncodeGroupHello(&GroupHello{From: 0}),
		EncodeGrant(&Grant{From: 3, To: 7, Round: 9, URI: m.Record.URI, Piece: 2}),
		EncodeGrant(&Grant{From: 3, To: 11, Round: 10, Piece: NoPiece}),
		EncodePieceBcast(&PieceBcast{From: 7, Round: 4, URI: m.Record.URI, Index: 0,
			Total: m.Record.NumPieces(), Data: data}),
		EncodeSymbol(sampleSymbol()),
		EncodeSymbolAck(sampleSymbolAck()),
		EncodeFindNode(sampleFindNode()),
		EncodeFindValue(sampleFindValue()),
		EncodeStoreValue(sampleStoreValue()),
		EncodeNodesReply(sampleNodesReply()),
		EncodeNodesReply(&NodesReply{From: 5, FromAddr: "n5", RPCID: 1}),
		EncodeBusy(&Busy{From: 9, Scope: BusyPiece, RetryAfterMillis: 250}),
		EncodeBusy(&Busy{From: 2, Scope: BusyDHT}),
	}
}

// FuzzDecode feeds arbitrary bytes to the generic decoder: it must never
// panic, and on success the decoded message must re-encode to the exact
// input (decode∘encode is the identity on valid frames).
func FuzzDecode(f *testing.F) {
	for _, b := range seedFrames() {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{magic})
	f.Add([]byte{magic, version})
	f.Add([]byte{magic, version, byte(TypeHello)})
	f.Add([]byte{0xFF, version, byte(TypeHello), 0, 0, 0, 0})
	f.Add([]byte{magic, 99, byte(TypePiece)})
	// A well-formed body under the retired tag 5 (the schedule frame).
	f.Add([]byte{magic, version, 5, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 9, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			if m != nil {
				t.Fatalf("Decode returned non-nil message %T with error %v", m, err)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) &&
				!errors.Is(err, ErrVersion) && !errors.Is(err, ErrBadType) &&
				!errors.Is(err, ErrTrailing) && !errors.Is(err, ErrTooLong) {
				t.Fatalf("Decode error %v does not wrap a sentinel", err)
			}
			return
		}
		if !bytes.Equal(Encode(m), b) {
			t.Fatalf("re-encode mismatch for %T", m)
		}
	})
}

// FuzzRoundTrip builds a hello from arbitrary fields and checks that
// encode→decode preserves it, and that the generic Decode agrees with the
// typed decoder.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(7), uint32(3), "jazz", "dtn://files/3")
	f.Add(uint32(0), uint32(0), "", "")
	f.Add(uint32(1<<31), uint32(12345), "late show night", "dtn://files/999")
	f.Fuzz(func(t *testing.T, from, heard uint32, query, uri string) {
		h := &Hello{From: trace.NodeID(from)}
		if heard != 0 {
			h.Heard = []trace.NodeID{trace.NodeID(heard)}
		}
		if query != "" {
			h.Queries = []string{query}
		}
		if uri != "" {
			h.Downloading = []metadata.URI{metadata.URI(uri)}
		}
		b := EncodeHello(h)
		got, err := DecodeHello(b)
		if err != nil {
			t.Fatalf("DecodeHello: %v", err)
		}
		if got.From != h.From || len(got.Heard) != len(h.Heard) ||
			len(got.Queries) != len(h.Queries) || len(got.Downloading) != len(h.Downloading) {
			t.Fatalf("round trip:\nin  %+v\nout %+v", h, got)
		}
		generic, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if generic.Type() != TypeHello {
			t.Fatalf("generic type %v", generic.Type())
		}
	})
}
