package wire

import (
	"bytes"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// seedFrames returns at least one valid encoding of every frame kind: the
// fuzz corpus's starting points and the rows of the conformance table
// (kind_test.go). Their pieces and piece hashes are the SHA-1 counter
// fill the seeder generated when seedFramesDigest was taken, so the
// digest stays a statement about the encoder alone.
func seedFrames() [][]byte {
	m := sampleMeta()
	piece := func(i int) []byte {
		return testutil.SHA1CounterPiece(string(m.Record.URI), i, m.Record.PieceLen(i))
	}
	for i := range m.Record.PieceHashes {
		m.Record.PieceHashes[i] = sha1.Sum(piece(i))
	}
	m.Record.Sign(key)
	sv, nr := sampleStoreValue(), sampleNodesReply()
	sv.Value.Meta, nr.Values[0].Meta = *m, *m
	data := piece(0)
	return [][]byte{
		EncodeHello(&Hello{
			From:        7,
			Heard:       []trace.NodeID{1, 2, 9},
			Queries:     []string{"jazz", "late show"},
			Downloading: []metadata.URI{"dtn://files/3"},
		}),
		EncodeHello(&Hello{From: 0}),
		EncodeHello(&Hello{
			From:        9,
			Heard:       []trace.NodeID{1, 7},
			Downloading: []metadata.URI{"dtn://files/3", "dtn://files/4"},
			Deals: []Deal{
				{URI: "dtn://files/3", No: 2, Suppliers: []trace.NodeID{1, 7}},
				{URI: "dtn://files/4", No: 1},
			},
		}),
		EncodeMetadata(m),
		EncodePiece(&Piece{URI: m.Record.URI, Index: 0, Total: m.Record.NumPieces(), Data: data}),
		EncodePiece(&Piece{URI: m.Record.URI, Index: 1, Total: m.Record.NumPieces(),
			Data: piece(1), Piggyback: m}),
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
		EncodeStoreValue(sv),
		EncodeNodesReply(nr),
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
		if !bytes.Equal(bytes.Join(AppendSegments(nil, m), nil), b) {
			t.Fatalf("segments of %T do not join to the input", m)
		}
	})
}

// FuzzRoundTrip builds a hello from arbitrary fields — a download
// carries a deal numbered dealNo naming heard and, when they differ,
// from — and checks that encode→decode preserves it, and that the
// generic Decode agrees with the typed decoder.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(7), uint32(3), "jazz", "dtn://files/3", uint32(1))
	f.Add(uint32(0), uint32(0), "", "", uint32(0))
	f.Add(uint32(1<<31), uint32(12345), "late show night", "dtn://files/999", uint32(1<<31))
	f.Fuzz(func(t *testing.T, from, heard uint32, query, uri string, dealNo uint32) {
		h := &Hello{From: trace.NodeID(from)}
		if heard != 0 {
			h.Heard = []trace.NodeID{trace.NodeID(heard)}
		}
		if query != "" {
			h.Queries = []string{query}
		}
		if uri != "" {
			h.Downloading = []metadata.URI{metadata.URI(uri)}
			dl := Deal{URI: metadata.URI(uri), No: dealNo, Suppliers: h.Heard}
			if from != heard {
				dl.Suppliers = append(dl.Suppliers, trace.NodeID(from))
			}
			h.Deals = []Deal{dl}
		}
		b := EncodeHello(h)
		if !bytes.Equal(bytes.Join(AppendSegments(nil, h), nil), b) {
			t.Fatal("segments do not join to Encode")
		}
		got, err := DecodeHello(b)
		if err != nil {
			t.Fatalf("DecodeHello: %v", err)
		}
		if got.From != h.From || len(got.Heard) != len(h.Heard) ||
			len(got.Queries) != len(h.Queries) || len(got.Downloading) != len(h.Downloading) ||
			len(got.Deals) != len(h.Deals) {
			t.Fatalf("round trip:\nin  %+v\nout %+v", h, got)
		}
		for i, dl := range h.Deals {
			if g := got.Deals[i]; g.URI != dl.URI || g.No != dl.No || !slices.Equal(g.Suppliers, dl.Suppliers) {
				t.Fatalf("deal %d: in %+v, out %+v", i, dl, g)
			}
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

// seedFramesDigest is the SHA-256 over seedFrames, each frame behind its
// 4-byte length, computed by the encoder before it kept payloads as
// segments (every field appended to one buffer): the segmented encoder
// puts the same bytes on the wire.
const seedFramesDigest = "3846013a7d454b5af66b8a91aef31ef9306cf81b5549ec514a4c19935a777b66"

// corpusFrames reads the committed FuzzDecode inputs.
func corpusFrames(t *testing.T) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzDecode corpus: %v", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		body, ok2 := strings.CutSuffix(strings.TrimSpace(body), ")")
		if !ok || !ok2 {
			t.Fatalf("%s: not a one-[]byte corpus file", f)
		}
		frame, err := strconv.Unquote(body)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(frame))
	}
	return out
}

// TestSegmentsJoinToEncode: for every kind-table frame among the fuzz
// seeds and the committed corpus (inputs the appending encoder wrote or
// mutated), the decoded message's segments join to exactly the frame —
// the pre-segment encoding, which FuzzDecode holds canonical — and a
// payload of bigField bytes or more is one of them by reference.
func TestSegmentsJoinToEncode(t *testing.T) {
	h := sha256.New()
	for _, f := range seedFrames() {
		h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(f))))
		h.Write(f)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seedFramesDigest {
		t.Fatalf("seed frames digest %s, want %s", got, seedFramesDigest)
	}
	kinds := map[MsgType]bool{}
	for i, frame := range append(seedFrames(), corpusFrames(t)...) {
		m, err := Decode(frame)
		if err != nil {
			continue
		}
		kinds[m.Type()] = true
		segs := AppendSegments(nil, m)
		if !bytes.Equal(bytes.Join(segs, nil), frame) || !bytes.Equal(Encode(m), frame) {
			t.Fatalf("frame %d (%v): segments or Encode differ from the frame", i, m.Type())
		}
		var payload []byte
		switch v := m.(type) {
		case *Piece:
			payload = v.Data
		case *PieceBcast:
			payload = v.Data
		case *Symbol:
			payload = v.Payload
		}
		if len(payload) >= bigField && !slices.ContainsFunc(segs, func(s []byte) bool { return &s[0] == &payload[0] }) {
			t.Fatalf("frame %d (%v): the %d-byte payload was copied into the encoding", i, m.Type(), len(payload))
		}
	}
	for tag := MsgType(0); tag < NumTypes; tag++ {
		if !unassignedTags[tag] && !kinds[tag] {
			t.Fatalf("no decodable frame of kind %v", tag)
		}
	}
}
