package wire

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/trace"
)

var key = []byte("pub-key")

func sampleMeta() *Metadata {
	rec := metadata.NewSynthetic(3, "jazz night live", "FOX",
		"late show description", 600*1024, metadata.DefaultPieceSize,
		simtime.At(0, simtime.FileGenerationOffset), simtime.Days(3), key)
	return &Metadata{Popularity: 0.375, Record: *rec}
}

func TestHelloRoundTrip(t *testing.T) {
	want := NewGroupWant("dtn://files/3", 3, true)
	want.SetHave(0)
	want.SetHave(2)
	h := &Hello{
		From:        7,
		Heard:       []trace.NodeID{1, 2, 9},
		Queries:     []string{"jazz", "late show"},
		Downloading: []metadata.URI{"dtn://files/3"},
		Have:        []GroupWant{*want},
		Deals:       []Deal{{URI: "dtn://files/3", No: 4, Suppliers: []trace.NodeID{2, 9}}},
	}
	b := EncodeHello(h)
	got, err := DecodeHello(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Fatalf("round trip:\nin  %+v\nout %+v", h, got)
	}
	if !got.Have[0].HaveBit(0) || got.Have[0].HaveBit(1) || !got.Have[0].HaveBit(2) {
		t.Fatalf("have bitmap lost: %+v", got.Have[0])
	}
}

// TestVersionOneRefused: a frame of the protocol revision before Deals is
// refused whole, with ErrVersion — the transport closes the connection
// politely rather than misread a hello without its deal list.
func TestVersionOneRefused(t *testing.T) {
	for _, b := range seedFrames() {
		old := append([]byte(nil), b...)
		old[1] = 1
		if m, err := Decode(old); m != nil || !errors.Is(err, ErrVersion) {
			t.Fatalf("version-1 %v frame: %v, %v; want ErrVersion", MsgType(b[2]), m, err)
		}
	}
}

func TestHelloRejectsBadHaveBitset(t *testing.T) {
	// A have bitset whose byte length disagrees with Total is malformed.
	h := &Hello{From: 1, Have: []GroupWant{{URI: "dtn://files/1", Total: 9, Have: []byte{0xFF}}}}
	if _, err := DecodeHello(EncodeHello(h)); err == nil {
		t.Fatal("9-piece want with a 1-byte bitset decoded")
	}
}

func TestEmptyHelloRoundTrip(t *testing.T) {
	h := &Hello{From: 0}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 0 || got.Heard != nil || got.Queries != nil || got.Downloading != nil || got.Have != nil {
		t.Fatalf("got %+v", got)
	}
}

func TestMetadataRoundTripPreservesSignature(t *testing.T) {
	m := sampleMeta()
	b := EncodeMetadata(m)
	got, err := DecodeMetadata(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Popularity != m.Popularity {
		t.Fatalf("popularity %v != %v", got.Popularity, m.Popularity)
	}
	if !got.Record.Verify(key) {
		t.Fatal("decoded record fails signature verification")
	}
	if err := got.Record.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Record.Name != m.Record.Name || got.Record.URI != m.Record.URI {
		t.Fatalf("fields lost: %+v", got.Record)
	}
	if len(got.Record.PieceHashes) != len(m.Record.PieceHashes) {
		t.Fatalf("piece hashes: %d != %d", len(got.Record.PieceHashes), len(m.Record.PieceHashes))
	}
}

func TestPieceRoundTripAndVerify(t *testing.T) {
	m := sampleMeta()
	data := metadata.SyntheticPiece(m.Record.URI, 1, m.Record.PieceLen(1))
	p := &Piece{
		URI:       m.Record.URI,
		Index:     1,
		Total:     m.Record.NumPieces(),
		Data:      data,
		Piggyback: m,
	}
	b := EncodePiece(p)
	got, err := DecodePiece(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.URI != p.URI || got.Index != 1 || got.Total != p.Total {
		t.Fatalf("fields: %+v", got)
	}
	if !got.Verify(&got.Piggyback.Record) {
		t.Fatal("decoded piece fails checksum against piggybacked record")
	}
	if !got.Piggyback.Record.Verify(key) {
		t.Fatal("piggybacked record fails signature")
	}
}

func TestPieceWithoutPiggyback(t *testing.T) {
	p := &Piece{URI: "dtn://files/1", Index: 0, Total: 4, Data: []byte{1, 2, 3}}
	got, err := DecodePiece(EncodePiece(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Piggyback != nil {
		t.Fatalf("unexpected piggyback %+v", got.Piggyback)
	}
}

func TestCorruptedPieceFailsVerify(t *testing.T) {
	m := sampleMeta()
	data := metadata.SyntheticPiece(m.Record.URI, 0, m.Record.PieceLen(0))
	p := &Piece{URI: m.Record.URI, Index: 0, Total: 3, Data: data}
	b := EncodePiece(p)
	// Flip a bit inside the data payload.
	b[len(b)-10] ^= 0x01
	got, err := DecodePiece(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verify(&m.Record) {
		t.Fatal("corrupted piece verified")
	}
}

func TestPeek(t *testing.T) {
	h := EncodeHello(&Hello{From: 1})
	if tp, err := Peek(h); err != nil || tp != TypeHello {
		t.Fatalf("Peek(hello) = %v, %v", tp, err)
	}
	m := EncodeMetadata(sampleMeta())
	if tp, err := Peek(m); err != nil || tp != TypeMetadata {
		t.Fatalf("Peek(metadata) = %v, %v", tp, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := EncodeHello(&Hello{From: 1, Queries: []string{"q"}})
	tests := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", []byte{magic}},
		{"bad magic", append([]byte{0x00}, valid[1:]...)},
		{"bad version", func() []byte {
			b := append([]byte(nil), valid...)
			b[1] = 99
			return b
		}()},
		{"bad type", func() []byte {
			b := append([]byte(nil), valid...)
			b[2] = 99
			return b
		}()},
		{"truncated body", valid[:len(valid)-2]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeHello(tt.b); err == nil {
				t.Fatal("malformed input decoded")
			}
		})
	}
}

func TestDecodeWrongType(t *testing.T) {
	h := EncodeHello(&Hello{From: 1})
	if _, err := DecodeMetadata(h); err == nil {
		t.Fatal("hello decoded as metadata")
	}
	if _, err := DecodePiece(h); err == nil {
		t.Fatal("hello decoded as piece")
	}
}

func TestHostileLengthRejected(t *testing.T) {
	// Claim a gigantic heard-list without providing the bytes.
	w := &buffer{}
	w.byte(magic)
	w.byte(version)
	w.byte(byte(TypeHello))
	w.uint32(1)          // From
	w.uint32(0xFFFFFFFF) // heard count
	if _, err := DecodeHello(w.b); err == nil {
		t.Fatal("hostile list length accepted")
	}
}

func TestHelloRoundTripProperty(t *testing.T) {
	f := func(from uint16, heard []uint16, queries []string) bool {
		h := &Hello{From: trace.NodeID(from)}
		for _, v := range heard {
			h.Heard = append(h.Heard, trace.NodeID(v))
		}
		h.Queries = queries
		got, err := DecodeHello(EncodeHello(h))
		if err != nil {
			return false
		}
		if got.From != h.From || len(got.Heard) != len(h.Heard) || len(got.Queries) != len(h.Queries) {
			return false
		}
		for i := range h.Heard {
			if got.Heard[i] != h.Heard[i] {
				return false
			}
		}
		for i := range h.Queries {
			if got.Queries[i] != h.Queries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(b []byte) bool {
		// Any of the decoders may error, but none may panic.
		_, _ = DecodeHello(b)
		_, _ = DecodeMetadata(b)
		_, _ = DecodePiece(b)
		_, _ = Peek(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeHello.String() != "hello" || TypeMetadata.String() != "metadata" ||
		TypePiece.String() != "piece" {
		t.Fatal("type names wrong")
	}
	if TypeSymbol.String() != "symbol" || TypeSymbolAck.String() != "symbol-ack" {
		t.Fatal("symbol type names wrong")
	}
	if got := MsgType(99).String(); got != "MsgType(99)" {
		t.Fatalf("unknown type = %q", got)
	}
}

// truncateSweep checks every prefix of an encoded message fails to
// decode (no panic, no false success) — covers each truncation branch.
func truncateSweep(t *testing.T, full []byte, decode func([]byte) error) {
	t.Helper()
	for cut := 0; cut < len(full); cut++ {
		if err := decode(full[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(full))
		}
	}
	if err := decode(full); err != nil {
		t.Fatalf("full message failed: %v", err)
	}
}

func TestMetadataTruncationSweep(t *testing.T) {
	b := EncodeMetadata(sampleMeta())
	truncateSweep(t, b, func(p []byte) error {
		_, err := DecodeMetadata(p)
		return err
	})
}

func TestPieceTruncationSweep(t *testing.T) {
	m := sampleMeta()
	p := &Piece{
		URI:       m.Record.URI,
		Index:     0,
		Total:     3,
		Data:      []byte("payload"),
		Piggyback: m,
	}
	b := EncodePiece(p)
	truncateSweep(t, b, func(buf []byte) error {
		_, err := DecodePiece(buf)
		return err
	})
}

func TestHelloTruncationSweep(t *testing.T) {
	h := &Hello{From: 3, Heard: []trace.NodeID{1}, Queries: []string{"q"},
		Downloading: []metadata.URI{"dtn://files/1"}}
	b := EncodeHello(h)
	truncateSweep(t, b, func(buf []byte) error {
		_, err := DecodeHello(buf)
		return err
	})
}

func TestPieceBadPiggybackFlag(t *testing.T) {
	p := &Piece{URI: "u", Index: 0, Total: 1, Data: []byte("x")}
	b := EncodePiece(p)
	b[len(b)-1] = 7 // invalid piggyback flag
	if _, err := DecodePiece(b); err == nil {
		t.Fatal("invalid piggyback flag accepted")
	}
}

func TestMetadataTrailingBytes(t *testing.T) {
	b := append(EncodeMetadata(sampleMeta()), 0x00)
	if _, err := DecodeMetadata(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestPieceTrailingBytes(t *testing.T) {
	b := append(EncodePiece(&Piece{URI: "u", Index: 0, Total: 1, Data: nil}), 0x01)
	if _, err := DecodePiece(b); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestHostileStringLength(t *testing.T) {
	// Claim a giant URI length inside a piece.
	w := &buffer{}
	w.byte(magic)
	w.byte(version)
	w.byte(byte(TypePiece))
	w.uint32(0xFFFFFF00)
	if _, err := DecodePiece(w.b); err == nil {
		t.Fatal("hostile string length accepted")
	}
}
