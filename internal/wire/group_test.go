package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/metadata"
	"repro/internal/trace"
)

func sampleGroupHello() *GroupHello {
	w := *NewGroupWant("dtn://files/3", 3, true)
	w.SetHave(0)
	w.SetHave(2)
	h := *NewGroupWant("dtn://files/9", 12, false)
	for i := 0; i < 12; i++ {
		h.SetHave(i)
	}
	return &GroupHello{
		From:    7,
		Members: []trace.NodeID{3, 7, 11},
		Round:   42,
		Wants:   []GroupWant{w, h},
	}
}

func TestGroupHelloRoundTrip(t *testing.T) {
	g := sampleGroupHello()
	b := EncodeGroupHello(g)
	got, err := DecodeGroupHello(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, g) {
		t.Fatalf("round trip:\nin  %+v\nout %+v", g, got)
	}
	if !got.Wants[0].HaveBit(0) || got.Wants[0].HaveBit(1) || !got.Wants[0].HaveBit(2) {
		t.Fatalf("bitset mangled: %+v", got.Wants[0])
	}
	if got.Wants[0].Complete() {
		t.Fatal("partial want reports complete")
	}
	if !got.Wants[1].Complete() {
		t.Fatal("full holding does not report complete")
	}
	if !bytes.Equal(Encode(got), b) {
		t.Fatal("re-encode mismatch")
	}
}

func TestGroupHelloEmpty(t *testing.T) {
	g := &GroupHello{From: 1}
	got, err := DecodeGroupHello(EncodeGroupHello(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 1 || got.Members != nil || got.Wants != nil {
		t.Fatalf("empty round trip: %+v", got)
	}
}

func TestGroupHelloBadBitsetLength(t *testing.T) {
	g := sampleGroupHello()
	g.Wants[0].Have = append(g.Wants[0].Have, 0) // one byte too many for 3 pieces
	if _, err := DecodeGroupHello(EncodeGroupHello(g)); !errors.Is(err, ErrTooLong) {
		t.Fatalf("oversized bitset error = %v, want ErrTooLong", err)
	}
}

func TestGrantRoundTrip(t *testing.T) {
	for _, g := range []*Grant{
		{From: 3, To: 7, Round: 9, URI: "dtn://files/3", Piece: 2},
		{From: 3, To: 11, Round: 10, Piece: NoPiece}, // sender's choice
	} {
		got, err := DecodeGrant(EncodeGrant(g))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("round trip:\nin  %+v\nout %+v", g, got)
		}
	}
}

func TestPieceBcastRoundTrip(t *testing.T) {
	m := sampleMeta()
	p := &PieceBcast{
		From:  7,
		Round: 4,
		URI:   m.Record.URI,
		Index: 1,
		Total: m.Record.NumPieces(),
		Data:  metadata.SyntheticPiece(m.Record.URI, 1, m.Record.PieceLen(1)),
	}
	b := EncodePieceBcast(p)
	got, err := DecodePieceBcast(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch")
	}
	// The shared receive path sees the broadcast as a plain piece and
	// verifies it against the record's checksums.
	if !got.AsPiece().Verify(&m.Record) {
		t.Fatal("broadcast piece fails checksum verification via AsPiece")
	}
}

// TestGroupTruncation feeds every truncation prefix of valid group
// frames to the decoder; all must fail cleanly with a sentinel.
func TestGroupTruncation(t *testing.T) {
	frames := [][]byte{
		EncodeGroupHello(sampleGroupHello()),
		EncodeGrant(&Grant{From: 3, To: 7, Round: 9, URI: "dtn://files/3", Piece: 2}),
		EncodePieceBcast(&PieceBcast{From: 7, Round: 4, URI: "dtn://files/3", Index: 1, Total: 3, Data: []byte("abc")}),
	}
	for _, b := range frames {
		for cut := 0; cut < len(b); cut++ {
			if _, err := Decode(b[:cut]); err == nil {
				t.Fatalf("truncated frame (%d of %d bytes) decoded", cut, len(b))
			}
		}
		if _, err := Decode(append(append([]byte{}, b...), 0)); !errors.Is(err, ErrTrailing) {
			t.Fatalf("trailing byte error = %v, want ErrTrailing", err)
		}
	}
}
