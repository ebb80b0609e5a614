package wire

import (
	"bytes"
	"errors"
	"testing"
)

func sampleSymbol() *Symbol {
	s := &Symbol{
		From:    7,
		Round:   13,
		URI:     "dtn://files/3",
		Piece:   2,
		Total:   5,
		Seed:    0xB10CB10CB10C,
		DataLen: 4096,
		Index:   41,
		Payload: []byte("coded-symbol-payload-bytes"),
	}
	s.Seal()
	return s
}

func sampleSymbolAck() *SymbolAck {
	a := &SymbolAck{From: 11, Round: 13, URI: "dtn://files/3", Total: 5,
		Have: make([]byte, 1)}
	a.SetHave(0)
	a.SetHave(2)
	return a
}

func TestSymbolRoundTrip(t *testing.T) {
	s := sampleSymbol()
	b := EncodeSymbol(s)
	got, err := DecodeSymbol(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != s.From || got.Round != s.Round || got.URI != s.URI ||
		got.Piece != s.Piece || got.Total != s.Total || got.Seed != s.Seed ||
		got.DataLen != s.DataLen || got.Index != s.Index || got.Check != s.Check ||
		!bytes.Equal(got.Payload, s.Payload) {
		t.Fatalf("round trip:\nin  %+v\nout %+v", s, got)
	}
	if !got.CheckOK() {
		t.Fatal("decoded symbol fails its own check")
	}
}

// TestSymbolCheckCatchesCorruption: a payload or placement flip that
// survives framing is caught by the symbol check, the guard that keeps
// corrupted datagrams from poisoning a receiver's eliminator.
func TestSymbolCheckCatchesCorruption(t *testing.T) {
	s := sampleSymbol()
	s.Payload[3] ^= 0x40
	if s.CheckOK() {
		t.Fatal("payload corruption passed the check")
	}
	s.Payload[3] ^= 0x40
	s.Index++
	if s.CheckOK() {
		t.Fatal("index corruption passed the check")
	}
	s.Index--
	s.Seed ^= 1
	if s.CheckOK() {
		t.Fatal("seed corruption passed the check")
	}
	s.Seed ^= 1
	if !s.CheckOK() {
		t.Fatal("restored symbol fails the check")
	}
}

func TestSymbolAckRoundTrip(t *testing.T) {
	a := sampleSymbolAck()
	b := EncodeSymbolAck(a)
	got, err := DecodeSymbolAck(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != a.From || got.Round != a.Round || got.URI != a.URI ||
		got.Total != a.Total || !bytes.Equal(got.Have, a.Have) {
		t.Fatalf("round trip:\nin  %+v\nout %+v", a, got)
	}
	if !got.HaveBit(0) || got.HaveBit(1) || !got.HaveBit(2) || got.HaveBit(5) {
		t.Fatal("ack bitset bits wrong after round trip")
	}
}

func TestSymbolAckBadBitsetLength(t *testing.T) {
	a := sampleSymbolAck()
	a.Have = append(a.Have, 0)
	if _, err := DecodeSymbolAck(EncodeSymbolAck(a)); !errors.Is(err, ErrTooLong) {
		t.Fatalf("oversized ack bitset: %v", err)
	}
}

func TestSymbolTruncation(t *testing.T) {
	truncateSweep(t, EncodeSymbol(sampleSymbol()), func(b []byte) error {
		_, err := DecodeSymbol(b)
		return err
	})
	truncateSweep(t, EncodeSymbolAck(sampleSymbolAck()), func(b []byte) error {
		_, err := DecodeSymbolAck(b)
		return err
	})
}

func TestSymbolTrailingBytes(t *testing.T) {
	for _, b := range [][]byte{EncodeSymbol(sampleSymbol()), EncodeSymbolAck(sampleSymbolAck())} {
		if _, err := Decode(append(b, 0)); !errors.Is(err, ErrTrailing) {
			t.Fatalf("trailing byte: %v", err)
		}
	}
}

// TestGroupHelloFECFlag: the capability bit survives the codec both
// ways, and a mangled flag byte is rejected.
func TestGroupHelloFECFlag(t *testing.T) {
	for _, fec := range []bool{false, true} {
		g := sampleGroupHello()
		g.FEC = fec
		got, err := DecodeGroupHello(EncodeGroupHello(g))
		if err != nil {
			t.Fatal(err)
		}
		if got.FEC != fec {
			t.Fatalf("FEC=%v round-tripped to %v", fec, got.FEC)
		}
	}
	b := EncodeGroupHello(sampleGroupHello())
	b[len(b)-1] = 2
	if _, err := DecodeGroupHello(b); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad fec flag: %v", err)
	}
}
