package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

// unassignedTags are the tags below NumTypes with no row: 0 was never a
// frame, 5 was the schedule frame.
var unassignedTags = map[MsgType]bool{0: true, 5: true}

var sentinels = []error{ErrTruncated, ErrBadMagic, ErrVersion, ErrBadType, ErrTrailing, ErrTooLong}

func wrapsSentinel(err error) bool {
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// TestKindTableComplete: every tag has a full row or is listed as
// unassigned, and an unassigned tag is ErrBadType to Peek and Decode.
func TestKindTableComplete(t *testing.T) {
	assigned := 0
	for tag := MsgType(0); tag < NumTypes+3; tag++ {
		row := tag.row()
		if unassignedTags[tag] || tag >= NumTypes {
			if row.decode != nil || row.name != "" || tag.Plane() != 0 {
				t.Fatalf("unassigned tag %d has a row: %+v", tag, row)
			}
			frame := []byte{magic, version, byte(tag), 0, 0, 0, 0}
			if _, err := Peek(frame); !errors.Is(err, ErrBadType) {
				t.Fatalf("Peek(tag %d) = %v, want ErrBadType", tag, err)
			}
			if _, err := Decode(frame); !errors.Is(err, ErrBadType) {
				t.Fatalf("Decode(tag %d) = %v, want ErrBadType", tag, err)
			}
			continue
		}
		assigned++
		if row.name == "" || row.encode == nil || row.decode == nil {
			t.Fatalf("tag %d: incomplete row %+v", tag, row)
		}
		if row.plane < PlaneBase || row.plane > PlaneBusy {
			t.Fatalf("%v: plane %d", tag, row.plane)
		}
		if row.class >= NumClasses {
			t.Fatalf("%v: class %d", tag, row.class)
		}
		if row.shed != 0 && !validBusyScope(row.shed) {
			t.Fatalf("%v: shed lane %d", tag, row.shed)
		}
	}
	if assigned != 13 {
		t.Fatalf("%d frame kinds, want 13", assigned)
	}
	// Busy must never be answered with Busy, nor wait behind payload.
	if TypeBusy.ShedScope() != 0 || TypeBusy.Class() != ClassControl || TypeBusy.Plane() != PlaneBusy {
		t.Fatalf("busy row: %+v", TypeBusy.row())
	}
}

// TestKindConformance is the one codec table over every kind, driven
// from the fuzz seeds: decode then encode is the identity, the decoded
// message is the row's own Go type (Encode asserts it on the way back),
// every strict prefix is rejected with a sentinel, and one trailing byte
// is ErrTrailing.
func TestKindConformance(t *testing.T) {
	seen := map[MsgType]bool{}
	for i, frame := range seedFrames() {
		tag, err := Peek(frame)
		if err != nil {
			t.Fatalf("seed %d: Peek: %v", i, err)
		}
		seen[tag] = true
		m, err := Decode(frame)
		if err != nil {
			t.Fatalf("seed %d (%v): Decode: %v", i, tag, err)
		}
		if m.Type() != tag {
			t.Fatalf("seed %d: decoded a %v from a %v frame", i, m.Type(), tag)
		}
		if !bytes.Equal(Encode(m), frame) {
			t.Fatalf("seed %d (%v): re-encode differs", i, tag)
		}
		if raw := NewRaw(m); raw.Type() != tag || !bytes.Equal(Encode(raw), frame) {
			t.Fatalf("seed %d (%v): Raw fan-out form differs", i, tag)
		}
		for cut := 0; cut < len(frame); cut++ {
			got, err := Decode(frame[:cut])
			if err == nil || got != nil || !wrapsSentinel(err) {
				t.Fatalf("seed %d (%v): prefix %d/%d decoded to %v, %v", i, tag, cut, len(frame), got, err)
			}
		}
		if _, err := Decode(append(frame[:len(frame):len(frame)], 0)); !errors.Is(err, ErrTrailing) {
			t.Fatalf("seed %d (%v): trailing byte: %v", i, tag, err)
		}
	}
	for tag := MsgType(0); tag < NumTypes; tag++ {
		if !unassignedTags[tag] && !seen[tag] {
			t.Fatalf("no seed frame of kind %v", tag)
		}
	}
}

// decodeOutcome is what a transport does with a frame: deliver it, skip
// it and keep the connection, or close the connection.
func decodeOutcome(b []byte) byte {
	_, err := Decode(b)
	switch {
	case err == nil:
		return 'A'
	case errors.Is(err, ErrBadMagic), errors.Is(err, ErrVersion):
		return 'F'
	default:
		return 's'
	}
}

// parentOutcomeDigest is the SHA-256 of the outcome string below as the
// hand-threaded decoders of commit 10ef1c3 produced it (computed there by
// this same loop, over these same seed frames).
const parentOutcomeDigest = "39c1ee31662a005aaf0c9b1e3d29d3dab8bf55db6ea1561f5753630af9a97c82"

// TestDecodeOutcomeDigest: for every seed frame, every truncation and
// three single-byte mutations at each of the first 400 offsets are
// delivered, skipped or fatal exactly as before the cursor. Which
// sentinel a skipped frame wraps may differ (a count the body cannot
// back is ErrTruncated at the count, not ErrTooLong a field later); what
// the connection does about it may not.
func TestDecodeOutcomeDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("deterministic sweep of ~800k decodes")
	}
	var sb strings.Builder
	for _, frame := range seedFrames() {
		for cut := 0; cut < len(frame); cut++ {
			sb.WriteByte(decodeOutcome(frame[:cut]))
		}
		sb.WriteByte('|')
		for off := 0; off < len(frame) && off < 400; off++ {
			for _, mask := range []byte{0x01, 0x80, 0xFF} {
				mut := append([]byte(nil), frame...)
				mut[off] ^= mask
				sb.WriteByte(decodeOutcome(mut))
			}
		}
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	if got := hex.EncodeToString(sum[:]); got != parentOutcomeDigest {
		t.Fatalf("decode-outcome digest %s, want %s", got, parentOutcomeDigest)
	}
}

// TestDeclaredCountSizesNoAllocation: a record body that declares 65 536
// piece hashes and carries none is rejected before anything is sized by
// the count — as a metadata frame (59 bytes), a piggyback, a stored value
// and a lookup reply's value. Sizing the hash slice from the count would
// cost 1.3 MB per rejected frame.
func TestDeclaredCountSizesNoAllocation(t *testing.T) {
	body := &buffer{}
	body.uint64(0) // popularity
	for i := 0; i < 4; i++ {
		body.str("")
	}
	body.uint64(0)          // size
	body.uint32(0)          // piece size
	body.uint64(0)          // created
	body.uint64(0)          // expires
	body.uint32(maxListLen) // piece hashes: the limit allows it, the body is over

	metadata := header(TypeMetadata)
	metadata.fixed(body.b)
	if len(metadata.b) != 59 {
		t.Fatalf("metadata frame is %d bytes, want 59", len(metadata.b))
	}
	piece := EncodePiece(&Piece{URI: "u", Total: 1, Data: []byte("x")})
	piece[len(piece)-1] = 1 // piggyback follows
	piece = append(piece, body.b...)
	store := header(TypeStoreValue)
	encodeDHTHeader(store, 1, "n1", 1, &[KeySize]byte{})
	store.str("k")
	store.uint64(0)
	store.fixed(body.b)
	reply := header(TypeNodesReply)
	encodeDHTHeader(reply, 1, "n1", 1, &[KeySize]byte{})
	reply.flag(true)
	reply.uint32(0) // nodes
	reply.uint32(1) // values
	reply.str("k")
	reply.uint64(0)
	reply.fixed(body.b)

	for name, frame := range map[string][]byte{
		"metadata": metadata.b, "piece piggyback": piece, "store-value": store.b, "nodes-reply value": reply.b,
	} {
		if _, err := Decode(frame); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: err = %v, want ErrTruncated", name, err)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Decode(frame)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
			t.Fatalf("%s: %d bytes allocated per rejected decode, want < 4 KiB", name, per)
		}
	}
}

// TestHaveBitGuard: a bitset shorter than its Total promises reads as
// unset and ignores sets, on both carriers.
func TestHaveBitGuard(t *testing.T) {
	w := &GroupWant{Total: 8}
	a := &SymbolAck{Total: 8}
	w.SetHave(3)
	a.SetHave(3)
	if w.HaveBit(3) || a.HaveBit(3) || w.Complete() {
		t.Fatal("a bit outside the bitset reads as held")
	}
	w, a = NewGroupWant("u", 12, true), &SymbolAck{Total: 12, Have: make([]byte, HaveLen(12))}
	for _, i := range []int{-1, 0, 11, 12, 15, 16} {
		w.SetHave(i)
		a.SetHave(i)
		if in := i >= 0 && i < 12; w.HaveBit(i) != in || a.HaveBit(i) != in {
			t.Fatalf("bit %d of 12: want %v, got want=%v ack=%v", i, in, w.HaveBit(i), a.HaveBit(i))
		}
	}
	if !bytes.Equal(w.Have, []byte{0x01, 0x08}) || !bytes.Equal(a.Have, w.Have) {
		t.Fatalf("bitsets %x / %x, want 0108", w.Have, a.Have)
	}
}

// TestMinElementSizes: the sizes Count holds a declared length against
// are exactly what an empty element encodes to — larger would reject
// valid frames, smaller would let a count outrun its body further.
func TestMinElementSizes(t *testing.T) {
	size := func(encode func(w *buffer)) int {
		w := &buffer{}
		encode(w)
		return len(w.b)
	}
	for name, c := range map[string]struct{ got, want int }{
		"node ID":   {size(func(w *buffer) { encodeIDs(w, []trace.NodeID{0}) }) - 4, idLen},
		"string":    {size(func(w *buffer) { w.str("") }), strMinLen},
		"metadata":  {size(func(w *buffer) { encodeMetadataBody(w, &Metadata{}) }), metadataMinLen},
		"want":      {size(func(w *buffer) { encodeWantList(w, []GroupWant{{}}) }) - 4, wantMinLen},
		"node info": {len(EncodeNodesReply(&NodesReply{Nodes: []NodeInfo{{}}})) - len(EncodeNodesReply(&NodesReply{})), nodeInfoMinLen},
		"dht value": {size(func(w *buffer) { encodeDHTValue(w, &DHTValue{}) }), dhtValueMinLen},
	} {
		if c.got != c.want {
			t.Errorf("%s: an empty element encodes to %d bytes, the constant says %d", name, c.got, c.want)
		}
	}
}
