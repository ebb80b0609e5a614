package wire

import "fmt"

// MsgType is a frame's type tag, the third header byte.
type MsgType byte

// The frame tags. Values are the wire format: a tag is never renumbered,
// and 5 (the retired schedule frame) stays unassigned.
const (
	TypeHello      MsgType = 1
	TypeMetadata   MsgType = 2
	TypePiece      MsgType = 3
	TypeGroupHello MsgType = 4
	TypeGrant      MsgType = 6
	TypePieceBcast MsgType = 7
	TypeSymbol     MsgType = 8
	TypeSymbolAck  MsgType = 9
	TypeFindNode   MsgType = 10
	TypeFindValue  MsgType = 11
	TypeStoreValue MsgType = 12
	TypeNodesReply MsgType = 13
	TypeBusy       MsgType = 14

	// NumTypes bounds arrays indexed by MsgType.
	NumTypes = 15
)

// Plane is the protocol a frame belongs to — what the peer layer counts
// it under.
type Plane byte

const (
	// PlaneBase: the three messages of §III-B (hello, metadata, piece).
	PlaneBase Plane = 1 + iota
	// PlaneGroup: the broadcast-group round of §V and its fountain-coded
	// data plane.
	PlaneGroup
	// PlaneDHT: the keyword index RPCs.
	PlaneDHT
	// PlaneBusy: backpressure, exempt from admission control.
	PlaneBusy
)

// Class is a frame's shedding priority on a send lane. Control frames
// are the small coordination messages the protocol cannot make progress
// without; data frames carry payload a later re-drive can recover. A
// payload flood can drop payload but never evict coordination.
type Class byte

const (
	ClassControl Class = iota
	ClassData
	NumClasses
)

// kind is everything the stack knows about one frame type. Adding a
// frame is a tag, a row here, its codec, and an arm in the one engine
// that consumes it.
type kind struct {
	name  string
	plane Plane
	class Class
	// shed is the Busy lane that answers a *request* of this kind shed by
	// admission control; zero sheds silently — a response has no
	// requester waiting on our capacity, so a Busy would only add traffic.
	shed BusyScope
	codec
}

// codec is a kind's two directions, erased to Msg.
type codec struct {
	encode func(Msg) []byte
	decode func(*Cursor) Msg
}

func codecOf[M Msg](enc func(M) []byte, dec func(*Cursor) M) codec {
	return codec{
		encode: func(m Msg) []byte { return enc(m.(M)) },
		decode: func(c *Cursor) Msg { return dec(c) },
	}
}

var kinds = [NumTypes]kind{
	// A hello is the request for both catalog answers and piece serves;
	// the piece lane is the expensive one it drives.
	TypeHello:      {"hello", PlaneBase, ClassControl, BusyPiece, codecOf(EncodeHello, decodeHello)},
	TypeMetadata:   {"metadata", PlaneBase, ClassData, 0, codecOf(EncodeMetadata, decodeMetadata)},
	TypePiece:      {"piece", PlaneBase, ClassData, 0, codecOf(EncodePiece, decodePiece)},
	TypeGroupHello: {"group-hello", PlaneGroup, ClassControl, BusyPiece, codecOf(EncodeGroupHello, decodeGroupHello)},
	TypeGrant:      {"grant", PlaneGroup, ClassControl, 0, codecOf(EncodeGrant, decodeGrant)},
	TypePieceBcast: {"piece-bcast", PlaneGroup, ClassData, 0, codecOf(EncodePieceBcast, decodePieceBcast)},
	TypeSymbol:     {"symbol", PlaneGroup, ClassData, BusySymbol, codecOf(EncodeSymbol, decodeSymbol)},
	TypeSymbolAck:  {"symbol-ack", PlaneGroup, ClassControl, BusySymbol, codecOf(EncodeSymbolAck, decodeSymbolAck)},
	TypeFindNode:   {"find-node", PlaneDHT, ClassControl, BusyDHT, codecOf(EncodeFindNode, decodeFindNode)},
	TypeFindValue:  {"find-value", PlaneDHT, ClassControl, BusyDHT, codecOf(EncodeFindValue, decodeFindValue)},
	TypeStoreValue: {"store-value", PlaneDHT, ClassData, BusyDHT, codecOf(EncodeStoreValue, decodeStoreValue)},
	TypeNodesReply: {"nodes-reply", PlaneDHT, ClassControl, 0, codecOf(EncodeNodesReply, decodeNodesReply)},
	TypeBusy:       {"busy", PlaneBusy, ClassControl, 0, codecOf(EncodeBusy, decodeBusy)},
}

// row returns t's table row; an unassigned tag reads the zero row.
func (t MsgType) row() *kind {
	if int(t) < len(kinds) {
		return &kinds[t]
	}
	return &kinds[0]
}

// String names the message type.
func (t MsgType) String() string {
	if name := t.row().name; name != "" {
		return name
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// Plane reports the protocol plane t is counted under.
func (t MsgType) Plane() Plane { return t.row().plane }

// Class reports t's send-lane shedding class.
func (t MsgType) Class() Class { return t.row().class }

// ShedScope reports the Busy lane that answers a shed request of type t;
// zero means shed silently.
func (t MsgType) ShedScope() BusyScope { return t.row().shed }
