// Command gencorpus seeds the wire decoder's fuzz corpus with corrupted
// frames captured from the fault injector: every valid message type is
// encoded and run through fault.CorruptFrame under a few fixed seeds,
// so the exact mutations the chaos tests inject are pinned as FuzzDecode
// regression inputs. Regenerate with:
//
//	go run ./internal/wire/gencorpus -out internal/wire/testdata/fuzz/FuzzDecode
//
// The output is deterministic; rerunning overwrites the same files. A
// file is named after its frame's slot in frames(), so slots are never
// renumbered: slot 5 was the schedule frame (wire tag 5, now
// unassigned), and its four committed inputs stay behind as the
// unassigned-tag regression inputs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/fec"
	"repro/internal/metadata"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/wire"
)

func frames() [][]byte {
	rec := metadata.NewSynthetic(3, "news daily", "BBC", "world news",
		300*1024, metadata.DefaultPieceSize,
		simtime.At(0, simtime.FileGenerationOffset), simtime.Days(3), []byte("k"))
	m := &wire.Metadata{Popularity: 0.5, Record: *rec}
	members := []trace.NodeID{3, 7, 11}
	want := wire.NewGroupWant(rec.URI, rec.NumPieces(), true)
	want.SetHave(0)
	pieceData := metadata.SyntheticPiece(rec.URI, 1, rec.PieceLen(1))
	enc, err := fec.NewEncoder(pieceData, 1024, 0xB10C)
	if err != nil {
		log.Fatal(err)
	}
	sym := &wire.Symbol{
		From: 7, Round: 13, URI: rec.URI, Piece: 1, Total: rec.NumPieces(),
		Seed: 0xB10C, DataLen: len(pieceData),
		Index: uint32(enc.K() + 2), Payload: enc.Symbol(uint32(enc.K() + 2)),
	}
	sym.Seal()
	ack := &wire.SymbolAck{From: 11, Round: 13, URI: rec.URI, Total: rec.NumPieces()}
	ack.Have = make([]byte, wire.HaveLen(ack.Total))
	ack.SetHave(0)
	ack.SetHave(1)
	var key [wire.KeySize]byte
	for i := range key {
		key[i] = byte(i*5 + 1)
	}
	val := wire.DHTValue{Keyword: "news", ExpiresUnixMilli: 1_700_000_120_000, Meta: *m}
	return [][]byte{
		wire.EncodeHello(&wire.Hello{
			From:        7,
			Heard:       []trace.NodeID{1, 2, 9},
			Queries:     []string{"jazz", "late show"},
			Downloading: []metadata.URI{rec.URI},
			Have:        []wire.GroupWant{*want},
		}),
		wire.EncodeMetadata(m),
		wire.EncodePiece(&wire.Piece{
			URI: rec.URI, Index: 0, Total: rec.NumPieces(),
			Data: metadata.SyntheticPiece(rec.URI, 0, rec.PieceLen(0)),
		}),
		wire.EncodePiece(&wire.Piece{
			URI: rec.URI, Index: 1, Total: rec.NumPieces(),
			Data:      metadata.SyntheticPiece(rec.URI, 1, rec.PieceLen(1)),
			Piggyback: m,
		}),
		wire.EncodeGroupHello(&wire.GroupHello{
			From: 7, Members: members, Round: 12, Wants: []wire.GroupWant{*want},
		}),
		nil, // slot 5: retired with the schedule frame
		wire.EncodeGrant(&wire.Grant{
			From: 3, To: 7, Round: 13, URI: rec.URI, Piece: 1,
		}),
		wire.EncodePieceBcast(&wire.PieceBcast{
			From: 7, Round: 13, URI: rec.URI, Index: 1, Total: rec.NumPieces(),
			Data: metadata.SyntheticPiece(rec.URI, 1, rec.PieceLen(1)),
		}),
		wire.EncodeSymbol(sym),
		wire.EncodeSymbolAck(ack),
		wire.EncodeFindNode(&wire.FindNode{
			From: 7, FromAddr: "n7", RPCID: 21, Target: key,
		}),
		wire.EncodeFindValue(&wire.FindValue{
			From: 9, FromAddr: "n9", RPCID: 22, Key: key,
		}),
		wire.EncodeStoreValue(&wire.StoreValue{
			From: 3, FromAddr: "n3", RPCID: 23, Key: key, Value: val,
		}),
		wire.EncodeNodesReply(&wire.NodesReply{
			From: 11, FromAddr: "n11", RPCID: 24, Key: key, Found: true,
			Nodes:  []wire.NodeInfo{{ID: 3, Addr: "n3"}, {ID: 7, Addr: "n7"}},
			Values: []wire.DHTValue{val},
		}),
		wire.EncodeBusy(&wire.Busy{
			From: 5, Scope: wire.BusyQuery, RetryAfterMillis: 500,
		}),
	}
}

func main() {
	out := flag.String("out", "internal/wire/testdata/fuzz/FuzzDecode",
		"corpus directory to write")
	seeds := flag.Int("seeds", 4, "corrupted variants per frame")
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	n := 0
	for fi, frame := range frames() {
		if frame == nil {
			continue
		}
		for s := 0; s < *seeds; s++ {
			r := rng.New(uint64(0xC0FFEE + fi*100 + s))
			mutated := fault.CorruptFrame(r, frame)
			name := filepath.Join(*out, fmt.Sprintf("injector-corrupt-%d-%d", fi, s))
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", mutated)
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				log.Fatal(err)
			}
			n++
		}
	}
	fmt.Printf("wrote %d corpus files to %s\n", n, *out)
}
