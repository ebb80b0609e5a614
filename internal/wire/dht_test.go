package wire

import (
	"errors"
	"testing"
)

func sampleKey() [KeySize]byte {
	var k [KeySize]byte
	for i := range k {
		k[i] = byte(i*7 + 3)
	}
	return k
}

func sampleFindNode() *FindNode {
	return &FindNode{From: 7, FromAddr: "n7", RPCID: 41, Target: sampleKey()}
}

func sampleFindValue() *FindValue {
	return &FindValue{From: 9, FromAddr: "n9", RPCID: 42, Key: sampleKey()}
}

func sampleStoreValue() *StoreValue {
	return &StoreValue{
		From: 3, FromAddr: "n3", RPCID: 43, Key: sampleKey(),
		Value: DHTValue{Keyword: "jazz", ExpiresUnixMilli: 1_700_000_090_000, Meta: *sampleMeta()},
	}
}

func sampleNodesReply() *NodesReply {
	return &NodesReply{
		From: 11, FromAddr: "n11", RPCID: 44, Key: sampleKey(),
		Found: true,
		Nodes: []NodeInfo{{ID: 3, Addr: "n3"}, {ID: 7, Addr: "n7"}},
		Values: []DHTValue{
			{Keyword: "jazz", ExpiresUnixMilli: 1_700_000_045_000, Meta: *sampleMeta()},
		},
	}
}

func TestFindNodeRoundTrip(t *testing.T) {
	f := sampleFindNode()
	got, err := DecodeFindNode(EncodeFindNode(f))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != f.From || got.FromAddr != f.FromAddr ||
		got.RPCID != f.RPCID || got.Target != f.Target {
		t.Fatalf("round trip:\nin  %+v\nout %+v", f, got)
	}
}

func TestFindValueRoundTrip(t *testing.T) {
	f := sampleFindValue()
	got, err := DecodeFindValue(EncodeFindValue(f))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != f.From || got.FromAddr != f.FromAddr ||
		got.RPCID != f.RPCID || got.Key != f.Key {
		t.Fatalf("round trip:\nin  %+v\nout %+v", f, got)
	}
}

func TestStoreValueRoundTrip(t *testing.T) {
	s := sampleStoreValue()
	got, err := DecodeStoreValue(EncodeStoreValue(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != s.From || got.FromAddr != s.FromAddr ||
		got.RPCID != s.RPCID || got.Key != s.Key ||
		got.Value.Keyword != s.Value.Keyword ||
		got.Value.ExpiresUnixMilli != s.Value.ExpiresUnixMilli ||
		got.Value.Meta.Record.URI != s.Value.Meta.Record.URI ||
		got.Value.Meta.Record.Signature != s.Value.Meta.Record.Signature {
		t.Fatalf("round trip:\nin  %+v\nout %+v", s, got)
	}
}

// TestStoreValueExpirySigned: the expiry stamp is a signed instant on
// the wire — zero and pre-epoch values survive the codec, so a receiver
// sees exactly what the publisher stamped and rejects it on its merits.
func TestStoreValueExpirySigned(t *testing.T) {
	for _, stamp := range []int64{0, -1, -1_700_000_000_000, 1<<63 - 1} {
		s := sampleStoreValue()
		s.Value.ExpiresUnixMilli = stamp
		got, err := DecodeStoreValue(EncodeStoreValue(s))
		if err != nil {
			t.Fatal(err)
		}
		if got.Value.ExpiresUnixMilli != stamp {
			t.Fatalf("stamp %d decoded as %d", stamp, got.Value.ExpiresUnixMilli)
		}
	}
}

func TestNodesReplyRoundTrip(t *testing.T) {
	n := sampleNodesReply()
	got, err := DecodeNodesReply(EncodeNodesReply(n))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != n.From || got.FromAddr != n.FromAddr ||
		got.RPCID != n.RPCID || got.Key != n.Key || got.Found != n.Found {
		t.Fatalf("round trip:\nin  %+v\nout %+v", n, got)
	}
	if len(got.Nodes) != len(n.Nodes) {
		t.Fatalf("got %d nodes, want %d", len(got.Nodes), len(n.Nodes))
	}
	for i := range n.Nodes {
		if got.Nodes[i] != n.Nodes[i] {
			t.Fatalf("node %d: got %+v want %+v", i, got.Nodes[i], n.Nodes[i])
		}
	}
	if len(got.Values) != len(n.Values) {
		t.Fatalf("got %d values, want %d", len(got.Values), len(n.Values))
	}
	if got.Values[0].Keyword != n.Values[0].Keyword ||
		got.Values[0].ExpiresUnixMilli != n.Values[0].ExpiresUnixMilli ||
		got.Values[0].Meta.Record.URI != n.Values[0].Meta.Record.URI {
		t.Fatalf("value 0: got %+v want %+v", got.Values[0], n.Values[0])
	}
}

// TestNodesReplyEmpty: a miss reply with no contacts and no values is
// valid — the end of an iterative lookup that ran out of closer nodes.
func TestNodesReplyEmpty(t *testing.T) {
	n := &NodesReply{From: 5, FromAddr: "n5", RPCID: 1, Key: sampleKey()}
	got, err := DecodeNodesReply(EncodeNodesReply(n))
	if err != nil {
		t.Fatal(err)
	}
	if got.Found || len(got.Nodes) != 0 || len(got.Values) != 0 {
		t.Fatalf("empty reply decoded to %+v", got)
	}
}

func TestDHTTruncation(t *testing.T) {
	truncateSweep(t, EncodeFindNode(sampleFindNode()), func(b []byte) error {
		_, err := DecodeFindNode(b)
		return err
	})
	truncateSweep(t, EncodeFindValue(sampleFindValue()), func(b []byte) error {
		_, err := DecodeFindValue(b)
		return err
	})
	truncateSweep(t, EncodeStoreValue(sampleStoreValue()), func(b []byte) error {
		_, err := DecodeStoreValue(b)
		return err
	})
	truncateSweep(t, EncodeNodesReply(sampleNodesReply()), func(b []byte) error {
		_, err := DecodeNodesReply(b)
		return err
	})
}

func TestDHTTrailingBytes(t *testing.T) {
	for _, b := range [][]byte{
		EncodeFindNode(sampleFindNode()),
		EncodeFindValue(sampleFindValue()),
		EncodeStoreValue(sampleStoreValue()),
		EncodeNodesReply(sampleNodesReply()),
	} {
		if _, err := Decode(append(b, 0)); !errors.Is(err, ErrTrailing) {
			t.Fatalf("trailing byte: %v", err)
		}
	}
}

// TestNodesReplyBadFoundFlag: the found flag must be 0 or 1.
func TestNodesReplyBadFoundFlag(t *testing.T) {
	n := &NodesReply{From: 5, FromAddr: "a", RPCID: 1, Key: sampleKey()}
	b := EncodeNodesReply(n)
	// Header (3) + from (4) + addr (4+1) + rpc (8) + key (32), then flag.
	b[3+4+4+1+8+KeySize] = 2
	if _, err := DecodeNodesReply(b); !errors.Is(err, ErrBadType) {
		t.Fatalf("bad found flag: %v", err)
	}
}

// TestNodesReplyOversizedLists: hostile node/value counts are rejected
// before allocation.
func TestNodesReplyOversizedLists(t *testing.T) {
	n := &NodesReply{From: 5, FromAddr: "a", RPCID: 1, Key: sampleKey()}
	b := EncodeNodesReply(n)
	off := 3 + 4 + 4 + 1 + 8 + KeySize + 1 // through the found flag
	for i := 0; i < 4; i++ {
		b[off+i] = 0xFF // node count = 0xFFFFFFFF
	}
	if _, err := DecodeNodesReply(b); !errors.Is(err, ErrTooLong) {
		t.Fatalf("oversized node list: %v", err)
	}
}
