// DHT messages carry the Kademlia-style keyword→metadata index of
// internal/dht on the wire. Lookups are strict request/reply pairs
// correlated by RPCID: FindNode and FindValue both answer with a
// NodesReply (carrying either closer contacts or the values themselves),
// while StoreValue is fire-and-forget. Every DHT message carries the
// sender's listen address (FromAddr) because a session's transport-level
// remote address names the dialing socket, not the peer's listener — the
// routing table needs an address it can dial back.
package wire

import (
	"fmt"

	"repro/internal/trace"
)

// KeySize is the byte length of a DHT key (sha256 of the node ID or of
// the normalized keyword).
const KeySize = 32

// maxDHTNodes bounds a NodesReply's contact list; replies carry at most
// the closest K contacts and K is small, so this is generous.
const maxDHTNodes = 1024

// NodeInfo is one routing-table contact: the node's ID and the address
// its peer listener can be dialed at.
type NodeInfo struct {
	ID   trace.NodeID
	Addr string
}

// FindNode asks the receiver for the contacts it knows closest (by XOR
// distance) to Target. The receiver answers with a NodesReply carrying
// the same RPCID.
type FindNode struct {
	From     trace.NodeID
	FromAddr string
	RPCID    uint64
	Target   [KeySize]byte
}

// FindValue asks the receiver for the records it stores under Key, or —
// if it has none — for its closest contacts to Key, exactly like
// FindNode. The receiver answers with a NodesReply carrying the same
// RPCID, with Found set when values are attached.
type FindValue struct {
	From     trace.NodeID
	FromAddr string
	RPCID    uint64
	Key      [KeySize]byte
}

// DHTValue is one stored record: the keyword it is indexed under, the
// absolute expiry its publisher stamped (Unix milliseconds), and the
// signed metadata payload. The stamp is never re-based on the way: a
// store that arrives late, twice or from a forwarder carries the same
// instant, so it cannot give an expired record a new lifetime. Nodes
// are assumed to agree on wall time to well within a record's TTL.
type DHTValue struct {
	Keyword          string
	ExpiresUnixMilli int64
	Meta             Metadata
}

// StoreValue writes one record under Key at the receiver. It is
// fire-and-forget: no reply is defined, and the receiver silently drops
// stores whose metadata signature does not verify.
type StoreValue struct {
	From     trace.NodeID
	FromAddr string
	RPCID    uint64
	Key      [KeySize]byte
	Value    DHTValue
}

// NodesReply answers a FindNode or FindValue. Key echoes the queried
// target so late replies can be sanity-checked, Nodes carries the
// responder's closest contacts, and — for a FindValue hit — Found is set
// and Values carries the records stored under Key.
type NodesReply struct {
	From     trace.NodeID
	FromAddr string
	RPCID    uint64
	Key      [KeySize]byte
	Found    bool
	Nodes    []NodeInfo
	Values   []DHTValue
}

// Type implements Msg.
func (*FindNode) Type() MsgType { return TypeFindNode }

// Type implements Msg.
func (*FindValue) Type() MsgType { return TypeFindValue }

// Type implements Msg.
func (*StoreValue) Type() MsgType { return TypeStoreValue }

// Type implements Msg.
func (*NodesReply) Type() MsgType { return TypeNodesReply }

// encodeDHTHeader appends the fields every DHT message opens with.
func encodeDHTHeader(w *buffer, from trace.NodeID, fromAddr string, rpcID uint64, key [KeySize]byte) {
	w.uint32(uint32(from))
	w.str(fromAddr)
	w.uint64(rpcID)
	w.b = append(w.b, key[:]...)
}

// decodeDHTHeader parses the fields every DHT message opens with.
func decodeDHTHeader(r *reader) (from trace.NodeID, fromAddr string, rpcID uint64, key [KeySize]byte, err error) {
	f, err := r.uint32()
	if err != nil {
		return 0, "", 0, key, err
	}
	from = trace.NodeID(f)
	if fromAddr, err = r.str(maxStrLen); err != nil {
		return 0, "", 0, key, err
	}
	if rpcID, err = r.uint64(); err != nil {
		return 0, "", 0, key, err
	}
	if len(r.b) < KeySize {
		return 0, "", 0, key, ErrTruncated
	}
	copy(key[:], r.b[:KeySize])
	r.b = r.b[KeySize:]
	return from, fromAddr, rpcID, key, nil
}

func encodeDHTValue(w *buffer, v *DHTValue) {
	w.str(v.Keyword)
	w.uint64(uint64(v.ExpiresUnixMilli))
	encodeMetadataBody(w, &v.Meta)
}

func decodeDHTValue(r *reader) (DHTValue, error) {
	var v DHTValue
	var err error
	if v.Keyword, err = r.str(maxStrLen); err != nil {
		return v, err
	}
	expires, err := r.uint64()
	if err != nil {
		return v, err
	}
	v.ExpiresUnixMilli = int64(expires)
	m, err := decodeMetadataBody(r)
	if err != nil {
		return v, err
	}
	v.Meta = *m
	return v, nil
}

// EncodeFindNode serializes a contact lookup request.
func EncodeFindNode(f *FindNode) []byte {
	w := header(TypeFindNode)
	encodeDHTHeader(w, f.From, f.FromAddr, f.RPCID, f.Target)
	return w.b
}

// DecodeFindNode parses a contact lookup request.
func DecodeFindNode(b []byte) (*FindNode, error) {
	r, err := openReader(b, TypeFindNode)
	if err != nil {
		return nil, err
	}
	f := &FindNode{}
	if f.From, f.FromAddr, f.RPCID, f.Target, err = decodeDHTHeader(r); err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, ErrTrailing
	}
	return f, nil
}

// EncodeFindValue serializes a value lookup request.
func EncodeFindValue(f *FindValue) []byte {
	w := header(TypeFindValue)
	encodeDHTHeader(w, f.From, f.FromAddr, f.RPCID, f.Key)
	return w.b
}

// DecodeFindValue parses a value lookup request.
func DecodeFindValue(b []byte) (*FindValue, error) {
	r, err := openReader(b, TypeFindValue)
	if err != nil {
		return nil, err
	}
	f := &FindValue{}
	if f.From, f.FromAddr, f.RPCID, f.Key, err = decodeDHTHeader(r); err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, ErrTrailing
	}
	return f, nil
}

// EncodeStoreValue serializes a record store request.
func EncodeStoreValue(s *StoreValue) []byte {
	w := header(TypeStoreValue)
	encodeDHTHeader(w, s.From, s.FromAddr, s.RPCID, s.Key)
	encodeDHTValue(w, &s.Value)
	return w.b
}

// DecodeStoreValue parses a record store request.
func DecodeStoreValue(b []byte) (*StoreValue, error) {
	r, err := openReader(b, TypeStoreValue)
	if err != nil {
		return nil, err
	}
	s := &StoreValue{}
	if s.From, s.FromAddr, s.RPCID, s.Key, err = decodeDHTHeader(r); err != nil {
		return nil, err
	}
	if s.Value, err = decodeDHTValue(r); err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, ErrTrailing
	}
	return s, nil
}

// EncodeNodesReply serializes a lookup reply.
func EncodeNodesReply(n *NodesReply) []byte {
	w := header(TypeNodesReply)
	encodeDHTHeader(w, n.From, n.FromAddr, n.RPCID, n.Key)
	if n.Found {
		w.byte(1)
	} else {
		w.byte(0)
	}
	w.uint32(uint32(len(n.Nodes)))
	for i := range n.Nodes {
		w.uint32(uint32(n.Nodes[i].ID))
		w.str(n.Nodes[i].Addr)
	}
	w.uint32(uint32(len(n.Values)))
	for i := range n.Values {
		encodeDHTValue(w, &n.Values[i])
	}
	return w.b
}

// DecodeNodesReply parses a lookup reply.
func DecodeNodesReply(b []byte) (*NodesReply, error) {
	r, err := openReader(b, TypeNodesReply)
	if err != nil {
		return nil, err
	}
	n := &NodesReply{}
	if n.From, n.FromAddr, n.RPCID, n.Key, err = decodeDHTHeader(r); err != nil {
		return nil, err
	}
	flag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch flag {
	case 0:
	case 1:
		n.Found = true
	default:
		return nil, fmt.Errorf("found flag %d: %w", flag, ErrBadType)
	}
	count, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if count > maxDHTNodes {
		return nil, fmt.Errorf("node list %d: %w", count, ErrTooLong)
	}
	for i := uint32(0); i < count; i++ {
		var info NodeInfo
		id, err := r.uint32()
		if err != nil {
			return nil, err
		}
		info.ID = trace.NodeID(id)
		if info.Addr, err = r.str(maxStrLen); err != nil {
			return nil, err
		}
		n.Nodes = append(n.Nodes, info)
	}
	count, err = r.uint32()
	if err != nil {
		return nil, err
	}
	if count > maxDHTNodes {
		return nil, fmt.Errorf("value list %d: %w", count, ErrTooLong)
	}
	for i := uint32(0); i < count; i++ {
		v, err := decodeDHTValue(r)
		if err != nil {
			return nil, err
		}
		n.Values = append(n.Values, v)
	}
	if len(r.b) != 0 {
		return nil, ErrTrailing
	}
	return n, nil
}
