// DHT messages carry the Kademlia-style keyword→metadata index of
// internal/dht on the wire. Lookups are strict request/reply pairs
// correlated by RPCID: FindNode and FindValue both answer with a
// NodesReply (carrying either closer contacts or the values themselves),
// while StoreValue is fire-and-forget. Every DHT message carries the
// sender's listen address (FromAddr) because a session's transport-level
// remote address names the dialing socket, not the peer's listener — the
// routing table needs an address it can dial back.
package wire

import "repro/internal/trace"

// KeySize is the byte length of a DHT key (sha256 of the node ID or of
// the normalized keyword).
const KeySize = 32

// maxDHTNodes bounds a NodesReply's contact and value lists; replies
// carry at most the closest K contacts and K is small, so this is
// generous.
const maxDHTNodes = 1024

// The least one encoded NodeInfo (ID, empty address) and one DHTValue
// (empty keyword, expiry, empty record) occupy.
const (
	nodeInfoMinLen = idLen + strMinLen
	dhtValueMinLen = strMinLen + 8 + metadataMinLen
)

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
func encodeDHTHeader(w *buffer, from trace.NodeID, fromAddr string, rpcID uint64, key *[KeySize]byte) {
	w.uint32(uint32(from))
	w.str(fromAddr)
	w.uint64(rpcID)
	w.fixed(key[:])
}

// decodeDHTHeader parses the fields every DHT message opens with.
func decodeDHTHeader(c *Cursor, from *trace.NodeID, fromAddr *string, rpcID *uint64, key *[KeySize]byte) {
	*from = trace.NodeID(c.Uint32())
	*fromAddr = c.Str(maxStrLen)
	*rpcID = c.Uint64()
	c.Fixed(key[:])
}

func encodeDHTValue(w *buffer, v *DHTValue) {
	w.str(v.Keyword)
	w.uint64(uint64(v.ExpiresUnixMilli))
	encodeMetadataBody(w, &v.Meta)
}

func decodeDHTValue(c *Cursor, v *DHTValue) {
	v.Keyword = c.Str(maxStrLen)
	v.ExpiresUnixMilli = int64(c.Uint64())
	decodeMetadataBody(c, &v.Meta)
}

// EncodeFindNode serializes a contact lookup request.
func EncodeFindNode(f *FindNode) []byte { return Encode(f) }

func encodeFindNode(w *buffer, f *FindNode) {
	encodeDHTHeader(w, f.From, f.FromAddr, f.RPCID, &f.Target)
}

func decodeFindNode(c *Cursor) *FindNode {
	f := &FindNode{}
	decodeDHTHeader(c, &f.From, &f.FromAddr, &f.RPCID, &f.Target)
	return f
}

// DecodeFindNode parses a contact lookup request.
func DecodeFindNode(b []byte) (*FindNode, error) { return decodeAs[*FindNode](b) }

// EncodeFindValue serializes a value lookup request.
func EncodeFindValue(f *FindValue) []byte { return Encode(f) }

func encodeFindValue(w *buffer, f *FindValue) {
	encodeDHTHeader(w, f.From, f.FromAddr, f.RPCID, &f.Key)
}

func decodeFindValue(c *Cursor) *FindValue {
	f := &FindValue{}
	decodeDHTHeader(c, &f.From, &f.FromAddr, &f.RPCID, &f.Key)
	return f
}

// DecodeFindValue parses a value lookup request.
func DecodeFindValue(b []byte) (*FindValue, error) { return decodeAs[*FindValue](b) }

// EncodeStoreValue serializes a record store request.
func EncodeStoreValue(s *StoreValue) []byte { return Encode(s) }

func encodeStoreValue(w *buffer, s *StoreValue) {
	encodeDHTHeader(w, s.From, s.FromAddr, s.RPCID, &s.Key)
	encodeDHTValue(w, &s.Value)
}

func decodeStoreValue(c *Cursor) *StoreValue {
	s := &StoreValue{}
	decodeDHTHeader(c, &s.From, &s.FromAddr, &s.RPCID, &s.Key)
	decodeDHTValue(c, &s.Value)
	return s
}

// DecodeStoreValue parses a record store request.
func DecodeStoreValue(b []byte) (*StoreValue, error) {
	return decodeAs[*StoreValue](b)
}

// EncodeNodesReply serializes a lookup reply.
func EncodeNodesReply(n *NodesReply) []byte { return Encode(n) }

func encodeNodesReply(w *buffer, n *NodesReply) {
	encodeDHTHeader(w, n.From, n.FromAddr, n.RPCID, &n.Key)
	w.flag(n.Found)
	w.uint32(uint32(len(n.Nodes)))
	for i := range n.Nodes {
		w.uint32(uint32(n.Nodes[i].ID))
		w.str(n.Nodes[i].Addr)
	}
	w.uint32(uint32(len(n.Values)))
	for i := range n.Values {
		encodeDHTValue(w, &n.Values[i])
	}
}

func decodeNodesReply(c *Cursor) *NodesReply {
	n := &NodesReply{}
	decodeDHTHeader(c, &n.From, &n.FromAddr, &n.RPCID, &n.Key)
	n.Found = c.Flag("found")
	count := c.Count("node list", maxDHTNodes, nodeInfoMinLen)
	for i := 0; i < count && c.err == nil; i++ {
		var info NodeInfo
		info.ID = trace.NodeID(c.Uint32())
		info.Addr = c.Str(maxStrLen)
		n.Nodes = append(n.Nodes, info)
	}
	count = c.Count("value list", maxDHTNodes, dhtValueMinLen)
	for i := 0; i < count && c.err == nil; i++ {
		var v DHTValue
		decodeDHTValue(c, &v)
		n.Values = append(n.Values, v)
	}
	return n
}

// DecodeNodesReply parses a lookup reply.
func DecodeNodesReply(b []byte) (*NodesReply, error) {
	return decodeAs[*NodesReply](b)
}
