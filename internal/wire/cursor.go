package wire

import (
	"encoding/binary"
	"fmt"
)

// bigField is the length from which a byte field is kept by reference
// as a segment of its own instead of being copied into the encoding.
const bigField = 1024

// buffer accumulates an encoded message as segments: the fixed-size and
// small fields are appended to the open tail b, and a byte field of
// bigField bytes or more — a piece's payload — closes the tail and is kept
// as the caller's own slice, so encoding never copies a payload. The
// message is the closed segments in order, then the tail.
type buffer struct {
	segs [][]byte
	b    []byte
	// Room for a piece's fields before its payload and for its segments,
	// so that encoding a piece costs the buffer's own allocation and no
	// other.
	head [64]byte
	seg  [3][]byte
}

func (w *buffer) byte(v byte)     { w.b = append(w.b, v) }
func (w *buffer) uint32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *buffer) uint64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *buffer) fixed(p []byte)  { w.b = append(w.b, p...) }
func (w *buffer) str(s string) {
	w.uint32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *buffer) bytes(p []byte) {
	w.uint32(uint32(len(p)))
	if len(p) < bigField {
		w.b = append(w.b, p...)
		return
	}
	// The tail goes on in the closed one's spare capacity: appends land
	// past its end and never touch its bytes.
	w.segs = append(w.segs, w.b, p)
	w.b = w.b[len(w.b):]
}

// close returns the message's segments, the tail included when it holds
// anything.
func (w *buffer) close() [][]byte {
	if len(w.b) == 0 {
		return w.segs
	}
	return append(w.segs, w.b)
}

func (w *buffer) flag(v bool) {
	if v {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

// Who owns a frame's bytes. A decoded message may alias the frame it was
// read from: a piece's payload is a view into it (View), not a copy, so
// the frame must never be written again once it is decoded. Every frame
// a transport hands Decode is its own — TCP's readFrame allocates one per
// frame, Loopback carries the sender's encoding, and a broadcast domain
// shares one encoding read-only among its receivers. A reader that reuses
// its buffer (the UDP lane's datagram buffer) hands Decode a copy
// instead; the WAL reader decodes only records whose fields are copied
// out (Str, Fixed, Bytes). A decoded payload is read-only for the same
// reason: receivers of one broadcast may share it.

// Cursor reads the fields of an encoded body in wire order. It latches:
// the first failure — a read past the end, a length over its limit, or a
// decoder's own Fail — is remembered, and from then on every read
// returns its zero value and consumes nothing. A decoder therefore reads
// straight through without looking at errors and asks once, in Done,
// whether what it built is worth keeping. Every failure wraps one of the
// package's sentinel errors.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor reads from b, which the cursor aliases and never modifies.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Fail latches err unless an earlier failure already is: the first cause
// in wire order is the one reported.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Done reports the latched failure, or ErrTrailing when the body was
// read cleanly but not to its end.
func (c *Cursor) Done() error {
	if c.err == nil && len(c.b) != 0 {
		c.err = ErrTrailing
	}
	return c.err
}

// take consumes the next n bytes, or latches ErrTruncated.
func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.b) < n {
		c.err = ErrTruncated
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

// Uint32 reads a big-endian 32-bit value.
func (c *Cursor) Uint32() uint32 {
	if p := c.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// Uint64 reads a big-endian 64-bit value.
func (c *Cursor) Uint64() uint64 {
	if p := c.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Flag reads a boolean byte; any value but 0 and 1 is ErrBadType.
func (c *Cursor) Flag(what string) bool {
	v := c.Byte()
	if v > 1 {
		c.Fail(fmt.Errorf("%s flag %d: %w", what, v, ErrBadType))
	}
	return v == 1
}

// Fixed fills dst with the next len(dst) bytes — the hashes, signatures
// and keys whose size the format fixes.
func (c *Cursor) Fixed(dst []byte) {
	copy(dst, c.take(len(dst)))
}

// Bounded reads a 32-bit size and latches ErrTooLong when it exceeds
// limit.
func (c *Cursor) Bounded(what string, limit int) int {
	n := c.Uint32()
	if int64(n) > int64(limit) {
		c.Fail(fmt.Errorf("%s %d: %w", what, n, ErrTooLong))
		return 0
	}
	return int(n)
}

// Count reads a list length: it must not exceed limit, and the bytes
// left must be able to hold that many elements of at least minElem bytes
// each (ErrTruncated otherwise). It is checked here, before any loop
// runs or slice is made, so a declared count can never size work the
// body cannot back.
func (c *Cursor) Count(what string, limit, minElem int) int {
	n := c.Bounded(what, limit)
	if n*minElem > len(c.b) {
		c.Fail(ErrTruncated)
		return 0
	}
	return n
}

// View reads a length-prefixed field of at most limit bytes and returns
// it as a slice of the cursor's input: the field aliases the frame (see
// the ownership rule above).
func (c *Cursor) View(what string, limit int) []byte {
	return c.take(c.Bounded(what, limit))
}

// Str reads a length-prefixed string of at most limit bytes.
func (c *Cursor) Str(limit int) string {
	return string(c.View("string length", limit))
}

// Bytes reads a length-prefixed field of at most limit bytes into a
// slice of its own.
func (c *Cursor) Bytes(limit int) []byte {
	v := c.View("byte length", limit)
	p := make([]byte, len(v))
	copy(p, v)
	return p
}
