package wire

import (
	"encoding/binary"
	"fmt"
)

// buffer accumulates an encoded message.
type buffer struct{ b []byte }

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
	w.b = append(w.b, p...)
}
func (w *buffer) flag(v bool) {
	if v {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

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
// it as a slice of the cursor's input.
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
