package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"

	"repro/internal/wire"
)

// MaxFrame bounds one length-framed message: the wire codec's largest
// payload (a 16 MB piece) plus generous header room. A peer declaring a
// longer frame is hostile or desynchronized; the connection closes.
const MaxFrame = 16*1024*1024 + 64*1024

// frameStep is how much of a declared frame readFrame allocates before
// any of it has arrived, and how much it reads before it grows the frame
// again: a peer that declares a long frame and stalls pins little more
// than what it has sent (a step, or append's quarter), never what it
// declared. A 256 KiB piece still takes one allocation.
const frameStep = 512 * 1024

// ErrFrameTooBig reports a declared frame length above MaxFrame.
var ErrFrameTooBig = fmt.Errorf("transport: frame exceeds %d bytes", MaxFrame)

// frameWriter writes messages as frames — a 4-byte big-endian length
// prefix, then the encoding — gathering the prefix and the message's
// segments (wire.AppendSegments) into one writev when w is a socket, so a
// payload goes to the socket from its own slice. It is one sender's: the
// prefix and the vector are reused from frame to frame.
type frameWriter struct {
	hdr [4]byte
	vec net.Buffers // the prefix, then the message's segments
	out net.Buffers // WriteTo's view of vec, which it consumes
}

func (f *frameWriter) write(w io.Writer, m wire.Msg) error {
	f.vec = wire.AppendSegments(append(f.vec[:0], f.hdr[:]), m)
	n := 0
	for _, s := range f.vec[1:] {
		n += len(s)
	}
	if n > MaxFrame {
		return ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(f.hdr[:], uint32(n))
	f.out = f.vec
	_, err := f.out.WriteTo(w)
	return err
}

// readFrame reads one length-prefixed frame into a slice of its own,
// growing it as the body arrives, frameStep at a time. io.EOF at a frame
// boundary is a clean shutdown; mid-frame EOF becomes
// io.ErrUnexpectedEOF.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	frame := make([]byte, 0, min(n, frameStep))
	for len(frame) < n {
		step := min(n-len(frame), frameStep)
		frame = slices.Grow(frame, step)
		got, err := io.ReadFull(r, frame[len(frame):len(frame)+step])
		frame = frame[:len(frame)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return frame, nil
}
