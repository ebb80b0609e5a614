package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// MaxFrame bounds one length-framed message: the wire codec's largest
// payload (a 16 MB piece) plus generous header room. A peer declaring a
// longer frame is hostile or desynchronized; the connection closes.
const MaxFrame = 16*1024*1024 + 64*1024

// ErrFrameTooBig reports a declared frame length above MaxFrame.
var ErrFrameTooBig = fmt.Errorf("transport: frame exceeds %d bytes", MaxFrame)

// writeFrame writes one message as a 4-byte big-endian length prefix
// followed by the encoded bytes, in one writev when w is a socket.
func writeFrame(w io.Writer, frame []byte) error {
	if len(frame) > MaxFrame {
		return ErrFrameTooBig
	}
	hdr := binary.BigEndian.AppendUint32(make([]byte, 0, 4), uint32(len(frame)))
	_, err := (&net.Buffers{hdr, frame}).WriteTo(w)
	return err
}

// readFrame reads one length-prefixed frame. io.EOF at a frame boundary
// is a clean shutdown; mid-frame EOF becomes io.ErrUnexpectedEOF.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return frame, nil
}
