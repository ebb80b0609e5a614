package transport

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// maxDatagram bounds one symbol-lane datagram. Symbols are sized to
// fit a real UDP payload with room to spare; anything bigger is a
// configuration bug worth surfacing at the sender.
const maxDatagram = 60 * 1024

// SymbolDomain returns the loopback network's symbol lane paired with
// the named broadcast domain: the same shared-medium semantics, a
// separate member namespace, so loss shaping on the data plane never
// touches the control-plane domain.
func (n *Loopback) SymbolDomain(name string) *BroadcastDomain {
	return n.Domain(name + "#symbols")
}

// UDPLane is the symbol lane over real sockets, a BroadcastConn: one
// unconnected UDP socket, sends fanned to a fixed peer list — the TCP
// deployment's stand-in for a broadcast medium. It deliberately promises
// nothing a fountain code doesn't need: datagrams may be lost,
// duplicated, or reordered, and neither side is told. Loss shows up
// only as symbols that never arrive, which the rateless code absorbs by
// decoding from whichever subset does. The kernel's UDP semantics
// provide the (absence of) guarantees; no loss shaping happens here.
//
// Send writes through to the socket and Recv reads from it, each on its
// caller's goroutine; the lane runs none of its own.
type UDPLane struct {
	pc    net.PacketConn
	peers []*net.UDPAddr
	buf   []byte // Recv's, which is single-goroutine

	done chan struct{}
	once sync.Once
}

// NewUDPLane binds a UDP socket on listen (":0" allowed) and fans
// sends out to peers. Peers that fail to resolve are skipped — on a
// best-effort lane an unresolvable peer is indistinguishable from a
// silent one — but a lane with a peer list that resolves to nothing is
// a configuration error.
func NewUDPLane(listen string, peers []string) (*UDPLane, error) {
	pc, err := net.ListenPacket("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: symbol lane listen %q: %w", listen, err)
	}
	l := &UDPLane{pc: pc, buf: make([]byte, maxDatagram), done: make(chan struct{})}
	for _, p := range peers {
		addr, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			continue
		}
		l.peers = append(l.peers, addr)
	}
	if len(peers) > 0 && len(l.peers) == 0 {
		pc.Close()
		return nil, fmt.Errorf("transport: symbol lane: no peer of %d resolved", len(peers))
	}
	return l, nil
}

// Send encodes m once and writes the datagram to every lane peer.
// Write errors on individual peers are swallowed: the lane is
// best-effort and the fountain code recovers from loss by design.
func (l *UDPLane) Send(ctx context.Context, m wire.Msg) error {
	select {
	case <-l.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	frame := wire.Encode(m)
	if len(frame) > maxDatagram {
		return fmt.Errorf("transport: symbol datagram %d bytes exceeds %d", len(frame), maxDatagram)
	}
	for _, p := range l.peers {
		l.pc.SetWriteDeadline(time.Now().Add(time.Second))
		l.pc.WriteTo(frame, p)
	}
	return nil
}

// Recv reads the next decodable datagram off the socket. Undecodable
// datagrams are skipped — on an unreliable lane every malformed packet
// is treated as lost, never as a reason to tear the endpoint down — and
// so are transient socket errors. What the kernel's receive buffer
// cannot hold while nobody reads is lost the same way.
func (l *UDPLane) Recv(ctx context.Context) (wire.Msg, error) {
	l.pc.SetReadDeadline(time.Time{})
	// Wake a blocked read when ctx ends.
	stop := context.AfterFunc(ctx, func() { l.pc.SetReadDeadline(time.Now()) })
	defer stop()
	for {
		select {
		case <-l.done:
			return nil, ErrClosed
		default:
		}
		n, _, err := l.pc.ReadFrom(l.buf)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			select {
			case <-l.done:
				return nil, ErrClosed
			default:
			}
			if ne, ok := err.(net.Error); ok && (ne.Timeout() || ne.Temporary()) {
				l.pc.SetReadDeadline(time.Time{}) // an earlier call's wake-up, not ours
				continue
			}
			l.Close()
			return nil, err
		}
		// A decoded message may alias its frame (wire/cursor.go), and the
		// buffer is the next read's: Decode gets a copy.
		if m, err := wire.Decode(bytes.Clone(l.buf[:n])); err == nil {
			return m, nil
		}
	}
}

// Close tears the lane down; safe to call more than once.
func (l *UDPLane) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.pc.Close()
	})
	return nil
}

// Addr is the bound UDP address (useful when listening on ":0").
func (l *UDPLane) Addr() string { return l.pc.LocalAddr().String() }
