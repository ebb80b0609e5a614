package transport

import (
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
type UDPLane struct {
	pc    net.PacketConn
	peers []*net.UDPAddr

	in   chan []byte
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
	l := &UDPLane{
		pc:   pc,
		in:   make(chan []byte, domainQueue),
		done: make(chan struct{}),
	}
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
	go l.pump()
	return l, nil
}

// pump moves datagrams from the socket into the bounded receive queue;
// a full queue drops, like any busy datagram receiver.
func (l *UDPLane) pump() {
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := l.pc.ReadFrom(buf)
		if err != nil {
			select {
			case <-l.done:
				return
			default:
			}
			// Transient socket errors on a lossy lane are just loss.
			if ne, ok := err.(net.Error); ok && (ne.Timeout() || ne.Temporary()) {
				continue
			}
			l.Close()
			return
		}
		frame := make([]byte, n)
		copy(frame, buf[:n])
		select {
		case l.in <- frame:
		default:
		}
	}
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

// Recv returns the next decodable datagram. Undecodable datagrams are
// skipped — on an unreliable lane every malformed packet is treated as
// lost, never as a reason to tear the endpoint down.
func (l *UDPLane) Recv(ctx context.Context) (wire.Msg, error) {
	for {
		select {
		case frame := <-l.in:
			m, err := wire.Decode(frame)
			if err != nil {
				continue
			}
			return m, nil
		case <-l.done:
			return nil, ErrClosed
		case <-ctx.Done():
			return nil, ctx.Err()
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
