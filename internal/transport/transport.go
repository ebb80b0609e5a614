// Package transport moves wire messages between live nodes.
//
// The simulator delivers messages by function call; this package is the
// seam that replaces those calls with real links so the MBT protocol can
// run as a daemon. A Transport produces message-oriented Conns that carry
// length-framed frames of the internal/wire codec. Two implementations
// exist:
//
//   - Loopback — a deterministic in-memory network for tests: frames pass
//     through buffered channels, still round-tripping through the wire
//     codec so tests exercise exactly the bytes TCP would carry;
//   - TCP — real sockets with a write deadline and context-based
//     shutdown.
//
// Backoff is the exponential, jittered redial schedule; internal/peer's
// link table steps through it, one dial per step.
//
// A Conn is the second and last hop of the send path: internal/peer
// queues per session and runs one writer per session, the only caller of
// Send after the handshake. Send writes through on that goroutine — TCP
// to its socket, Loopback into its channel, the simulated wire — so the
// session's lanes are its only send queue, and a Send that blocks holds
// up that one session's writer and nobody else. The package starts no
// goroutines: every Conn, Listener and lane works on its caller's.
//
// Decode-error policy (the reason wire exports sentinel errors): a frame
// whose header magic is garbage (wire.ErrBadMagic) means the stream is
// not carrying this protocol at all, and a version mismatch
// (wire.ErrVersion) means the peer is healthy but incompatible — both
// close the connection. A well-framed message that is merely malformed
// (unknown type, truncated body, hostile length) is dropped and the
// connection keeps going: the length prefix already told us where the
// next frame starts, so resynchronization is free.
package transport

import (
	"context"
	"errors"

	"repro/internal/wire"
)

// Errors returned by transports.
var (
	// ErrClosed reports use of a closed Conn, Listener, or network.
	ErrClosed = errors.New("transport: closed")
	// ErrVersionMismatch reports a peer speaking an incompatible wire
	// protocol revision; callers should not redial.
	ErrVersionMismatch = errors.New("transport: peer wire version mismatch")
	// ErrAddrInUse reports a Listen on an address that already has a
	// listener (loopback network).
	ErrAddrInUse = errors.New("transport: address already in use")
	// ErrNoListener reports a Dial to an address nothing listens on
	// (loopback network).
	ErrNoListener = errors.New("transport: no listener on address")
)

// Conn is a reliable, message-oriented link to one peer. Send and Recv
// are each called from one goroutine at a time — the session's writer
// and its receive pump — and Close from any. Both honor context
// cancellation. After Close, both return ErrClosed; Recv returns the
// peer's close as an error too.
type Conn interface {
	// Send puts one message on the link and returns once it is there,
	// blocking while the link cannot take it, until ctx ends or the link
	// dies.
	Send(ctx context.Context, m wire.Msg) error
	// Recv returns the next decoded message. Malformed-but-framed
	// messages are skipped internally; framing garbage or a version
	// mismatch closes the connection and surfaces as an error.
	Recv(ctx context.Context) (wire.Msg, error)
	// Close tears the link down; safe to call more than once.
	Close() error
	// LocalAddr and RemoteAddr name the endpoints for logs and stats.
	LocalAddr() string
	RemoteAddr() string
}

// Listener accepts inbound Conns.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept(ctx context.Context) (Conn, error)
	// Addr is the bound address — the address peers dial, useful when
	// listening on ":0".
	Addr() string
	// Close stops accepting; blocked Accepts return ErrClosed.
	Close() error
}

// Transport opens links: Dial for outbound, Listen for inbound.
type Transport interface {
	Dial(ctx context.Context, addr string) (Conn, error)
	Listen(addr string) (Listener, error)
}
