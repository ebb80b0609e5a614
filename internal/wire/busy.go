// Busy is the 429-style backpressure frame. A node that sheds an
// inbound request under admission control answers with Busy instead of
// silently dropping it: the frame names which request lane was shed
// (Scope) and how long the sender should back off before re-driving
// that lane (RetryAfterMillis). Busy frames themselves are exempt from
// admission control so backpressure can always be signaled.
package wire

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// BusyScope names the request lane a Busy frame sheds.
type BusyScope byte

const (
	// BusyQuery: keyword queries against the metadata catalog.
	BusyQuery BusyScope = 1 + iota
	// BusyPiece: hello-driven piece serving (the download plane).
	BusyPiece
	// BusyDHT: FindNode/FindValue/StoreValue traffic.
	BusyDHT
	// BusySymbol: fountain-coded symbol relay.
	BusySymbol
)

// String names the scope.
func (s BusyScope) String() string {
	switch s {
	case BusyQuery:
		return "query"
	case BusyPiece:
		return "piece"
	case BusyDHT:
		return "dht"
	case BusySymbol:
		return "symbol"
	default:
		return fmt.Sprintf("BusyScope(%d)", byte(s))
	}
}

// validBusyScope reports whether a decoded scope byte is a defined
// lane.
func validBusyScope(s BusyScope) bool {
	return s >= BusyQuery && s <= BusySymbol
}

// Busy tells the receiver to stop re-driving one request lane at the
// sender for RetryAfterMillis. It is advisory: the regular hello beacon
// keeps flowing (liveness is not backpressure), but out-of-band
// re-drives honor the window.
type Busy struct {
	From             trace.NodeID
	Scope            BusyScope
	RetryAfterMillis uint32
}

// Type implements Msg.
func (*Busy) Type() MsgType { return TypeBusy }

// RetryAfter converts the advertised window to a duration.
func (b *Busy) RetryAfter() time.Duration {
	return time.Duration(b.RetryAfterMillis) * time.Millisecond
}

// EncodeBusy serializes a backpressure frame.
func EncodeBusy(b *Busy) []byte {
	w := header(TypeBusy)
	w.uint32(uint32(b.From))
	w.byte(byte(b.Scope))
	w.uint32(b.RetryAfterMillis)
	return w.b
}

func decodeBusy(c *Cursor) *Busy {
	b := &Busy{}
	b.From = trace.NodeID(c.Uint32())
	b.Scope = BusyScope(c.Byte())
	if !validBusyScope(b.Scope) {
		c.Fail(fmt.Errorf("busy scope %d: %w", b.Scope, ErrBadType))
	}
	b.RetryAfterMillis = c.Uint32()
	return b
}

// DecodeBusy parses an encoded backpressure frame.
func DecodeBusy(b []byte) (*Busy, error) { return decodeAs[*Busy](b) }
