package daemon

import (
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// Overload protection glue: the peer layer's admission control calls
// onShed when it refuses an inbound message, the handler feeds received
// Busy frames to onBusy, and sendBusy paces the 429-style replies so a
// flooding peer gets one Busy per lane per window instead of a Busy
// flood of our own.

// onShed runs on the shedding peer's session goroutine each time
// admission control refuses one of its messages: note the event for
// /healthz, and answer request-bearing frames with a paced Busy on the
// lane the kind table names (none for a response: no requester is
// waiting on our capacity, so a Busy would only add traffic).
func (d *Daemon) onShed(from trace.NodeID, t wire.MsgType) {
	wall := d.clock()
	d.mu.Lock()
	d.lastShedAt = wall
	d.mu.Unlock()
	if sc := t.ShedScope(); sc != 0 {
		d.sendBusy(from, sc)
	}
}

// busyWindow is the backoff window an outgoing Busy advertises and the
// pacing floor for sending them: two beats.
func (d *Daemon) busyWindow() time.Duration { return 2 * d.cfg.HelloInterval }

// sendBusy queues one Busy frame to the peer for the lane, paced to
// at most one per peer/lane per busyWindow — the frame already names
// the whole window, so repeats carry no information.
func (d *Daemon) sendBusy(to trace.NodeID, scope wire.BusyScope) {
	wall := d.clock()
	d.mu.Lock()
	told := &d.peerLocked(to).busyTold[scope]
	if wall.Sub(*told) < d.busyWindow() {
		d.mu.Unlock()
		return
	}
	*told = wall
	d.counters.busySent++
	d.mu.Unlock()
	d.mgr.Send(to, &wire.Busy{
		From:             d.cfg.ID,
		Scope:            scope,
		RetryAfterMillis: uint32(d.busyWindow() / time.Millisecond),
	})
}

// onBusy records a peer's advertised backoff window so acks and piece
// forwards skip it until the window passes. The window is honored
// as advertised but clamped to 2×LivenessWindow: past that, silence is
// indistinguishable from churn and the liveness machinery takes over.
func (d *Daemon) onBusy(from trace.NodeID, b *wire.Busy) {
	if int(b.Scope) >= numBusyScopes {
		return // a lane nothing here re-drives (symbol), or one the TCP codec rejects and loopback does not decode
	}
	window := b.RetryAfter()
	if max := 2 * d.cfg.LivenessWindow; window > max {
		window = max
	}
	until := d.clock().Add(window)
	d.mu.Lock()
	d.peerLocked(from).busyUntil[b.Scope] = until
	d.mu.Unlock()
	if b.Scope == wire.BusyDHT && d.dht != nil {
		// The DHT engine keeps its own busy set so lookup shortlists can
		// skip the contact for the round without marking it dead.
		d.dht.MarkBusy(from, until)
	}
	d.logf("daemon %d: node %d busy on %v lane for %v", d.cfg.ID, from, b.Scope, window)
}
