package peer

import (
	"sync"

	"repro/internal/wire"
)

// lanes is one session's send queue, the only one between a caller of
// Manager.Send and the conn: a FIFO per shedding class (wire.Class, a
// column of the kind table; Raw frames classify by their recorded type),
// filled without blocking and drained control-first by the session's
// writer. Each class has its own bound, so a payload flood can drop
// payload but never evict coordination. A lane is a slice that grows
// with what is queued up to limit, so a node holding hundreds of mostly
// idle sessions does not pay for every lane's cap.
type lanes struct {
	mu     sync.Mutex
	q      [wire.NumClasses][]wire.Msg
	limit  int // per class
	closed bool
	// wake (capacity 1) pings the writer when a push lands.
	wake chan struct{}
}

func newLanes(limit int) *lanes {
	return &lanes{limit: limit, wake: make(chan struct{}, 1)}
}

// push queues one frame under its class. It never blocks: a full lane
// refuses the frame with ErrQueueFull, a closed queue (the session died
// under the caller) with ErrUnknownPeer.
func (l *lanes) push(m wire.Msg) error {
	c := m.Type().Class()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrUnknownPeer
	case len(l.q[c]) == l.limit:
		return ErrQueueFull
	}
	l.q[c] = append(l.q[c], m)
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return nil
}

// pop dequeues the next frame, control before data, FIFO within each;
// false means empty.
func (l *lanes) pop() (wire.Msg, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for c, q := range l.q {
		if len(q) > 0 {
			m := q[0]
			q[0] = nil // release the frame for GC
			l.q[c] = q[1:]
			if len(q) == 1 {
				l.q[c] = q[:0] // drained: the next push reuses the slot
			}
			return m, true
		}
	}
	return nil, false
}

// close refuses further pushes and empties the lanes, reporting how many
// frames of each class died queued. Only the first call finds any.
func (l *lanes) close() (left [wire.NumClasses]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for c := range l.q {
		left[c], l.q[c] = len(l.q[c]), nil
	}
	return left
}

// depths reports each lane's length and whether either is full.
func (l *lanes) depths() (n [wire.NumClasses]int, full bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := range l.q {
		n[c] = len(l.q[c])
		full = full || n[c] == l.limit
	}
	return n, full
}
