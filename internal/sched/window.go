package sched

import (
	"slices"
	"time"
)

// Window is a flight window: the units a sender has put in flight, keyed
// by K (a piece), in the order they were last sent, each with a tag of
// type T the sender chooses. Both live data planes keep one — the pairwise
// supplier per peer and file, the group sequencer per clique — under one
// rule: a unit counts against the sender's depth until an ack bitmap shows
// it held, and one sent a whole beat ago lapses, lost or merely late. It
// is pure: no lock, no I/O, time passed in.
type Window[K comparable, T any] []Flight[K, T]

// Flight is one unit in flight: when it was sent, and the sender's tag.
type Flight[K comparable, T any] struct {
	Key K
	At  time.Time
	Tag T
}

// Send puts k in flight at t, replacing an earlier send of it.
func (w *Window[K, T]) Send(k K, t time.Time, tag T) {
	*w = append(slices.DeleteFunc(*w, func(f Flight[K, T]) bool { return f.Key == k }), Flight[K, T]{k, t, tag})
}

// Has reports whether k is in flight.
func (w Window[K, T]) Has(k K) bool {
	return slices.ContainsFunc(w, func(f Flight[K, T]) bool { return f.Key == k })
}

// Out counts the units in flight that lacked says are still lacked. It
// retires nothing, so a view that takes a piece back counts it again.
func (w Window[K, T]) Out(lacked func(K) bool) (n int) {
	for _, f := range w {
		if lacked(f.Key) {
			n++
		}
	}
	return n
}

// Settle retires the units held says have arrived, reporting whether there
// were any, then the units sent at or before cutoff, returning them. A nil
// held acks nothing: a sender whose acks can be taken back keeps each unit
// until it lapses and asks Out what is still lacked.
func (w *Window[K, T]) Settle(held func(K) bool, cutoff time.Time) (acked bool, lapsed []Flight[K, T]) {
	*w = slices.DeleteFunc(*w, func(f Flight[K, T]) bool {
		switch {
		case held != nil && held(f.Key):
			acked = true
		case f.At.After(cutoff):
			return false
		default:
			lapsed = append(lapsed, f)
		}
		return true
	})
	return acked, lapsed
}

// Lapse retires the units lost says are lost before their deadline — a
// later unit's arrival has shown it — and returns them, as Settle returns
// the units that lapse on the clock.
func (w *Window[K, T]) Lapse(lost func(Flight[K, T]) bool) (lapsed []Flight[K, T]) {
	*w = slices.DeleteFunc(*w, func(f Flight[K, T]) bool {
		if lost(f) {
			lapsed = append(lapsed, f)
			return true
		}
		return false
	})
	return lapsed
}
