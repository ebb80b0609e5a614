// Package quiet counts the live stack's outstanding work for a harness
// that steps it (internal/stepnet). A stepped network sees every frame a
// node sends and every frame it hands to a reader, but not what a node's
// goroutines hand each other: a frame queued on a session's send lane, a
// kick of the beat, a piece staged for the committer, a DHT reply routed
// to the lookup waiting on it. Each of those hand-offs adds one unit of
// work before the wake-up it sends, and the goroutine it wakes gives the
// unit back once it has done what the wake-up asked and is about to block
// again. A goroutine blocked in the network's Recv or Accept has given
// its unit back to the network, which returns it on waking. So the count
// is zero exactly when no goroutine of the stack has anything left to do
// without the harness's next step.
//
// Off the harness a node has no counter: every method is a no-op on a nil
// *Work, one nil check.
package quiet

import (
	"context"
	"sync/atomic"
)

// Work is the counter one stepped network and every node on it share.
type Work struct {
	n atomic.Int64
	// idle (capacity 1) is signalled whenever the count falls to zero.
	idle chan struct{}
}

// New returns a zero count.
func New() *Work { return &Work{idle: make(chan struct{}, 1)} }

// Add records n hand-offs about to wake a goroutine.
func (w *Work) Add(n int) {
	if w != nil {
		w.n.Add(int64(n))
	}
}

// Done gives back one unit: its goroutine did what it was woken for.
func (w *Work) Done() {
	if w == nil {
		return
	}
	switch n := w.n.Add(-1); {
	case n == 0:
		select {
		case w.idle <- struct{}{}:
		default:
		}
	case n < 0:
		panic("quiet: Done without a matching Add")
	}
}

// Count is the work outstanding now.
func (w *Work) Count() int64 { return w.n.Load() }

// Idle is signalled each time the count falls to zero.
func (w *Work) Idle() <-chan struct{} { return w.idle }

// Of is the counter a transport carries (a stepped network's, or one a
// wrapper passes through from the transport it wraps); nil for any other.
func Of(t any) *Work {
	if c, ok := t.(interface{ Work() *Work }); ok {
		return c.Work()
	}
	return nil
}

type key struct{}

// With returns ctx carrying w, for work started under it — a DHT round's
// RPCs, whose replies come back through the engine, not the transport.
func With(ctx context.Context, w *Work) context.Context {
	if w == nil {
		return ctx
	}
	return context.WithValue(ctx, key{}, w)
}

// From is the counter ctx carries, or nil.
func From(ctx context.Context) *Work {
	w, _ := ctx.Value(key{}).(*Work)
	return w
}
