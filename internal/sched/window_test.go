package sched

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func keys(fs []Flight[int, uint64]) []int {
	var out []int
	for _, f := range fs {
		out = append(out, f.Key)
	}
	return out
}

// TestWindow walks one window through both planes' questions: a resend
// moves a unit to the back with its new stamp and tag, Out counts without
// retiring, Settle retires what a bitmap shows held before what lapsed —
// a unit stamped exactly at the cutoff lapses, one a nanosecond younger
// stays — and with no bitmap retires only what lapsed.
func TestWindow(t *testing.T) {
	t0 := time.Unix(100, 0)
	all := func(int) bool { return true }
	var w Window[int, uint64]
	if acked, lapsed := w.Settle(all, t0); w.Has(1) || w.Out(all) != 0 || acked || lapsed != nil {
		t.Fatal("an empty window holds something")
	}
	w.Send(1, t0, 0)
	w.Send(2, t0.Add(time.Second), 0)
	w.Send(3, t0.Add(2*time.Second), 7)
	w.Send(4, t0.Add(3*time.Second), 0)
	w.Send(1, t0.Add(4*time.Second), 9)
	if got := keys(w); !slices.Equal(got, []int{2, 3, 4, 1}) {
		t.Fatalf("window %v after resending 1, want [2 3 4 1]", got)
	}
	if !w.Has(1) || w.Has(5) {
		t.Fatalf("Has(1) = %v, Has(5) = %v", w.Has(1), w.Has(5))
	}

	notTwo := func(k int) bool { return k != 2 }
	for range 2 {
		if n := w.Out(notTwo); n != 3 {
			t.Fatalf("Out = %d with 2 held, want 3", n)
		}
	}
	if len(w) != 4 {
		t.Fatalf("Out retired units: %v", keys(w))
	}

	// 2 is both held and a beat old: the ack, not the lapse, retires it.
	acked, lapsed := w.Settle(func(k int) bool { return k == 2 }, t0.Add(time.Second))
	if !acked || lapsed != nil || !slices.Equal(keys(w), []int{3, 4, 1}) {
		t.Fatalf("settling on 2 held: acked %v, lapsed %v, window %v; want acked, none lapsed, [3 4 1]", acked, keys(lapsed), keys(w))
	}
	acked, lapsed = w.Settle(func(k int) bool { return k == 2 }, t0.Add(3*time.Second-time.Nanosecond))
	if acked || !slices.Equal(keys(lapsed), []int{3}) || lapsed[0].Tag != 7 {
		t.Fatalf("settling a nanosecond before 4's stamp: acked %v, lapsed %+v; want 3 alone, tag 7", acked, lapsed)
	}
	acked, lapsed = w.Settle(nil, t0.Add(4*time.Second))
	if acked || !slices.Equal(keys(lapsed), []int{4, 1}) || lapsed[1].Tag != 9 || len(w) != 0 {
		t.Fatalf("settling at 1's stamp with no bitmap: acked %v, lapsed %+v, left %v; want 4 and 1 (its resend's tag 9), nothing left", acked, lapsed, keys(w))
	}
}

// TestWindowLapse: a unit shown lost before its deadline leaves the
// window at once, tag and stamp intact, and nothing else moves.
func TestWindowLapse(t *testing.T) {
	t0 := time.Unix(100, 0)
	var w Window[int, uint64]
	for k := 1; k <= 4; k++ {
		w.Send(k, t0.Add(time.Duration(k)*time.Second), uint64(10*k))
	}
	lapsed := w.Lapse(func(f Flight[int, uint64]) bool { return f.Tag < 30 })
	if !slices.Equal(keys(lapsed), []int{1, 2}) || lapsed[1].Tag != 20 || !lapsed[1].At.Equal(t0.Add(2*time.Second)) {
		t.Fatalf("lapsing tags under 30: %+v, want 1 and 2 as sent", lapsed)
	}
	if !slices.Equal(keys(w), []int{3, 4}) {
		t.Fatalf("window %v after the lapse, want [3 4]", keys(w))
	}
	if lapsed := w.Lapse(func(Flight[int, uint64]) bool { return false }); lapsed != nil || len(w) != 2 {
		t.Fatalf("lapsing nothing: %+v lapsed, %d left", lapsed, len(w))
	}
}

// TestWindowKeepsBothPlanesRules drives a window and, beside it, the two
// windows it replaced — the pairwise supplier's FIFO of pushes, settled
// on every hello, and the group sequencer's map of grants, counted
// against the views and expired on the beat — through the same random
// sends, bitmaps and beats, and requires the same answers from both.
func TestWindowKeepsBothPlanesRules(t *testing.T) {
	type push struct {
		index int
		at    time.Time
	}
	type grant struct {
		at     time.Time
		sizing uint64
	}
	const units, beat = 8, 100 * time.Millisecond
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		now := time.Unix(1000, 0)
		var pairwise, group Window[int, uint64]
		var fifo []push
		granted := map[int]grant{}
		for step := 0; step < 100; step++ {
			now = now.Add(time.Duration(r.Intn(int(beat / 2))))
			have := r.Int63() // this step's bitmap over the keys
			held := func(k int) bool { return have>>k&1 == 1 }
			k, tag := r.Intn(units), uint64(r.Intn(3))
			switch r.Intn(3) {
			case 0: // a push (never one still in flight: the resend deadline outlasts a beat) and a grant
				if !pairwise.Has(k) {
					pairwise.Send(k, now, 0)
					fifo = append(fifo, push{k, now})
				}
				group.Send(k, now, tag)
				granted[k] = grant{now, tag}
			case 1: // a hello: the pairwise settle
				want := false
				kept := fifo[:0]
				for _, p := range fifo {
					switch {
					case held(p.index):
						want = true
					case now.Sub(p.at) < beat:
						kept = append(kept, p)
					}
				}
				fifo = kept
				if acked, _ := pairwise.Settle(held, now.Add(-beat)); acked != want {
					t.Fatalf("trial %d step %d: pairwise acked %v, the FIFO %v", trial, step, acked, want)
				}
			default: // a beat: the group's prune, then its in-flight count
				prev := now.Add(-beat)
				var want []Flight[int, uint64]
				for g, e := range granted {
					if !e.at.After(prev) {
						delete(granted, g)
						want = append(want, Flight[int, uint64]{g, e.at, e.sizing})
					}
				}
				_, got := group.Settle(nil, prev)
				byKey := func(a, b Flight[int, uint64]) int { return a.Key - b.Key }
				slices.SortFunc(want, byKey)
				slices.SortFunc(got, byKey)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d: group lapsed %+v, the map %+v", trial, step, got, want)
				}
				n := 0
				for g := range granted {
					if !held(g) {
						n++
					}
				}
				if out := group.Out(func(k int) bool { return !held(k) }); out != n {
					t.Fatalf("trial %d step %d: group Out %d, the map %d", trial, step, out, n)
				}
			}
			if len(pairwise) != len(fifo) || len(group) != len(granted) {
				t.Fatalf("trial %d step %d: windows hold %d and %d, the originals %d and %d", trial, step, len(pairwise), len(group), len(fifo), len(granted))
			}
			for _, p := range fifo {
				if !pairwise.Has(p.index) {
					t.Fatalf("trial %d step %d: push %d missing from the window", trial, step, p.index)
				}
			}
			for g := range granted {
				if !group.Has(g) {
					t.Fatalf("trial %d step %d: grant %d missing from the window", trial, step, g)
				}
			}
		}
	}
}
