package daemon

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/rng"
	"repro/internal/stepnet"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The standing order (serve.go): a deal stands for a beat, the hello is
// also the ack, relays forward what they acquire. The pure half is tested
// on sentFile alone, the rules on a hand-driven daemon and clock, the
// pace on live loopback daemons whose periodic beacon is an hour away.

// dealt returns the share a deal hands the supplier mine describes, in
// walk order.
func dealt(total, origin int, mine, held func(int) bool) []int {
	sf := newSentFile(metadata.DefaultPieceSize)
	sf.deal(time.Unix(1, 0), total, origin, 1, mine, always, held)
	return sf.advance(total, total, func(int) bool { return true })
}

// TestDealIsPickPiecesShare ties the two definitions of a share
// together: what deal marks as a supplier's own is exactly what
// pickPieces hands it when it holds everything and nothing limits it,
// and advance yields it in the same order however the budget chops it.
func TestDealIsPickPiecesShare(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 1000; trial++ {
		total := 1 + r.Intn(200)
		requester, uri := randomFile(r)
		named := randomSuppliers(r, 1+r.Intn(8))
		mine := newShare(requester, uri, named, named[r.Intn(len(named))]).mine
		origin := r.Intn(total)
		have := randomBitmap(r, total, r.Float64())
		held := func(i int) bool { return have[i] }
		missing, owned := 0, 0
		for i := range have {
			if !have[i] {
				missing++
				if mine(i) {
					owned++
				}
			}
		}

		want, _ := pickPieces(total, origin, total, false, mine, always, held, never)
		if owned == 0 {
			want = nil // no share: pickPieces filled instead
		}
		if got := dealt(total, origin, mine, held); !slices.Equal(got, want) {
			t.Fatalf("trial %d (total %d suppliers %v): deal's share %v, pickPieces' %v", trial, total, named, got, want)
		}
		sf := newSentFile(metadata.DefaultPieceSize)
		if skipped, want := sf.deal(time.Unix(1, 0), total, origin, 1, mine, always, held), total-missing; skipped != want {
			t.Fatalf("trial %d: deal left out %d held pieces, the bitmap holds %d", trial, skipped, want)
		}
		var chopped []int
		for sf.pos < total {
			budget := 1 + r.Intn(5)
			picks := sf.advance(total, budget, always)
			if len(picks) > budget {
				t.Fatalf("trial %d: advance returned %d picks on a budget of %d", trial, len(picks), budget)
			}
			chopped = append(chopped, picks...)
		}
		if !slices.Equal(chopped, want) {
			t.Fatalf("trial %d: the cursor yields %v, want the share %v once, in order", trial, chopped, want)
		}
	}
}

// TestShareKeepsOwnersWhenTheFrontLands: pieces land from the front of
// the walk, the order they are sent in, and a deal that finds any of the
// front filled in leaves every piece behind it with the supplier that had
// it — so what that supplier has in flight at a deal is not handed to a
// second one. (Ownership ignores the bitmap altogether:
// TestShareIgnoresTheBitmap.)
func TestShareKeepsOwnersWhenTheFrontLands(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 1000; trial++ {
		total := 2 + r.Intn(150)
		requester, uri := randomFile(r)
		named := randomSuppliers(r, 1+r.Intn(6))
		origin := r.Intn(total)
		have := randomBitmap(r, total, 0.5*r.Float64())
		before := dealOwners(t, requester, uri, named, total, have)
		front := r.Intn(total) // walk positions before this one may land
		for p := 0; p < front; p++ {
			if i := (origin + p) % total; r.Bool(0.5) {
				have[i] = true
			}
		}
		after := dealOwners(t, requester, uri, named, total, have)
		for p := front; p < total; p++ {
			if i := (origin + p) % total; !have[i] && after[i] != before[i] {
				t.Fatalf("trial %d (total %d suppliers %v): piece %d behind the landed front moved from supplier %d to %d",
					trial, total, named, i, before[i], after[i])
			}
		}
	}
}

// TestWindowSettle: a push leaves the window when the bitmap shows it
// held or when it is a beat old, and takes needs the deal standing, the
// piece in the share, unheld, unpushed, and a free slot.
func TestWindowSettle(t *testing.T) {
	const total, beat = 16, time.Second
	t0 := time.Unix(100, 0)
	sf := newSentFile(metadata.DefaultPieceSize)
	sf.deal(t0, total, 0, 1, func(i int) bool { return i%2 == 1 }, always, never) // the odd pieces: 1, 3, … 15
	if sf.inShare(0) || !sf.inShare(15) {
		t.Fatalf("share of the odd pieces of 16 missing: piece 0 in %v, piece 15 in %v", sf.inShare(0), sf.inShare(15))
	}
	sf.push(1, t0)
	sf.push(3, t0.Add(beat/2))
	sf.have = wire.NewGroupWant("u", total, true)
	sf.have.SetHave(1)
	sf.window.Settle(sf.peerHolds, t0.Add(beat/2-beat))
	if len(sf.window) != 1 || sf.window[0].Key != 3 {
		t.Fatalf("window %+v after piece 1 was acknowledged, want piece 3 alone", sf.window)
	}
	for _, tc := range []struct {
		name  string
		i     int
		at    time.Duration
		depth int
		want  bool
	}{
		{"in share, room", 5, beat / 2, 2, true},
		{"window full", 5, beat / 2, 1, false},
		{"outside the share", 4, beat / 2, 2, false},
		{"peer holds it", 1, beat / 2, 2, false},
		{"already pushed", 3, beat / 2, 2, false},
		{"deal lapsed", 5, beat, 2, false},
	} {
		if got := sf.takes(tc.i, t0.Add(tc.at), beat, tc.depth); got != tc.want {
			t.Errorf("%s: takes(%d) = %v, want %v", tc.name, tc.i, got, tc.want)
		}
	}
	sf.window.Settle(sf.peerHolds, t0.Add(beat/2))
	if len(sf.window) != 0 {
		t.Fatalf("window %+v a beat after the last push, want empty", sf.window)
	}
	if _, pushed := sf.at[3]; !pushed {
		t.Fatal("the sent mark left with the window slot: the piece would be re-served before ResendAfter")
	}
}

// TestOpensBeat: a hello a whole beat after the deal always deals; inside
// the beat's last quarter one deals only if it acknowledges nothing — it
// is the next beacon, early — and before that none does.
func TestOpensBeat(t *testing.T) {
	const beat = 100 * time.Millisecond
	for _, tc := range []struct {
		age   time.Duration
		acked bool
		want  bool
	}{
		{0, false, false},
		{beat / 2, false, false},
		{beat/2 + beat/4 - 1, false, false},
		{beat/2 + beat/4, false, true},
		{beat/2 + beat/4, true, false},
		{beat - 1, true, false},
		{beat, true, true},
		{3 * beat, false, true},
	} {
		if got := opensBeat(tc.age, beat, tc.acked); got != tc.want {
			t.Errorf("opensBeat(%v, acked %v) = %v, want %v", tc.age, tc.acked, got, tc.want)
		}
	}
}

// helloFor is peer from's hello advertising uri as a download of total
// pieces of which it holds held, heard being its neighbour list.
func helloFor(from trace.NodeID, uri metadata.URI, total int, heard []trace.NodeID, held ...int) *wire.Hello {
	w := wire.NewGroupWant(uri, total, true)
	for _, i := range held {
		w.SetHave(i)
	}
	return &wire.Hello{From: from, Heard: heard, Downloading: []metadata.URI{uri}, Have: []wire.GroupWant{*w}}
}

// seederBench is a hand-driven catalog node holding one file of pieces
// 1 KiB pieces, serving perHello at a time, with peer 2 wedged.
func seederBench(t *testing.T, clk *testutil.Clock, pieces, perHello int) (*Daemon, *wedgedPeer, metadata.URI) {
	t.Helper()
	d := benchAt(t, clk, func(c *Config) {
		c.InternetAccess = true
		c.PublishFiles = 1
		c.FileSize = int64(pieces) * 1024
		c.PieceSize = 1024
		c.PiecesPerHello = perHello
		c.HelloInterval = time.Second
		c.LivenessWindow = 5 * time.Second
		c.Queries = nil
	})
	return d, wedge(t, d, 2), metadata.URIFor(0)
}

func pieceIndexes(msgs []wire.Msg) (idxs []int) {
	for _, m := range msgs {
		idxs = append(idxs, m.(*wire.Piece).Index)
	}
	return idxs
}

// TestWindowBoundsUnackedPushes: per (peer, file) a supplier never has
// more than PiecesPerHello pushes younger than a beat that no bitmap
// shows held, however many hellos it hears; every acknowledged piece
// releases exactly one more; a piece lost on the way frees its slot
// after one beat and is not sent again before ResendAfter.
func TestWindowBoundsUnackedPushes(t *testing.T) {
	const pieces, depth = 64, 4
	clk := testutil.NewClock()
	d, p, uri := seederBench(t, clk, pieces, depth)
	hello := helloFor(2, uri, pieces, []trace.NodeID{1})
	var sent []int
	serve := func() []int {
		d.onHello(2, hello)
		got := pieceIndexes(p.flush())
		sent = append(sent, got...)
		d.mu.Lock()
		defer d.mu.Unlock()
		inPipe := 0
		for i, at := range d.peers[2].sent[uri].at {
			if !hello.Have[0].HaveBit(i) && clk.Now().Sub(at) < d.cfg.HelloInterval {
				inPipe++
			}
		}
		if inPipe > depth {
			t.Fatalf("%d pushes younger than a beat and unacknowledged, the pipe is %d deep", inPipe, depth)
		}
		return got
	}
	if got := serve(); len(got) != depth {
		t.Fatalf("the dealing hello released %v, want %d pieces", got, depth)
	}
	if got := serve(); len(got) != 0 {
		t.Fatalf("a hello acknowledging nothing released %v into a full pipe", got)
	}
	lost, pending := slices.Clone(sent[:2]), slices.Clone(sent[2:]) // the first two are never acknowledged below
	for _, acks := range []int{1, 2, 2} {
		for _, i := range pending[:acks] {
			hello.Have[0].SetHave(i)
		}
		got := serve()
		if len(got) != acks {
			t.Fatalf("%d pieces acknowledged, %v released", acks, got)
		}
		pending = append(pending[acks:], got...)
		clk.Advance(time.Millisecond)
	}
	// The two lost pushes still hold their slots: whatever is acknowledged,
	// the pipe carries depth-2 beside them.
	for _, i := range pending {
		hello.Have[0].SetHave(i)
	}
	if got := serve(); len(got) != depth-len(lost) {
		t.Fatalf("with %d pushes lost in the pipe %v were released, want %d", len(lost), got, depth-len(lost))
	}
	// A beat on, their slots are free again — and go to new pieces.
	clk.Advance(d.cfg.HelloInterval)
	for _, i := range sent {
		if !slices.Contains(lost, i) {
			hello.Have[0].SetHave(i)
		}
	}
	got := serve()
	if len(got) != depth {
		t.Fatalf("a beat after the losses the hello released %v, want a full pipe of %d", got, depth)
	}
	for _, i := range got {
		if slices.Contains(lost, i) {
			t.Fatalf("piece %d re-sent a beat after its push, ResendAfter is %v", i, d.cfg.ResendAfter)
		}
	}
	if st := d.Stats(); st.PiecesResent != 0 {
		t.Fatalf("PiecesResent = %d before any resend deadline", st.PiecesResent)
	}
	// Past the resend deadline the standing advertisement is the NACK.
	clk.Advance(d.cfg.ResendAfter)
	for _, i := range got {
		hello.Have[0].SetHave(i)
	}
	if got := serve(); !slices.Contains(got, lost[0]) || !slices.Contains(got, lost[1]) {
		t.Fatalf("past ResendAfter the hello released %v, want the lost %v among them", got, lost)
	}
	if st := d.Stats(); st.PiecesResent != uint64(len(lost)) {
		t.Fatalf("PiecesResent = %d, want %d", st.PiecesResent, len(lost))
	}
}

// TestHelloInsideBeatContinuesNeverFills: one of two suppliers, holding
// everything. Hellos inside the beat walk its half of the file and then
// release nothing more, although the other half is missing and nobody
// serves it; the first hello after the beat deals again, finds that
// nobody else fed the peer, and fills.
func TestHelloInsideBeatContinuesNeverFills(t *testing.T) {
	const pieces, depth = 12, 4
	clk := testutil.NewClock()
	d, p, uri := seederBench(t, clk, pieces, depth)
	heard := []trace.NodeID{1, 3} // this node and one that never sends a thing
	mine := newShare(2, uri, heard, 1).mine
	share := dealt(pieces, serveOrigin(2, uri, pieces), mine, never)
	if want := []int{11, 2, 3, 7, 9, 10}; !slices.Equal(share, want) {
		t.Fatalf("this node's share of %d pieces is %v, want %v", pieces, share, want)
	}

	hello := helloFor(2, uri, pieces, heard)
	var got []int
	for round := 0; round < pieces; round++ {
		d.onHello(2, hello)
		burst := pieceIndexes(p.flush())
		for _, i := range burst {
			hello.Have[0].SetHave(i)
		}
		got = append(got, burst...)
		clk.Advance(time.Millisecond)
	}
	if !slices.Equal(got, share) {
		t.Fatalf("inside the beat the supplier sent %v, want its dealt share %v and no more", got, share)
	}
	sf := func() *sentFile {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.peers[2].sent[uri]
	}()
	dealtAt := sf.dealtAt

	clk.Advance(d.cfg.HelloInterval)
	d.onHello(2, hello)
	burst := pieceIndexes(p.flush())
	if len(burst) != depth {
		t.Fatalf("the first hello after the beat released %v, want %d pieces", burst, depth)
	}
	again := dealt(pieces, serveOrigin(2, uri, pieces), mine, func(i int) bool { return hello.Have[0].HaveBit(i) })
	outside := 0
	for _, i := range burst {
		if !slices.Contains(again, i) {
			outside++
		}
	}
	if outside == 0 {
		t.Fatalf("nobody else fed the peer for a beat, yet the new deal's burst %v stays inside the share %v", burst, again)
	}
	if !sf.dealtAt.After(dealtAt) {
		t.Fatal("the hello after the beat did not deal again")
	}
}

// relayBench is a hand-driven downloader of one 16-piece file whose
// record came from node 9, with neighbour 2 wedged.
func relayBench(t *testing.T, clk *testutil.Clock, perHello int) (*Daemon, *wedgedPeer, *metadata.Metadata) {
	t.Helper()
	d := benchAt(t, clk, func(c *Config) {
		c.FileSize = 16 * 1024
		c.PieceSize = 1024
		c.PiecesPerHello = perHello
		c.HelloInterval = time.Second
		c.LivenessWindow = 5 * time.Second
	})
	p := wedge(t, d, 2)
	return d, p, feedMetadata(t, d, 9)
}

// pushedTo lists the pieces of uri the daemon has marked as sent to id.
func pushedTo(d *Daemon, id trace.NodeID, uri metadata.URI) (idxs []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ps := d.peers[id]; ps != nil && ps.sent[uri] != nil {
		for i := range ps.sent[uri].at {
			idxs = append(idxs, i)
		}
	}
	slices.Sort(idxs)
	return idxs
}

// TestForwardOnAcquisition: a relay that holds nothing when its
// neighbours' hellos arrive still takes their orders, and every piece it
// then applies goes to each neighbour at once — the received bytes, at
// most once, only inside that neighbour's share, never back to the peer
// it came from, never a piece the neighbour's bitmap holds, and not once
// the deal has lapsed.
func TestForwardOnAcquisition(t *testing.T) {
	const pieces = 16
	clk := testutil.NewClock()
	d, p, rec := relayBench(t, clk, pieces)
	uri := rec.URI

	// Neighbour 2 hears this node and node 5, and holds piece 0; neighbour
	// 3 hears this node alone and holds nothing.
	d.onHello(2, helloFor(2, uri, pieces, []trace.NodeID{1, 5}, 0))
	d.onHello(3, helloFor(3, uri, pieces, []trace.NodeID{1}))
	if got := p.flush(); len(got) != 0 {
		t.Fatalf("a relay holding nothing sent %d frames", len(got))
	}
	share2 := dealt(pieces, serveOrigin(2, uri, pieces), newShare(2, uri, []trace.NodeID{1, 5}, 1).mine, func(i int) bool { return i == 0 })
	slices.Sort(share2)
	if want := []int{1, 3, 7, 9, 10}; !slices.Equal(share2, want) {
		t.Fatalf("neighbour 2's share is %v, want %v", share2, want)
	}

	// All but the last piece arrive: the even ones from node 9, the odd
	// ones from neighbour 3 itself, each of them twice.
	var from3 []int
	for i := 0; i < pieces-1; i++ {
		src := trace.NodeID(9)
		if i%2 == 1 {
			src = 3
			from3 = append(from3, i)
		}
		d.onPiece(src, pieceMsg(rec, i))
		d.onPiece(src, pieceMsg(rec, i))
	}
	var want2, want3 []int
	for i := 0; i < pieces-1; i++ {
		if slices.Contains(share2, i) {
			want2 = append(want2, i)
		}
		if !slices.Contains(from3, i) {
			want3 = append(want3, i)
		}
	}
	frames := p.flush()
	got2 := pieceIndexes(frames)
	slices.Sort(got2)
	if !slices.Equal(got2, want2) {
		t.Fatalf("neighbour 2 was forwarded %v, want its share less what it holds: %v", got2, want2)
	}
	for _, m := range frames {
		if pc := m.(*wire.Piece); !bytes.Equal(pc.Data, pieceMsg(rec, pc.Index).Data) || pc.Total != pieces {
			t.Fatalf("forwarded piece %d does not carry the bytes received", pc.Index)
		}
	}
	if got := pushedTo(d, 2, uri); !slices.Equal(got, want2) {
		t.Fatalf("sent marks for neighbour 2 are %v, want %v", got, want2)
	}
	if got := pushedTo(d, 3, uri); !slices.Equal(got, want3) {
		t.Fatalf("neighbour 3 was forwarded %v, want everything it did not send itself: %v", got, want3)
	}
	st := d.Stats()
	if want := uint64(len(want2) + len(want3)); st.PiecesForwarded != want || st.PiecesResent != 0 {
		t.Fatalf("PiecesForwarded = %d, PiecesResent = %d; want %d and 0", st.PiecesForwarded, st.PiecesResent, want)
	}
	if st.PiecesVerified != pieces-1 || st.PiecesDuplicate != pieces-1 {
		t.Fatalf("verified %d duplicate %d, want %d each", st.PiecesVerified, st.PiecesDuplicate, pieces-1)
	}

	// The beat over, the orders have lapsed: the last piece goes nowhere
	// until a neighbour's next hello asks.
	clk.Advance(d.cfg.HelloInterval)
	d.onPiece(9, pieceMsg(rec, pieces-1))
	if got := p.flush(); len(got) != 0 || d.Stats().PiecesForwarded != st.PiecesForwarded {
		t.Fatalf("a piece applied after the beat was forwarded on a lapsed deal (%d frames)", len(got))
	}
}

// TestGroupMemberOrdersEndOnSuppression: a standing order dealt to a
// neighbour before its group confirmed ends with the first of its hellos
// left to the schedule. The pieces this node applies afterwards are not
// forwarded to it against the bitmap of the hello the order was dealt
// from — the suppressed hello, which holds them all, never updated it.
func TestGroupMemberOrdersEndOnSuppression(t *testing.T) {
	const pieces = 16
	clk := testutil.NewClock()
	d := benchAt(t, clk, func(c *Config) {
		c.FileSize, c.PieceSize, c.PiecesPerHello = pieces*1024, 1024, pieces
		c.HelloInterval, c.LivenessWindow = time.Second, 5*time.Second
		c.EnableBcast, c.Broadcast = true, &airtap{}
	})
	wedge(t, d, 2).g.release() // the gate wedges one peer at a time: 3's
	wedge(t, d, 3)
	rec := feedMetadata(t, d, 9)
	ordered := func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.peers[2] != nil && d.peers[2].sent[rec.URI] != nil
	}
	d.onHello(2, helloFor(2, rec.URI, pieces, []trace.NodeID{1, 3}))
	d.onHello(3, helloFor(3, rec.URI, pieces, []trace.NodeID{1, 2}))
	if !ordered() || d.bcast.InGroup(2) {
		t.Fatal("want an order for node 2 and no confirmed group yet")
	}
	for _, id := range []trace.NodeID{2, 3} {
		d.bcast.HandleGroup(context.Background(), id, &wire.GroupHello{From: id, Members: []trace.NodeID{1, 2, 3}})
	}
	if !d.bcast.InGroup(2) {
		t.Fatal("the group did not confirm on its members' views")
	}
	all := make([]int, pieces)
	for i := range all {
		all[i] = i
	}
	d.onHello(2, helloFor(2, rec.URI, pieces, []trace.NodeID{1, 3}, all...))
	if ordered() {
		t.Fatal("node 2's order outlived the hello left to the schedule")
	}
	for i := 0; i < pieces; i++ {
		d.onPiece(9, pieceMsg(rec, i))
	}
	if got := pushedTo(d, 2, rec.URI); len(got) != 0 {
		t.Fatalf("forwarded %v to a confirmed member whose last hello holds every piece", got)
	}
}

// TestForwardStaysInsideTheWindow: forwarding is pushing — it takes a
// slot of the neighbour's pipe like any other push, and what did not fit
// goes out on the neighbour's next ack instead.
func TestForwardStaysInsideTheWindow(t *testing.T) {
	const pieces, depth = 16, 2
	clk := testutil.NewClock()
	d, p, rec := relayBench(t, clk, depth)
	hello := helloFor(2, rec.URI, pieces, []trace.NodeID{1})
	d.onHello(2, hello)
	for i := 0; i < 3; i++ {
		d.onPiece(9, pieceMsg(rec, i))
	}
	got := pieceIndexes(p.flush())
	if !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("three pieces applied, %v forwarded into a pipe %d deep", got, depth)
	}
	hello.Have[0].SetHave(0)
	d.onHello(2, hello)
	if got := pieceIndexes(p.flush()); !slices.Equal(got, []int{2}) {
		t.Fatalf("the ack released %v, want the piece that had not fit", got)
	}
}

// TestAckStaysOnItsPlane: a piece that arrived on a pairwise session and
// took effect is answered with one hello to its sender; a duplicate, a
// piece the group plane delivered, and a piece from a peer inside a Busy
// window it advertised are not.
func TestAckStaysOnItsPlane(t *testing.T) {
	clk := testutil.NewClock()
	d, p, rec := relayBench(t, clk, 4)
	acks := func() (n int) {
		p.t.Helper()
		for _, m := range p.flush() {
			h, ok := m.(*wire.Hello)
			if !ok {
				t.Fatalf("the supplier was sent a %v", m.Type())
			}
			if !slices.Contains(h.Downloading, rec.URI) || len(h.Queries) != 0 {
				t.Fatalf("the ack is %+v, want the download advertised and no query", h)
			}
			n++
		}
		if got := d.Stats().Transport.HellosKicked; got != 0 {
			t.Fatalf("an ack was counted as %d kicked rounds", got)
		}
		return n
	}
	d.onPiece(2, pieceMsg(rec, 0))
	if n := acks(); n != 1 {
		t.Fatalf("%d hellos for one applied pairwise piece, want 1", n)
	}
	d.onPiece(2, pieceMsg(rec, 0))
	if n := acks(); n != 0 {
		t.Fatalf("%d hellos for a duplicate", n)
	}
	if !d.acceptPiece(2, pieceMsg(rec, 1), false) {
		t.Fatal("a valid group-plane piece was not accepted")
	}
	if n := acks(); n != 0 {
		t.Fatalf("%d pairwise hellos for a piece the group plane delivered", n)
	}
	d.onBusy(2, &wire.Busy{From: 2, Scope: wire.BusyPiece, RetryAfterMillis: 500})
	d.onPiece(2, pieceMsg(rec, 2))
	if n := acks(); n != 0 {
		t.Fatalf("%d hellos to a peer inside its Busy window", n)
	}
	clk.Advance(501 * time.Millisecond)
	d.onPiece(2, pieceMsg(rec, 3))
	if n := acks(); n != 1 {
		t.Fatalf("%d hellos once the Busy window had passed, want 1", n)
	}
	if st := d.Stats(); st.Transport.HellosAcked != 2 || st.PiecesVerified != 4 {
		t.Fatalf("hellos_acked %d verified %d, want 2 and 4", st.Transport.HellosAcked, st.PiecesVerified)
	}
}

// TestAckFollowsGroupCommit: on a node with a data directory nothing is
// acknowledged while the piece's fsync runs, and a commit is answered
// with one hello per distinct pairwise sender, whose bitmap already shows
// the whole batch.
func TestAckFollowsGroupCommit(t *testing.T) {
	fs := newGateFS()
	d, _ := durableBench(t, testutil.NewClock(), t.TempDir(), fs)
	p := wedge(t, d, 5)
	rec := feedMetadata(t, d, 5)

	open := fs.shut()
	d.onPiece(5, pieceMsg(rec, 0))
	<-fs.waiting // the committer is inside the first batch's fsync
	d.onPiece(5, pieceMsg(rec, 1))
	d.onPiece(5, pieceMsg(rec, 2))
	d.acceptPiece(7, pieceMsg(rec, 3), false) // the group plane's, in the same batch
	if control, _ := p.queued(); control != 0 {
		t.Fatalf("%d frames queued for the sender before any fsync returned", control)
	}
	open()
	waitFor(t, waitLimit, func() bool { return settled(d) && d.Stats().Transport.HellosAcked == 2 }, "both commits to be acknowledged")
	frames := p.flush()
	if len(frames) != 2 {
		t.Fatalf("%d frames for two commits with one pairwise sender, want 2", len(frames))
	}
	for n, want := range [][]int{{0}, {0, 1, 2, 3}} {
		h := frames[n].(*wire.Hello)
		for i := 0; i < 4; i++ {
			if got := h.Have[0].HaveBit(i); got != slices.Contains(want, i) {
				t.Fatalf("ack %d: piece %d held = %v, want the batch %v and what came before", n, i, got, want)
			}
		}
	}
}

// TestAckClockedDownloadNeedsNoBeacon is the standing order end to end: a
// loopback pair whose periodic beacon is an hour away moves a 64-piece
// file four pieces deep in well under a second, with no duplicate, no
// resend and no kicked round beyond the query's and the selection's. On
// hellos alone it stalls after the first burst of four.
func TestAckClockedDownloadNeedsNoBeacon(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const pieces, depth = 64, 4
	seed, leech, done, stop := livePair(t, time.Hour, 1, pieces, func(c *Config) {
		c.PiecesPerHello = depth
		c.LivenessWindow = 10 * time.Hour
	})
	defer stop()

	began := time.Now()
	leech.AddQuery("f0")
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("download not finished a second after the query: leecher verified %d of %d", leech.Stats().PiecesVerified, pieces)
	}
	t.Logf("%d pieces, %d per hello, beacon 1 h: %v", pieces, depth, time.Since(began))
	ls, ss := leech.Stats(), seed.Stats()
	if ls.PiecesVerified != pieces || ls.PiecesDuplicate != 0 || ss.PiecesResent != 0 {
		t.Fatalf("verified %d duplicate %d resent %d, want %d/0/0", ls.PiecesVerified, ls.PiecesDuplicate, ss.PiecesResent, pieces)
	}
	// A frame is counted once its Send returns, which the piece's arrival
	// can beat.
	waitFor(t, waitLimit, func() bool { return seed.Stats().Transport.PiecesSent >= pieces }, "the last piece frame to be counted")
	if got := seed.Stats().Transport.PiecesSent; got != pieces {
		t.Fatalf("the seeder put %d piece frames on the link for %d pieces", got, pieces)
	}
	if ls.Transport.HellosAcked != pieces {
		t.Fatalf("the leecher acknowledged %d times for %d pieces", ls.Transport.HellosAcked, pieces)
	}
	waitFor(t, waitLimit, func() bool { return leech.Manager().Stats().HellosKicked >= 2 }, "both kicked rounds to be counted")
	if got := leech.Manager().Stats().HellosKicked; got != 2 {
		t.Fatalf("the leecher kicked %d rounds, want 2: an ack is not a kick", got)
	}
}

// liveLine starts a seeder and a relay dialing it on a loopback where
// every frame the seeder sends takes lag on the wire, and returns a
// function that joins a leecher to the relay alone. The files have pieces
// 1 KiB pieces; done channels receive each node's completion time.
func liveLine(tb testing.TB, hello time.Duration, pieces, perHello int, lag time.Duration) (
	seed, relay *Daemon, relayDone chan time.Time, join func() (*Daemon, chan time.Time), stop func()) {
	tb.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	net := transport.NewLoopback()
	cfg := func(id trace.NodeID, tr transport.Transport) (Config, chan time.Time) {
		c := fastCfg(id, tr)
		c.HelloInterval = hello
		c.LivenessWindow = 10 * hello
		c.FileSize = int64(pieces) * 1024
		c.PieceSize = 1024
		c.PiecesPerHello = perHello
		done := make(chan time.Time, 1)
		c.OnComplete = func(metadata.URI) { done <- time.Now() }
		return c, done
	}
	var ran []chan error
	launch := func(c Config) *Daemon { // listening before the next one dials it
		d, err := New(c)
		if err != nil {
			tb.Fatal(err)
		}
		ran = append(ran, start(ctx, d))
		waitFor(tb, waitLimit, func() bool { return c.ListenAddr == "" || d.Addr() != "" }, "the listener")
		return d
	}
	sc, _ := cfg(1, fault.Wrap(net, fault.Config{Seed: 1, DelayMin: lag, DelayMax: lag + 1}))
	sc.ListenAddr = "seed"
	sc.InternetAccess = true
	sc.PublishFiles = 1
	seed = launch(sc)
	rc, relayDone := cfg(2, net)
	rc.ListenAddr = "relay"
	rc.PeerAddrs = []string{"seed"}
	relay = launch(rc)
	waitFor(tb, waitLimit, func() bool { return len(relay.Manager().Peers()) == 1 }, "the relay's session")
	join = func() (*Daemon, chan time.Time) {
		lc, leechDone := cfg(3, net)
		lc.PeerAddrs = []string{"relay"}
		leech := launch(lc)
		waitFor(tb, waitLimit, func() bool { return len(leech.Manager().Peers()) == 1 }, "the leecher's session")
		return leech, leechDone
	}
	stop = func() {
		cancel()
		for _, r := range ran {
			<-r
		}
		net.Close()
	}
	return seed, relay, relayDone, join, stop
}

// TestRelayForwardsWithoutATick: seeder → relay → leecher, every
// periodic beacon an hour away, the seeder's link slow enough that the
// leecher's order reaches the relay while the relay is still downloading.
// The leecher's count follows the relay's piece by piece — forwarded on
// acquisition, clocked by its acks — and it finishes right behind it,
// with no duplicate. On beacons alone it would hold what the relay had
// when its hello arrived, for an hour.
func TestRelayForwardsWithoutATick(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const pieces, depth = 64, 4
	_, relay, relayDone, join, stop := liveLine(t, time.Hour, pieces, depth, time.Millisecond)
	defer stop()

	relay.AddQuery("f0")
	waitFor(t, waitLimit, func() bool { return relay.Stats().PiecesVerified > 0 }, "the relay's first piece")
	leech, leechDone := join()
	leech.AddQuery("f0")
	var relayAt, leechAt time.Time
	for relayAt.IsZero() || leechAt.IsZero() {
		select {
		case relayAt = <-relayDone:
		case leechAt = <-leechDone:
		case <-time.After(10 * time.Second):
			t.Fatalf("10 s in, the relay verified %d and the leecher %d of %d pieces",
				relay.Stats().PiecesVerified, leech.Stats().PiecesVerified, pieces)
		}
	}
	rs, ls := relay.Stats(), leech.Stats()
	t.Logf("leecher done %v after the relay; %d of %d pieces forwarded on acquisition", leechAt.Sub(relayAt), rs.PiecesForwarded, pieces)
	if lag := leechAt.Sub(relayAt); lag > 500*time.Millisecond {
		t.Fatalf("the leecher finished %v after the relay", lag)
	}
	if rs.PiecesForwarded == 0 {
		t.Fatal("the relay forwarded nothing on acquisition")
	}
	if ls.PiecesVerified != pieces || ls.PiecesDuplicate != 0 || rs.PiecesResent != 0 {
		t.Fatalf("leecher verified %d duplicate %d, relay resent %d; want %d/0/0", ls.PiecesVerified, ls.PiecesDuplicate, rs.PiecesResent, pieces)
	}
	waitFor(t, waitLimit, func() bool { return relay.Stats().Transport.PiecesSent >= pieces }, "the last piece frame to be counted")
	if got := relay.Stats().Transport.PiecesSent; got != pieces {
		t.Fatalf("the relay put %d piece frames on the link for %d pieces", got, pieces)
	}
}

// TestStreamingHoldersStayNearlyDisjoint: three complete holders stream
// a file to one downloader over links slow enough that the download
// spans many beats, so deals happen with every pipe full. What a holder
// has in flight at a deal is not in the bitmap the others deal from; the
// rendezvous-hashed share over the suppliers the downloader names keeps
// it with its holder, and the duplicates stay a few per cent (numbered
// from the front they were a fifth of the file).
func TestStreamingHoldersStayNearlyDisjoint(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 600 pieces over slowed links")
	}
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	const pieces = 600
	uri := metadata.URIFor(0)
	cfg := func(id trace.NodeID, perHello int) Config {
		c := fastCfg(id, fault.Wrap(net, fault.Config{Seed: uint64(id), DelayMin: 300 * time.Microsecond, DelayMax: 301 * time.Microsecond}))
		c.HelloInterval = 20 * time.Millisecond
		c.LivenessWindow = 3 * time.Second
		c.FileSize = pieces * 1024
		c.PieceSize = 1024
		c.PiecesPerHello = perHello
		c.OutboxLen = 2 * pieces
		return c
	}
	holders := make([]*Daemon, 3)
	for i := range holders {
		c := cfg(trace.NodeID(i+1), 4)
		c.ListenAddr = []string{"h1", "h2", "h3"}[i]
		if i == 0 {
			c.InternetAccess = true
			c.PublishFiles = 1
		} else {
			c.PeerAddrs = []string{"h1"}
			c.Queries = []string{"f0"}
		}
		d, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		holders[i] = d
		start(ctx, d)
	}
	waitFor(t, waitLimit, func() bool { return holders[1].Completed(uri) && holders[2].Completed(uri) }, "holders complete")

	c := cfg(9, 4)
	c.PeerAddrs = []string{"h1", "h2", "h3"}
	leech, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	start(ctx, leech)
	waitFor(t, waitLimit, func() bool { return len(leech.Manager().Peers()) == 3 }, "three sessions")
	began := time.Now()
	leech.AddQuery("f0")
	waitFor(t, waitLimit, func() bool { return leech.Completed(uri) }, "download from three holders")
	beats := int(time.Since(began) / c.HelloInterval)
	st := leech.Stats()
	t.Logf("%d pieces over %d beats: %d duplicates", pieces, beats, st.PiecesDuplicate)
	if beats < 3 {
		t.Skipf("the download took %d beats: too few deals with full pipes to say anything", beats)
	}
	if st.PiecesVerified != pieces || st.PiecesDuplicate > pieces/8 {
		t.Fatalf("verified %d duplicate %d, want %d and at most %d", st.PiecesVerified, st.PiecesDuplicate, pieces, pieces/8)
	}
}

// TestSupplierListFollowsItsRules walks a download's supplier list
// (serve.go) through its rules on a hand-driven requester: the first
// hello names every live peer but a fellow downloader that never pushed;
// a push names a peer, a hello that lists the download un-names one that
// never pushed, a hello that does not list it names one, and a dropped
// session un-names one at once and ends its standing orders — unless the
// peer is in the table again when the call lands. Every change bumps the
// deal number; a hello that changes nothing does not.
func TestSupplierListFollowsItsRules(t *testing.T) {
	const pieces = 16
	clk := testutil.NewClock()
	d, _, rec := relayBench(t, clk, 4)
	uri := rec.URI
	listing := func(id trace.NodeID) *wire.Hello { return helloFor(id, uri, pieces, nil) }
	d.onHello(3, listing(3))
	d.onHello(4, &wire.Hello{From: 4})
	h := wire.Hello{Heard: []trace.NodeID{2, 3, 4, 5}}
	d.helloContent(&h)
	if len(h.Deals) != 1 {
		t.Fatalf("the download's first hello carries deals %+v, want one", h.Deals)
	}
	deal := func() wire.Deal {
		var h wire.Hello
		d.helloContent(&h)
		return h.Deals[0]
	}
	no := h.Deals[0].No
	for _, step := range []struct {
		what  string
		do    func()
		named []trace.NodeID
		moved bool
	}{
		{"first hello", func() {}, []trace.NodeID{2, 4, 5}, false},
		{"5 lists the download, never pushed", func() { d.onHello(5, listing(5)) }, []trace.NodeID{2, 4}, true},
		{"3 pushes a piece", func() { d.onPiece(3, pieceMsg(rec, 0)) }, []trace.NodeID{2, 3, 4}, true},
		{"3 lists the download, having pushed", func() { d.onHello(3, listing(3)) }, []trace.NodeID{2, 3, 4}, false},
		{"4 says hello without the download", func() { d.onHello(4, &wire.Hello{From: 4}) }, []trace.NodeID{2, 3, 4}, false},
		{"4 lists the download, never pushed", func() { d.onHello(4, listing(4)) }, []trace.NodeID{2, 3}, true},
		{"3's session drops", func() { (*handler)(d).Gone(3) }, []trace.NodeID{2}, true},
		{"5 stops listing the download", func() { d.onHello(5, &wire.Hello{From: 5}) }, []trace.NodeID{2, 5}, true},
		{"a Gone for node 2, which is in the table", func() { (*handler)(d).Gone(2) }, []trace.NodeID{2, 5}, false},
	} {
		step.do()
		got := deal()
		if !slices.Equal(got.Suppliers, step.named) || (got.No != no) != step.moved {
			t.Fatalf("%s: deal %d names %v; want %v, number moved %v (from %d)", step.what, got.No, got.Suppliers, step.named, step.moved, no)
		}
		no = got.No
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ps := d.peers[3]; ps != nil && ps.sent != nil {
		t.Fatalf("node 3's standing orders outlived its session: %v", ps.sent)
	}
	if ps := d.peers[4]; ps == nil || ps.sent[uri] == nil {
		t.Fatal("node 4's standing order went with node 3's session")
	}
}

// TestGroupPlaneNamesFellowDownloaders: with the group plane on, a
// fellow downloader that never pushed stays on the supplier list — the
// schedule can grant it a piece to broadcast — so the list follows the
// live peers, and a hello that lists the download changes nothing.
func TestGroupPlaneNamesFellowDownloaders(t *testing.T) {
	const pieces = 16
	d := benchAt(t, testutil.NewClock(), func(c *Config) {
		c.FileSize = pieces * 1024
		c.PieceSize = 1024
		c.HelloInterval = time.Second
		c.LivenessWindow = 5 * time.Second
		c.EnableBcast = true
	})
	wedge(t, d, 2)
	uri := feedMetadata(t, d, 9).URI
	d.onHello(3, helloFor(3, uri, pieces, nil))
	h := wire.Hello{Heard: []trace.NodeID{2, 3}}
	d.helloContent(&h)
	if len(h.Deals) != 1 || !slices.Equal(h.Deals[0].Suppliers, []trace.NodeID{2, 3}) {
		t.Fatalf("the first hello's deals %+v, want one naming [2 3]", h.Deals)
	}
	no := h.Deals[0].No
	d.onHello(3, helloFor(3, uri, pieces, nil))
	d.onHello(2, helloFor(2, uri, pieces, nil))
	h = wire.Hello{}
	d.helloContent(&h)
	if got := h.Deals[0]; !slices.Equal(got.Suppliers, []trace.NodeID{2, 3}) || got.No != no {
		t.Fatalf("hellos listing the download: deal %d names %v, want %d naming [2 3]", got.No, got.Suppliers, no)
	}
}

// sentBy is one piece frame and the node that sent it.
type sentBy struct {
	from  trace.NodeID
	index int
}

// TestNamingASecondHolderReCutsMidStream, on the stepped swarm: a leecher
// streams a file from one holder; partway through, it dials a second,
// complete holder, whose hello does not list the download, and so names
// it. No beat fires while anything is on the wire, so the new list rides
// the leecher's acks and there is no beat deal: both holders re-cut
// within the beat, and neither fills. After the second holder is named
// the first sends at most PiecesPerHello of the second's pieces — those
// its pipe already held — every piece the second sends is its own, and at
// most PiecesPerHello pieces arrive twice. A pipe whose every push turned
// out a duplicate hears no ack and waits out its beat; if the stream
// stalls so, a beat fires once nothing is on the wire, and only what
// arrived before it is judged. Each seed is one order of delivery.
func TestNamingASecondHolderReCutsMidStream(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { reCutMidStream(t, seed) })
	}
}

func reCutMidStream(t *testing.T, seed uint64) {
	const pieces, depth = 64, 4
	s := newStepSwarm(t, "TestNamingASecondHolderReCutsMidStream", seed, stepnet.Faults{})
	cfg := func(id trace.NodeID, mutate func(*Config)) Config {
		c := stepCfg(id)
		c.FileSize, c.PieceSize, c.PiecesPerHello = pieces*1024, 1024, depth
		mutate(&c)
		return c
	}
	uri := metadata.URIFor(0)
	s.start(cfg(1, func(c *Config) { c.ListenAddr, c.InternetAccess, c.PublishFiles = "a", true, 1 }))
	second := s.start(cfg(2, func(c *Config) { c.ListenAddr, c.PeerAddrs = "b", []string{"a"} })).d
	s.until(1000, "the second holder's session", func() bool { return len(second.Manager().Peers()) == 1 })
	s.act("the second holder queries", func() { second.AddQuery("f0") })
	s.until(10000, "the second holder's copy", func() bool { return second.Completed(uri) })

	var frames []sentBy
	s.net.Delivered = func(to, from trace.NodeID, m wire.Msg) {
		if p, ok := m.(*wire.Piece); ok && to == 9 {
			frames = append(frames, sentBy{from, p.Index})
		}
	}
	leech := s.start(cfg(9, func(c *Config) { c.PeerAddrs = []string{"a"} })).d
	s.until(1000, "the leecher's session", func() bool { return len(leech.Manager().Peers()) == 1 })
	s.act("the leecher queries", func() { leech.AddQuery("f0") })
	s.until(10000, "a quarter of the file", func() bool { return leech.Stats().PiecesVerified >= pieces/4 })
	var dialed error
	s.await(1000, "the dial of the second holder", func() { dialed = leech.Manager().Dial(s.ctx, "b") })
	if dialed != nil {
		t.Fatal(dialed)
	}
	both := []trace.NodeID{1, 2}
	s.until(1000, "the leecher to name both holders", func() bool {
		leech.mu.Lock()
		defer leech.mu.Unlock()
		f := leech.files[uri]
		return f != nil && (f.completed || f.deal != nil && slices.Equal(f.deal.Suppliers, both))
	})
	before := len(frames)
	if before >= 3*pieces/4 {
		t.Skipf("%d of %d pieces had landed when the second holder was named: too late to say anything", before, pieces)
	}
	judged := -1
	s.net.OnBeat = func() {
		if judged < 0 {
			judged = len(frames)
		}
	}
	s.until(10000, "the download", func() bool { return leech.Completed(uri) })
	if judged < 0 {
		judged = len(frames)
	}

	sh := newShare(9, uri, both, 1)
	sent := map[trace.NodeID]int{}
	arrived := map[int]bool{}
	firstSendsSeconds, dups := 0, 0
	for n, f := range frames[:judged] {
		sent[f.from]++
		if arrived[f.index] {
			dups++
		}
		arrived[f.index] = true
		switch owner := sh.owner(f.index); {
		case f.from == 2 && owner != 2:
			t.Fatalf("the second holder sent piece %d, the first holder's: it filled", f.index)
		case f.from == 1 && owner == 2 && n >= before:
			firstSendsSeconds++
		}
	}
	beat := "no beat"
	if judged < len(frames) {
		beat = fmt.Sprintf("a beat fired after %d of %d frames", judged, len(frames))
	}
	t.Logf("%d pieces, %s: %d from the first holder, %d from the second (named after %d); %d of the second's from the first since; %d duplicates",
		pieces, beat, sent[1], sent[2], before, firstSendsSeconds, dups)
	if sent[2] == 0 {
		t.Fatal("the second holder never served its share")
	}
	if firstSendsSeconds > depth {
		t.Fatalf("after the second holder was named the first sent %d of its pieces, its pipe holds %d", firstSendsSeconds, depth)
	}
	if dups > depth {
		t.Fatalf("%d pieces arrived twice, want at most %d", dups, depth)
	}
	if st := leech.Stats(); st.PiecesVerified != pieces || (judged == len(frames) && len(frames) != pieces+int(st.PiecesDuplicate)) {
		t.Fatalf("verified %d duplicate %d over %d frames; want %d and no resend", st.PiecesVerified, st.PiecesDuplicate, len(frames), pieces)
	}
}

// BenchmarkServeAck prices one acknowledgement at a supplier of a
// 4,096-piece file: a hello inside the beat whose bitmap shows one more
// piece held, answered with the next piece of the standing order. The
// work is the window and the cursor — no walk over the file, whatever its
// size (allocs/op is the hello's index, the pick and the piece frame).
func BenchmarkServeAck(b *testing.B) {
	const pieces, depth = 4096, 16
	clk := testutil.NewClock()
	d := benchAt(b, clk, func(c *Config) {
		c.InternetAccess = true
		c.PublishFiles = 1
		c.FileSize = pieces * 16
		c.PieceSize = 16
		c.PiecesPerHello = depth
		c.HelloInterval = time.Hour
		c.LivenessWindow = 2 * time.Hour
		c.Queries = nil
	})
	uri := metadata.URIFor(0)
	var hello *wire.Hello
	deal := func() {
		d.mu.Lock()
		delete(d.peers, 2)
		d.mu.Unlock()
		hello = helloFor(2, uri, pieces, []trace.NodeID{1})
		d.onHello(2, hello)
	}
	deal()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d.mu.Lock()
		window := d.peers[2].sent[uri].window
		d.mu.Unlock()
		if len(window) == 0 { // the file is through: start it over
			b.StopTimer()
			deal()
			b.StartTimer()
			continue
		}
		hello.Have[0].SetHave(window[0].Key)
		d.onHello(2, hello)
	}
}

// BenchmarkPairTransferDefaultClock times a 64-piece download between a
// loopback pair at mbtd's defaults — a 1 s beacon, 16 pieces per hello —
// from the query to the verified file. Beacon-clocked that is four beats,
// 3.0 s, whatever the link carries.
func BenchmarkPairTransferDefaultClock(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, leech, done, stop := livePair(b, time.Second, 1, 64, func(c *Config) { c.PiecesPerHello = DefaultPiecesPerHello })
		b.StartTimer()
		began := time.Now()
		leech.AddQuery("f0")
		<-done
		total += time.Since(began)
		b.StopTimer()
		if st := leech.Stats(); st.PiecesDuplicate != 0 {
			b.Fatalf("%d duplicates on a pair", st.PiecesDuplicate)
		}
		stop()
	}
	b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "ms/op")
}

// BenchmarkRelayHop times one hop of a seeder → relay → leecher line
// beaconing every 100 ms: from the relay verifying a file's only piece to
// the leecher verifying it. The leecher's order is at the relay before
// the piece is (the seeder's link adds 20 ms), so the hop is the
// forward — not the wait for the leecher's next beacon.
func BenchmarkRelayHop(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, relay, relayDone, join, stop := liveLine(b, 100*time.Millisecond, 1, 4, 20*time.Millisecond)
		leech, leechDone := join()
		b.StartTimer()
		relay.AddQuery("f0")
		waitFor(b, waitLimit, func() bool { return relay.Stats().MetadataStored == 1 }, "the relay's record")
		leech.AddQuery("f0")
		total += (<-leechDone).Sub(<-relayDone)
		b.StopTimer()
		stop()
	}
	b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "hop-ms/op")
}

// pieceOrder is a transport whose dialed conns record the index of every
// piece they receive, in arrival order.
type pieceOrder struct {
	transport.Transport
	mu  sync.Mutex
	got []int
}

func (p *pieceOrder) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := p.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &orderConn{Conn: c, p: p}, nil
}

func (p *pieceOrder) indices() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.got)
}

type orderConn struct {
	transport.Conn
	p *pieceOrder
}

func (c *orderConn) Recv(ctx context.Context) (wire.Msg, error) {
	m, err := c.Conn.Recv(ctx)
	if pc, ok := m.(*wire.Piece); ok {
		c.p.mu.Lock()
		c.p.got = append(c.p.got, pc.Index)
		c.p.mu.Unlock()
	}
	return m, err
}

// walkOrder is the pick order of a lone supplier's first burst to a
// requester holding nothing: the whole file, walked cyclically from the
// requester's origin.
func walkOrder(requester trace.NodeID, uri metadata.URI, total int) []int {
	origin := serveOrigin(requester, uri, total)
	out := make([]int, total)
	for k := range out {
		out[k] = (origin + k) % total
	}
	return out
}

// TestBurstArrivesInPickOrder: at four Ps over Loopback, a seeder deals a
// lone leecher its whole 16-piece file in one burst — each piece a
// sixteenth of flightBytes, so the cap leaves the window 16 deep — and the
// pieces arrive in pick order, the cyclic walk from the leecher's origin.
// Serving starts no goroutine that outlives it: the process runs as many
// goroutines after the download as before the query.
func TestBurstArrivesInPickOrder(t *testing.T) {
	defer testutil.NoLeaks(t)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const pieces = 16
	var rec *pieceOrder
	seed, leech, done, stop := livePair(t, slowBeacon, 1, pieces, func(c *Config) {
		c.PieceSize = flightBytes / pieces
		c.FileSize = flightBytes
		if rec == nil {
			rec = &pieceOrder{Transport: c.Transport}
		}
		c.Transport = rec
	})
	defer stop()
	before := runtime.NumGoroutine()
	leech.AddQuery("f0")
	uri := metadata.URIFor(0)
	select {
	case got := <-done:
		if got != uri {
			t.Fatalf("completed %s", got)
		}
	case <-time.After(waitLimit):
		t.Fatalf("the download never completed; pieces arrived in order %v", rec.indices())
	}
	want := walkOrder(leech.cfg.ID, uri, pieces)
	if got := rec.indices(); !slices.Equal(got, want) {
		t.Fatalf("pieces arrived in order %v, want the pick order %v", got, want)
	}
	// The writer counts a frame before it hands it to the conn, so every
	// piece the leecher verified is already counted sent.
	if sent := seed.Stats().Transport.PiecesSent; sent != pieces {
		t.Fatalf("the seeder sent %d piece frames, want %d", sent, pieces)
	}
	waitFor(t, waitLimit, func() bool { return runtime.NumGoroutine() <= before }, "the burst's goroutines to exit")
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after the burst, %d before it", after, before)
	}
}

// TestBurstToAStalledLane: at four Ps, a 16-piece burst to a peer whose
// writer is parked lands in its data lane whole and in pick order.
func TestBurstToAStalledLane(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const pieces = 16
	clk := testutil.NewClock()
	d, p, uri := seederBench(t, clk, pieces, pieces)
	d.onHello(2, helloFor(2, uri, pieces, nil))
	if got, want := pieceIndexes(p.flush()), walkOrder(2, uri, pieces); !slices.Equal(got, want) {
		t.Fatalf("the lane holds %v, want the pick order %v", got, want)
	}
}

// TestFlightWindowIsCappedInBytes: with PiecesPerHello 16, a dealing
// hello to a peer whose writer is parked puts PiecesPerHello pieces in its
// lane while they fit in flightBytes, flightBytes' worth once they do not,
// and one piece when a piece alone is larger; each acknowledged piece
// then releases exactly one more, so the bytes unacknowledged never pass
// the cap (or one piece).
func TestFlightWindowIsCappedInBytes(t *testing.T) {
	const perHello = 16
	for _, tc := range []struct {
		pieceSize, want int
	}{
		{1 << 10, perHello},
		{flightBytes / perHello, perHello},
		{flightBytes/perHello + 1, perHello - 1},
		{256 << 10, flightBytes / (256 << 10)},
		{flightBytes/2 + 1, 1},
		{2 * flightBytes, 1},
	} {
		clk := testutil.NewClock()
		d := benchAt(t, clk, func(c *Config) {
			c.InternetAccess = true
			c.PublishFiles = 1
			c.FileSize = int64(tc.want+1) * int64(tc.pieceSize)
			c.PieceSize = tc.pieceSize
			c.PiecesPerHello = perHello
			c.HelloInterval = time.Second
			c.LivenessWindow = 5 * time.Second
			c.Queries = nil
		})
		p, uri, total := wedge(t, d, 2), metadata.URIFor(0), tc.want+1
		hello := helloFor(2, uri, total, nil)
		d.onHello(2, hello)
		sent := p.flush()
		bytes := 0
		for _, m := range sent {
			bytes += len(m.(*wire.Piece).Data)
		}
		if len(sent) != tc.want || (len(sent) > 1 && bytes > flightBytes) {
			t.Fatalf("%d-byte pieces: the dealing hello released %d pieces, %d bytes; want %d within %d bytes",
				tc.pieceSize, len(sent), bytes, tc.want, flightBytes)
		}
		hello.Have[0].SetHave(sent[0].(*wire.Piece).Index)
		d.onHello(2, hello)
		if got := p.flush(); len(got) != 1 {
			t.Fatalf("%d-byte pieces: an ack of one piece released %d", tc.pieceSize, len(got))
		}
	}
}

// gatedListener hands out conns whose Send puts a piece on the link and
// then holds the sender's writer until release is signalled: the peer can
// verify the piece while Send has not returned.
type gatedListener struct {
	transport.Listener
	release chan struct{}
}

func (l gatedListener) Accept(ctx context.Context) (transport.Conn, error) {
	c, err := l.Listener.Accept(ctx)
	if err != nil {
		return nil, err
	}
	return gatedConn{Conn: c, release: l.release}, nil
}

type gatedConn struct {
	transport.Conn
	release chan struct{}
}

func (c gatedConn) Send(ctx context.Context, m wire.Msg) error {
	if err := c.Conn.Send(ctx, m); err != nil || m.Type() != wire.TypePiece {
		return err
	}
	select {
	case <-c.release:
	case <-ctx.Done():
	}
	return nil
}

type gatedTransport struct {
	transport.Transport
	release chan struct{}
}

func (g gatedTransport) Listen(addr string) (transport.Listener, error) {
	lis, err := g.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return gatedListener{Listener: lis, release: g.release}, nil
}

// TestSentCountedBeforeTheSendReturns: a seeder's writer holds each piece
// frame it has put on the link until the leecher has verified it; at that
// moment, every time, the seeder's Stats already count as many pieces
// sent as the leecher verified.
func TestSentCountedBeforeTheSendReturns(t *testing.T) {
	const pieces = 8
	release := make(chan struct{})
	seed, leech, done, stop := livePair(t, slowBeacon, 1, pieces, func(c *Config) {
		if c.ID == 1 {
			c.Transport = gatedTransport{Transport: c.Transport, release: release}
		}
	})
	defer stop()
	leech.AddQuery("f0")
	for k := uint64(1); k <= pieces; k++ {
		waitFor(t, waitLimit, func() bool { return leech.Stats().PiecesVerified == k }, fmt.Sprintf("piece %d to be verified", k))
		if sent := seed.Stats().Transport.PiecesSent; sent < k {
			t.Fatalf("the leecher verified %d pieces, the seeder counts %d sent", k, sent)
		}
		release <- struct{}{}
	}
	select {
	case <-done:
	case <-time.After(waitLimit):
		t.Fatal("the download never completed")
	}
}
