package daemon

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/rng"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The standing order (serve.go): a deal stands for a beat, the hello is
// also the ack, relays forward what they acquire. The pure half is tested
// on sentFile alone, the rules on a hand-driven daemon and clock, the
// pace on live loopback daemons whose periodic beacon is an hour away.

// dealt returns the share a deal hands supplier rank, in walk order.
func dealt(total, origin, rank, k int, held func(int) bool) []int {
	sf := newSentFile()
	sf.deal(time.Unix(1, 0), total, origin, rank, k, always, held)
	return sf.advance(total, total, func(int) bool { return true })
}

// TestDealIsPickPiecesShare ties the two definitions of a share
// together: what deal marks as supplier rank's own is exactly what
// pickPieces hands it when it holds everything and nothing limits it,
// and advance yields it in the same order however the budget chops it.
func TestDealIsPickPiecesShare(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 1000; trial++ {
		total := 1 + r.Intn(200)
		k := 1 + r.Intn(8)
		rank := r.Intn(k)
		origin := r.Intn(total)
		have := randomBitmap(r, total, r.Float64())
		held := func(i int) bool { return have[i] }

		want, _ := pickPieces(total, origin, rank, k, total, false, always, held, never)
		if countMissing(total, held) <= rank {
			want = nil // no share: pickPieces filled instead
		}
		if got := dealt(total, origin, rank, k, held); !slices.Equal(got, want) {
			t.Fatalf("trial %d (total %d k %d rank %d): deal's share %v, pickPieces' %v", trial, total, k, rank, got, want)
		}
		sf := newSentFile()
		if skipped, want := sf.deal(time.Unix(1, 0), total, origin, rank, k, always, held), total-countMissing(total, held); skipped != want {
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

// TestShareKeepsOwnersWhenTheFrontLands is why shares are numbered from
// the far end of the walk: pieces land from the front, and a deal that
// finds any of the front filled in leaves every piece behind it with the
// supplier that had it — so what that supplier has in flight at a deal is
// not handed to a second one.
func TestShareKeepsOwnersWhenTheFrontLands(t *testing.T) {
	r := rng.New(31)
	owners := func(total, origin, k int, have []bool) []int {
		owner := make([]int, total)
		for rank := 0; rank < k; rank++ {
			for _, i := range dealt(total, origin, rank, k, func(i int) bool { return have[i] }) {
				owner[i] = rank + 1
			}
		}
		return owner
	}
	for trial := 0; trial < 1000; trial++ {
		total := 2 + r.Intn(150)
		k := 1 + r.Intn(6)
		origin := r.Intn(total)
		have := randomBitmap(r, total, 0.5*r.Float64())
		before := owners(total, origin, k, have)
		front := r.Intn(total) // walk positions before this one may land
		for p := 0; p < front; p++ {
			if i := (origin + p) % total; r.Bool(0.5) {
				have[i] = true
			}
		}
		after := owners(total, origin, k, have)
		for p := front; p < total; p++ {
			if i := (origin + p) % total; !have[i] && after[i] != before[i] {
				t.Fatalf("trial %d (total %d k %d): piece %d behind the landed front moved from supplier %d to %d",
					trial, total, k, i, before[i]-1, after[i]-1)
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
	sf := newSentFile()
	sf.deal(t0, total, 0, 0, 2, always, never) // the odd walk positions from the back: 1, 3, … 15
	if sf.inShare(0) || !sf.inShare(15) {
		t.Fatalf("share of rank 0 of 2 over 16 missing pieces: piece 0 in %v, piece 15 in %v", sf.inShare(0), sf.inShare(15))
	}
	sf.push(1, t0)
	sf.push(3, t0.Add(beat/2))
	sf.have = wire.NewGroupWant("u", total, true)
	sf.have.SetHave(1)
	sf.settle(t0.Add(beat/2), beat)
	if len(sf.window) != 1 || sf.window[0].index != 3 {
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
	sf.settle(t0.Add(beat+beat/2), beat)
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
	share := dealt(pieces, serveOrigin(2, uri, pieces), 0, 2, never)
	if len(share) != pieces/2 {
		t.Fatalf("rank 0 of 2 was dealt %d of %d pieces", len(share), pieces)
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
	again := dealt(pieces, serveOrigin(2, uri, pieces), 0, 2, func(i int) bool { return hello.Have[0].HaveBit(i) })
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
	share2 := dealt(pieces, serveOrigin(2, uri, pieces), 0, 2, func(i int) bool { return i == 0 })
	slices.Sort(share2)

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
// piece the group plane delivered, a piece from a peer inside a Busy
// window it advertised, and anything while the radio is off are not.
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
	d.Pause()
	d.onPiece(2, pieceMsg(rec, 4))
	d.Resume()
	if n := acks(); n != 0 {
		t.Fatalf("%d hellos from a paused radio", n)
	}
	if st := d.Stats(); st.Transport.HellosAcked != 2 || st.PiecesVerified != 5 {
		t.Fatalf("hellos_acked %d verified %d, want 2 and 5", st.Transport.HellosAcked, st.PiecesVerified)
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
	waitFor(t, func() bool { return settled(d) && d.Stats().Transport.HellosAcked == 2 }, "both commits to be acknowledged")
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
	waitFor(t, func() bool { return seed.Stats().Transport.PiecesSent >= pieces }, "the last piece frame to be counted")
	if got := seed.Stats().Transport.PiecesSent; got != pieces {
		t.Fatalf("the seeder put %d piece frames on the link for %d pieces", got, pieces)
	}
	if ls.Transport.HellosAcked != pieces {
		t.Fatalf("the leecher acknowledged %d times for %d pieces", ls.Transport.HellosAcked, pieces)
	}
	waitFor(t, func() bool { return leech.Manager().Stats().HellosKicked >= 2 }, "both kicked rounds to be counted")
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
	launch := func(c Config) *Daemon {
		d, err := New(c)
		if err != nil {
			tb.Fatal(err)
		}
		ran = append(ran, start(ctx, d))
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
	waitFor(tb, func() bool { return len(relay.Manager().Peers()) == 1 }, "the relay's session")
	join = func() (*Daemon, chan time.Time) {
		lc, leechDone := cfg(3, net)
		lc.PeerAddrs = []string{"relay"}
		leech := launch(lc)
		waitFor(tb, func() bool { return len(leech.Manager().Peers()) == 1 }, "the leecher's session")
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
	waitFor(t, func() bool { return relay.Stats().PiecesVerified > 0 }, "the relay's first piece")
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
	waitFor(t, func() bool { return relay.Stats().Transport.PiecesSent >= pieces }, "the last piece frame to be counted")
	if got := relay.Stats().Transport.PiecesSent; got != pieces {
		t.Fatalf("the relay put %d piece frames on the link for %d pieces", got, pieces)
	}
}

// TestStreamingHoldersStayNearlyDisjoint: three complete holders stream
// a file to one downloader over links slow enough that the download
// spans many beats, so deals happen with every pipe full. What a holder
// has in flight at a deal is not in the bitmap the others deal from; the
// far-end numbering keeps it with its holder, and the duplicates stay a
// few per cent (numbered from the front they were a fifth of the file).
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
	waitFor(t, func() bool { return holders[1].Completed(uri) && holders[2].Completed(uri) }, "holders complete")

	c := cfg(9, 4)
	c.PeerAddrs = []string{"h1", "h2", "h3"}
	leech, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	start(ctx, leech)
	waitFor(t, func() bool { return len(leech.Manager().Peers()) == 3 }, "three sessions")
	began := time.Now()
	leech.AddQuery("f0")
	waitFor(t, func() bool { return leech.Completed(uri) }, "download from three holders")
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
		hello.Have[0].SetHave(window[0].index)
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
		waitFor(b, func() bool { return relay.Stats().MetadataStored == 1 }, "the relay's record")
		leech.AddQuery("f0")
		total += (<-leechDone).Sub(<-relayDone)
		b.StopTimer()
		stop()
	}
	b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "hop-ms/op")
}
