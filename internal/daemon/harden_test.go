package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/peer"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// gate wraps a transport so a test can hold the frames its conns send:
// between shut and release every Send parks at the gate (honouring its
// context), and parked says how many are waiting there. It starts
// released; shut and release alternate.
type gate struct {
	transport.Transport
	mu     sync.Mutex
	open   chan struct{} // closed while the gate is released
	parked atomic.Int32
}

func newGate(inner transport.Transport) *gate {
	g := &gate{Transport: inner}
	g.shut()
	g.release()
	return g
}

func (g *gate) shut() {
	g.mu.Lock()
	g.open = make(chan struct{})
	g.mu.Unlock()
}

func (g *gate) release() {
	g.mu.Lock()
	close(g.open)
	g.mu.Unlock()
}

func (g *gate) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := g.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &gateConn{Conn: c, g: g}, nil
}

type gateConn struct {
	transport.Conn
	g *gate
}

func (c *gateConn) Send(ctx context.Context, m wire.Msg) error {
	c.g.mu.Lock()
	open := c.g.open
	c.g.mu.Unlock()
	c.g.parked.Add(1)
	var err error
	select {
	case <-open:
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.g.parked.Add(-1) // before the frame can reach the peer: parked counts waiters only
	if err != nil {
		return err
	}
	return c.Conn.Send(ctx, m)
}

// bench builds a daemon whose handlers and sweeps are driven by hand —
// Run is never called, so it beacons nothing and sweeps nothing on its
// own, and its clock stands still. Its transport is a gate (open) over a
// loopback network; wedge gives it a peer.
func bench(t *testing.T, mutate func(*Config)) *Daemon {
	t.Helper()
	return benchAt(t, testutil.NewClock(), mutate)
}

// benchAt is bench on a clock the test moves: what the daemon decides on
// time, it decides on clk's reading when the test calls in.
func benchAt(t testing.TB, clk *testutil.Clock, mutate func(*Config)) *Daemon {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	cfg := fastCfg(1, newGate(net))
	cfg.ListenAddr = "bench"
	cfg.Queries = []string{"f0"}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := NewDriven(cfg, clk.Now, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// wedgedPeer is a bench daemon's hand-driven neighbour whose link the
// test holds shut: the session's writer is parked at the gate with one
// plug frame in hand, so every frame the daemon sends the peer stays in
// its lanes — queued or dropped, deterministically — until flush.
type wedgedPeer struct {
	t    *testing.T
	d    *Daemon
	id   trace.NodeID
	g    *gate
	conn transport.Conn // the peer's end of the link
}

// wedge attaches peer id to a bench daemon over its loopback and wedges
// the link. One peer per daemon: the lane depths it reports are the
// manager's sums.
func wedge(t *testing.T, d *Daemon, id trace.NodeID) *wedgedPeer {
	t.Helper()
	g := d.cfg.Transport.(*gate)
	addr := fmt.Sprintf("peer%d", id)
	lis, err := g.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	dialed := make(chan error, 1)
	go func() { dialed <- d.mgr.Dial(ctx, addr) }()
	conn, err := lis.Accept(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() }) // the daemon's session ends, and its link goroutine with it
	if err := conn.Send(ctx, &wire.Hello{From: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(ctx); err != nil { // the daemon's handshake hello
		t.Fatal(err)
	}
	if err := <-dialed; err != nil {
		t.Fatalf("the wedged peer's session: %v", err)
	}
	p := &wedgedPeer{t: t, d: d, id: id, g: g, conn: conn}
	p.plug()
	return p
}

// plug shuts the gate and parks the writer on a Busy frame.
func (p *wedgedPeer) plug() {
	p.t.Helper()
	p.g.shut()
	if err := p.d.mgr.Send(p.id, &wire.Busy{From: p.d.cfg.ID, Scope: wire.BusyPiece}); err != nil {
		p.t.Fatal(err)
	}
	waitFor(p.t, waitLimit, func() bool { return p.g.parked.Load() == 1 }, "the writer to park at the gate")
}

// queued reports the peer's lane depths.
func (p *wedgedPeer) queued() (control, data int) {
	q := p.d.mgr.Queues()
	return q.ControlDepth, q.DataDepth
}

// flush lets the link run until the lanes are empty and returns the
// frames the peer received, in order, without the plug; then the link is
// wedged again.
func (p *wedgedPeer) flush() []wire.Msg {
	p.t.Helper()
	control, data := p.queued()
	p.g.release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := make([]wire.Msg, 0, control+data)
	for i := 0; i < 1+control+data; i++ {
		m, err := p.conn.Recv(ctx)
		if err != nil {
			p.t.Fatalf("flush: frame %d of %d: %v", i, 1+control+data, err)
		}
		if i > 0 {
			got = append(got, m)
		}
	}
	p.plug()
	return got
}

// feedMetadata hands the daemon a valid record for file 0 from the
// given peer; with FetchMatching on it selects the download.
func feedMetadata(t *testing.T, d *Daemon, from trace.NodeID) *metadata.Metadata {
	t.Helper()
	rec := d.syntheticFile(0)
	d.onMetadata(from, &wire.Metadata{Popularity: 0.5, Record: *rec})
	if got := d.Stats().MetadataStored; got != 1 {
		t.Fatalf("metadata stored = %d after feeding a valid record", got)
	}
	return rec
}

func pieceMsg(rec *metadata.Metadata, i int) *wire.Piece {
	return &wire.Piece{
		URI:   rec.URI,
		Index: i,
		Total: rec.NumPieces(),
		Data:  metadata.SyntheticPiece(rec.URI, i, rec.PieceLen(i)),
	}
}

// TestServePiecesUnknownURI: a hello advertising a download this node
// knows nothing about must produce no pieces (and no tracking state).
func TestServePiecesUnknownURI(t *testing.T) {
	d := bench(t, nil)
	p := wedge(t, d, 2)
	d.servePieces(d.clock(), 2, metadata.URI("dtn://files/404"), nil, nil, 0)
	if _, n := p.queued(); n != 0 {
		t.Fatalf("served %d pieces for an unknown URI", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ps := d.peers[2]; ps != nil && len(ps.sent) != 0 {
		t.Fatalf("unknown URI left send tracking behind: %+v", ps.sent)
	}
}

// TestHugeRenumberedDealStaysCheap: a hostile requester names 64 Ki
// suppliers for a 4096-piece file and bumps the deal number on every
// hello, so each one re-cuts the share under the daemon's lock. Weighing
// every named supplier for every piece would cost 2^28 hashes a hello,
// seconds for the lot; stopping at the first heavier one (share.mine)
// keeps the batch well inside the bound. A repeat in the list would undo
// that, so a list that is not strictly ascending counts for nothing.
func TestHugeRenumberedDealStaysCheap(t *testing.T) {
	const pieces, hellos = 4096, 20
	clk := testutil.NewClock()
	d, _, uri := seederBench(t, clk, pieces, 4)
	named := make([]trace.NodeID, 64*1024)
	for i := range named {
		named[i] = trace.NodeID(i + 1)
	}
	start := time.Now()
	for no := uint32(1); no <= hellos; no++ {
		h := helloFor(2, uri, pieces, nil)
		h.Deals = []wire.Deal{{URI: uri, No: no, Suppliers: named}}
		d.onHello(2, h)
		clk.Advance(time.Millisecond)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("%d re-cut hellos naming %d suppliers took %v", hellos, len(named), took)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if sf := d.peers[2].sent[uri]; sf == nil || sf.no != hellos || sf.own.Total != pieces {
		t.Fatalf("the last hello's deal was not cut: %+v", sf)
	}
}

// TestEnqueueOverflow fills a peer's control lane while its link drains
// nothing; the overflow message must be dropped and counted, not block.
func TestEnqueueOverflow(t *testing.T) {
	const lane = peer.DefaultQueueLen
	d := bench(t, nil)
	wedge(t, d, 2)
	for i := 0; i < lane; i++ {
		d.mgr.Send(2, &wire.Hello{From: 1})
	}
	if got := d.Stats().OutboxDrops; got != 0 {
		t.Fatalf("OutboxDrops = %d before overflow", got)
	}
	done := make(chan struct{})
	go func() {
		d.mgr.Send(2, &wire.Hello{From: 1})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("send blocked on a full lane")
	}
	if st := d.Stats(); st.OutboxDrops != 1 || st.OutboxDropsControl != 1 {
		t.Fatalf("OutboxDrops = %d (control %d), want 1 control drop", st.OutboxDrops, st.OutboxDropsControl)
	}
}

// TestSweepCleansVanishedState: a vanished peer's record goes once
// nothing in it binds — and not before: a peer we just told Busy, one
// inside a Busy window it advertised, and one with an offence on file
// keep theirs (without the send tracking) until that runs out, each at
// its own instant. A completed file's record stays.
func TestSweepCleansVanishedState(t *testing.T) {
	clk := testutil.NewClock()
	d := benchAt(t, clk, nil)
	uri := metadata.URIFor(0)
	const window = 100 * time.Millisecond // peer 9's advertised Busy window
	bad := d.syntheticFile(0)
	bad.Signature[0] ^= 1

	d.sendBusy(8, wire.BusyPiece) // we told 8 Busy: paces our replies for busyWindow
	d.onBusy(9, &wire.Busy{From: 9, Scope: wire.BusyDHT, RetryAfterMillis: uint32(window / time.Millisecond)})
	d.onMetadata(10, &wire.Metadata{Popularity: 0.5, Record: *bad}) // one bad signature on file
	d.mu.Lock()
	d.peers[7] = &peerState{}
	for _, ps := range d.peers {
		ps.sent = map[metadata.URI]*sentFile{uri: {at: map[int]time.Time{0: clk.Now()}}}
	}
	d.files[uri] = &fileState{completed: true}
	d.mu.Unlock()

	began := clk.Now()
	for _, step := range []struct {
		at   time.Duration // since the records were made
		left []trace.NodeID
	}{
		{0, []trace.NodeID{8, 9, 10}}, // the idle record goes at once
		{d.busyWindow(), []trace.NodeID{8, 9, 10}},
		{d.busyWindow() + 1, []trace.NodeID{9, 10}}, // our Busy to 8 no longer paces anything
		{window, []trace.NodeID{9, 10}},
		{window + 1, []trace.NodeID{10}}, // 9's window ran out
		{4 * d.cfg.LivenessWindow, []trace.NodeID{10}},
		{4*d.cfg.LivenessWindow + 1, nil}, // the lone bad signature decayed
	} {
		clk.Advance(step.at - clk.Now().Sub(began))
		d.sweepOnce(clk.Now())
		d.mu.Lock()
		var left []trace.NodeID
		for id, ps := range d.peers {
			left = append(left, id)
			if ps.sent != nil {
				t.Errorf("+%v: node %d: send tracking for a vanished peer survived the sweep", step.at, id)
			}
		}
		d.mu.Unlock()
		slices.Sort(left)
		if !slices.Equal(left, step.left) {
			t.Errorf("+%v: records left for %v, want %v", step.at, left, step.left)
		}
	}
	if st := d.Stats(); !st.Completed[string(uri)] {
		t.Errorf("completed %v, want the file completed", st.Completed)
	}
}

// TestHelloForgetsFinishedFiles: send tracking lives only while the peer
// advertises the download. A hello that lists the file creates the
// per-piece marks; the first hello that no longer lists it — the file
// completed or was abandoned — drops them, although the peer stays live
// and so the sweep never would.
func TestHelloForgetsFinishedFiles(t *testing.T) {
	d := bench(t, func(c *Config) {
		c.InternetAccess = true
		c.PublishFiles = 1
	})
	wedge(t, d, 2)
	uri := metadata.URIFor(0)

	d.onHello(2, &wire.Hello{From: 2, Downloading: []metadata.URI{uri}})
	d.sweepOnce(d.clock())
	d.mu.Lock()
	marks := len(d.peers[2].sent[uri].at)
	d.mu.Unlock()
	if marks == 0 {
		t.Fatal("serving an advertised download left no send tracking")
	}

	d.onHello(2, &wire.Hello{From: 2})
	d.mu.Lock()
	defer d.mu.Unlock()
	if sent := d.peers[2].sent; len(sent) != 0 {
		t.Fatalf("tracking of a file the peer stopped advertising survived: %v", sent)
	}
	if len(d.mgr.Peers()) != 1 {
		t.Fatal("the peer must still be live")
	}
}

// TestDuplicatePieceDeduped: the same verified piece delivered twice
// (duplication fault or resend race) is stored once and counted as a
// duplicate.
func TestDuplicatePieceDeduped(t *testing.T) {
	d := bench(t, nil)
	rec := feedMetadata(t, d, 5)
	p := pieceMsg(rec, 0)
	d.onPiece(5, p)
	d.onPiece(5, p)
	st := d.Stats()
	if st.PiecesVerified != 1 || st.PiecesDuplicate != 1 {
		t.Fatalf("verified=%d duplicate=%d, want 1/1", st.PiecesVerified, st.PiecesDuplicate)
	}
}

// TestPiggybackedPiece: a piece frame carrying its file's record
// (MBT-QM's only metadata channel) is handled record first. A valid
// record is stored and the piece then verifies against it; a forged one
// is rejected, so the piece has nothing to verify against and is
// dropped; data that fails the record's checksum is rejected. The
// frames cross the wire codec, as they would from a peer.
func TestPiggybackedPiece(t *testing.T) {
	overWire := func(t *testing.T, p *wire.Piece) *wire.Piece {
		t.Helper()
		msg, err := wire.Decode(wire.Encode(p))
		if err != nil {
			t.Fatalf("piece frame does not round-trip: %v", err)
		}
		return msg.(*wire.Piece)
	}
	t.Run("valid record", func(t *testing.T) {
		d := bench(t, nil)
		rec := d.syntheticFile(0)
		p := pieceMsg(rec, 0)
		p.Piggyback = &wire.Metadata{Popularity: 0.5, Record: *rec}
		if !d.onPiece(5, overWire(t, p)) {
			t.Fatal("piece with a valid piggybacked record not held")
		}
		st := d.Stats()
		if st.MetadataStored != 1 || st.PiecesVerified != 1 {
			t.Fatalf("stored=%d verified=%d, want 1/1", st.MetadataStored, st.PiecesVerified)
		}
		if st.BadSignatures != 0 || st.PiecesDroppedNoMetadata != 0 || st.PiecesRejected != 0 {
			t.Fatalf("clean frame counted as bad: %+v", st)
		}
	})
	t.Run("valid record, corrupted data", func(t *testing.T) {
		d := bench(t, nil)
		rec := d.syntheticFile(0)
		p := pieceMsg(rec, 0)
		p.Data[0] ^= 1
		p.Piggyback = &wire.Metadata{Popularity: 0.5, Record: *rec}
		if d.onPiece(5, overWire(t, p)) {
			t.Fatal("corrupted piece held")
		}
		st := d.Stats()
		if st.MetadataStored != 1 || st.PiecesRejected != 1 || st.PiecesVerified != 0 {
			t.Fatalf("stored=%d rejected=%d verified=%d, want 1/1/0",
				st.MetadataStored, st.PiecesRejected, st.PiecesVerified)
		}
	})
	t.Run("forged record", func(t *testing.T) {
		d := bench(t, nil)
		rec := d.syntheticFile(0)
		forged := *rec
		forged.Name = "not what the publisher signed"
		p := pieceMsg(rec, 0)
		p.Piggyback = &wire.Metadata{Popularity: 0.5, Record: forged}
		if d.onPiece(5, overWire(t, p)) {
			t.Fatal("piece held on the strength of a forged record")
		}
		st := d.Stats()
		if st.BadSignatures != 1 || st.PiecesDroppedNoMetadata != 1 {
			t.Fatalf("badSigs=%d noMeta=%d, want 1/1", st.BadSignatures, st.PiecesDroppedNoMetadata)
		}
		if st.MetadataStored != 0 || st.PiecesVerified != 0 {
			t.Fatalf("stored=%d verified=%d, want 0/0", st.MetadataStored, st.PiecesVerified)
		}
	})
}

// TestQuarantineEscalationAndDecay: the fifth bad signature quarantines
// the sender for one liveness window (messages dropped), the next five
// for exactly twice that, and the record decays back to clean one step
// per sweep once the peer has behaved for more than four windows.
func TestQuarantineEscalationAndDecay(t *testing.T) {
	clk := testutil.NewClock()
	d := benchAt(t, clk, nil)
	base := d.cfg.LivenessWindow
	bad := d.syntheticFile(0)
	bad.Signature[0] ^= 1
	from := trace.NodeID(9)
	offend := func(n int) {
		for i := 0; i < n; i++ {
			d.onMetadata(from, &wire.Metadata{Popularity: 0.5, Record: *bad})
		}
	}
	sentence := func() (strikes int, left time.Duration) {
		d.mu.Lock()
		defer d.mu.Unlock()
		off := d.peers[from].offence
		return off.strikes, off.until.Sub(clk.Now())
	}

	offend(badSigsPerStrike - 1)
	if d.quarantined(from) {
		t.Fatalf("quarantined after %d bad signatures", badSigsPerStrike-1)
	}
	offend(1)
	if !d.quarantined(from) {
		t.Fatal("not quarantined at the threshold")
	}
	// A quarantined peer's traffic is ignored wholesale.
	d.onMetadata(from, &wire.Metadata{Popularity: 0.5, Record: *d.syntheticFile(0)})
	st := d.Stats()
	if st.BadSignatures != badSigsPerStrike || st.MetadataStored != 0 {
		t.Fatalf("badSigs=%d stored=%d, want %d/0", st.BadSignatures, st.MetadataStored, badSigsPerStrike)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0] != from {
		t.Fatalf("Quarantined = %v, want [%d]", st.Quarantined, from)
	}
	if st.QuarantineDrops != 2 {
		t.Fatalf("QuarantineDrops = %d, want the check and the good record", st.QuarantineDrops)
	}
	if strikes, left := sentence(); strikes != 1 || left != base {
		t.Fatalf("first offence: %d strikes, %v to serve; want 1 and %v", strikes, left, base)
	}

	// Penalty served to the instant; the second offence doubles it.
	clk.Advance(base)
	if d.quarantined(from) {
		t.Fatal("still quarantined when the sentence ran out")
	}
	offend(badSigsPerStrike)
	if strikes, left := sentence(); strikes != 2 || left != 2*base {
		t.Fatalf("second offence: %d strikes, %v to serve; want 2 and %v", strikes, left, 2*base)
	}

	// Decay: four clean windows are not enough, an instant more walks one
	// strike back per sweep, and the clean record is forgotten.
	clk.Advance(4 * base)
	d.sweepOnce(clk.Now())
	if strikes, _ := sentence(); strikes != 2 {
		t.Fatalf("strikes = %d after exactly four clean windows, want still 2", strikes)
	}
	clk.Advance(1)
	d.sweepOnce(clk.Now())
	if strikes, _ := sentence(); strikes != 1 {
		t.Fatalf("strikes = %d after the first decay, want 1", strikes)
	}
	clk.Advance(4*base + 1)
	d.sweepOnce(clk.Now())
	d.mu.Lock()
	left := len(d.peers)
	d.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d peer records survived the offence's decay", left)
	}
	if d.quarantined(from) {
		t.Fatal("still quarantined after decay")
	}
}

// TestHealthzDegraded: a daemon alone past its liveness window — not up
// to it — answers /healthz with 503 and a reason; with a peer whose send
// lane is full it answers 503 for that reason instead.
func TestHealthzDegraded(t *testing.T) {
	const lane = peer.DefaultQueueLen
	clk := testutil.NewClock()
	d := benchAt(t, clk, nil)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	get := func() (int, Health) {
		t.Helper()
		r, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var h Health
		if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, h
	}

	clk.Advance(d.cfg.LivenessWindow)
	if code, h := get(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %q %v alone for exactly the liveness window, want 200 ok", code, h.Status, h.Reasons)
	}
	clk.Advance(1) // outlive the liveness window, peerless
	code, h := get()
	if code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("healthz = %d %q, want 503 degraded", code, h.Status)
	}
	if len(h.Reasons) != 1 {
		t.Fatalf("reasons = %v, want exactly the no-live-peers reason", h.Reasons)
	}

	wedge(t, d, 2)
	for i := 0; i < lane; i++ {
		d.mgr.Send(2, &wire.Hello{From: 1})
	}
	code, h = get()
	if code != http.StatusServiceUnavailable || len(h.Reasons) != 1 || !strings.Contains(h.Reasons[0], "saturated") {
		t.Fatalf("healthz = %d reasons=%v, want 503 with exactly the saturation reason", code, h.Reasons)
	}
	if h.OutboxCap != 2*lane || h.OutboxLen != lane {
		t.Fatalf("outbox %d of %d, want %d of one session's %d", h.OutboxLen, h.OutboxCap, lane, 2*lane)
	}
}
