package bcast

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/rng"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The pacing tests run engines over the real loopback domains — the
// control medium and the lossy symbol lane the daemon uses, receive
// queues and loss shaping included — on one goroutine and a hand-driven
// clock. The test delivers every frame itself, so "the ack that frees
// the slot", "half a beat later" and "a member that drains last" are
// choices, not races.

const (
	paceBeat   = 10 * time.Millisecond
	paceK      = 64  // source symbols per piece
	paceSymbol = 256 // bytes; a piece is 16 KiB, the group benchmark's
)

type laneNode struct {
	e           *Engine
	st          *fakeStore
	radio, lane transport.BroadcastConn
}

type laneHarness struct {
	t           testing.TB
	clk         *testutil.Clock
	radio, lane *transport.BroadcastDomain
	ids         []trace.NodeID
	nodes       map[trace.NodeID]*laneNode

	// slow, when set, has its symbol lane served only while every other
	// member's is empty: the member whose acks arrive last.
	slow trace.NodeID
	// dropSymbol, when set, is asked once per symbol transmission; true
	// loses it for every receiver.
	dropSymbol func(*wire.Symbol) bool
	// afterFrame runs after every delivered frame.
	afterFrame func()
	// symbolCost, when set, is how far each delivered symbol moves the
	// clock, every engine ticking as its beat comes due (see run): a
	// beat is then worth a handful of pieces, as on a real node, instead
	// of the clock standing still however much moves.
	symbolCost time.Duration
	nextTick   time.Time
	// deepest is the fullest any symbol-lane receive queue got.
	deepest int
	// grants counts the grants heard per piece: one, plus its top-ups.
	grants map[int]int
}

type laneSender struct {
	h           *laneHarness
	radio, lane transport.BroadcastConn
}

func (s *laneSender) Broadcast(ctx context.Context, _ []trace.NodeID, m wire.Msg) {
	if err := s.radio.Send(ctx, m); err != nil {
		s.h.t.Errorf("radio send: %v", err)
	}
}

func (s *laneSender) BroadcastSymbol(ctx context.Context, m wire.Msg) {
	if drop := s.h.dropSymbol; drop != nil && drop(m.(*wire.Symbol)) {
		return
	}
	if err := s.lane.Send(ctx, m); err != nil {
		s.h.t.Errorf("lane send: %v", err)
	}
	for _, id := range s.h.ids {
		if q := s.h.lane.Queued(fmt.Sprint(id)); q > s.h.deepest {
			s.h.deepest = q
		}
	}
}

// newLaneHarness joins n engines (IDs 1..n, so 1 sequences) to one
// loopback network's domains, the symbol lane losing the given share of
// deliveries independently per receiver, and makes them one clique.
// relay is each engine's RelayBudget (0: the default).
func newLaneHarness(t testing.TB, n int, loss float64, relay int) *laneHarness {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	h := &laneHarness{
		t: t, clk: testutil.NewClock(),
		radio: net.Domain("radio"), lane: net.SymbolDomain("radio"),
		nodes:  make(map[trace.NodeID]*laneNode),
		grants: make(map[int]int),
	}
	h.lane.SetLoss(loss, 42)
	for i := 1; i <= n; i++ {
		id := trace.NodeID(i)
		radio, err := h.radio.Join(fmt.Sprint(id))
		if err != nil {
			t.Fatal(err)
		}
		lane, err := h.lane.Join(fmt.Sprint(id))
		if err != nil {
			t.Fatal(err)
		}
		st := &fakeStore{self: id, files: make(map[metadata.URI]*fakeFile)}
		h.ids = append(h.ids, id)
		h.nodes[id] = &laneNode{
			st: st, radio: radio, lane: lane,
			e: New(Config{
				Self: id, Window: time.Minute, Store: st,
				Send: &laneSender{h: h, radio: radio, lane: lane},
				FEC:  true, SymbolSize: paceSymbol, RelayBudget: relay, Now: h.clk.Now,
			}),
		}
	}
	for _, id := range h.ids {
		var others []trace.NodeID
		for _, o := range h.ids {
			if o != id {
				others = append(others, o)
			}
		}
		h.nodes[id].st.setLive(others)
		for _, o := range h.ids {
			h.nodes[o].e.Observe(context.Background(), id, others)
		}
	}
	return h
}

// block is piece i of uri: 16 KiB only its index can produce. Callers
// must not write to it.
func block(uri metadata.URI, i int) []byte {
	key := pieceKey{uri, i}
	if b := blocks[key]; b != nil {
		return b
	}
	r := rng.New(blockSeed(uri, i))
	b := make([]byte, paceK*paceSymbol)
	for j := 0; j < len(b); j += 8 {
		binary.LittleEndian.PutUint64(b[j:], r.Uint64())
	}
	blocks[key] = b
	return b
}

var blocks = make(map[pieceKey][]byte)

// share publishes a total-piece file at node 1 and has everyone else
// download it.
func (h *laneHarness) share(uri metadata.URI, total int) {
	for _, id := range h.ids {
		n := h.nodes[id]
		n.st.addFile(uri, total, id != 1, 1.0)
		n.st.files[uri].pieceLen = paceK * paceSymbol
		if id == 1 {
			for i := 0; i < total; i++ {
				n.st.files[uri].have[i] = block(uri, i)
			}
		}
	}
}

func (h *laneHarness) seq() *Engine { return h.nodes[1].e }

// deliver hands the next queued frame of one of id's lanes to its engine.
func (h *laneHarness) deliver(id trace.NodeID, conn transport.BroadcastConn) {
	h.t.Helper()
	msg, err := conn.Recv(context.Background())
	if err != nil {
		h.t.Fatalf("node %d recv: %v", id, err)
	}
	var from trace.NodeID
	switch v := msg.(type) {
	case *wire.GroupHello:
		from = v.From
	case *wire.Grant:
		from = v.From
		if id == h.ids[1] {
			h.grants[int(v.Piece)]++
		}
	case *wire.Symbol:
		from = v.From
	case *wire.SymbolAck:
		from = v.From
	default:
		h.t.Fatalf("node %d heard a %v", id, msg.Type())
	}
	h.nodes[id].e.HandleGroup(context.Background(), from, msg)
	if h.afterFrame != nil {
		h.afterFrame()
	}
}

// control drains every member's control lane, acks and grants included,
// until the medium is silent; no symbol moves.
func (h *laneHarness) control() {
	for moved := true; moved; {
		moved = false
		for _, id := range h.ids {
			for h.radio.Queued(fmt.Sprint(id)) > 0 {
				h.deliver(id, h.nodes[id].radio)
				moved = true
			}
		}
	}
}

// symbol delivers one queued symbol to id and whatever control traffic
// that sets off; false when id's lane is empty.
func (h *laneHarness) symbol(id trace.NodeID) bool {
	if h.lane.Queued(fmt.Sprint(id)) == 0 {
		return false
	}
	h.deliver(id, h.nodes[id].lane)
	h.control()
	if h.symbolCost > 0 {
		h.clk.Advance(h.symbolCost)
		if !h.clk.Now().Before(h.nextTick) {
			h.nextTick = h.nextTick.Add(paceBeat)
			h.tickAfter(0)
		}
	}
	return true
}

// pump runs the medium dry: control frames at once, symbols one per
// member per pass — acks reach the sequencer as early as they can, with
// the rest of each burst still queued behind them.
func (h *laneHarness) pump() {
	h.control()
	for {
		moved := false
		for _, id := range h.ids {
			if id != h.slow && h.symbol(id) {
				moved = true
			}
		}
		if !moved && (h.slow == 0 || !h.symbol(h.slow)) {
			return
		}
	}
}

// tickAfter moves the clock on by d, ticks every engine and delivers the
// control traffic that sets off; symbols stay queued.
func (h *laneHarness) tickAfter(d time.Duration) {
	h.clk.Advance(d)
	for _, id := range h.ids {
		h.nodes[id].e.Tick(context.Background())
	}
	h.control()
}

func (h *laneHarness) tick() { h.tickAfter(paceBeat) }

// beat is a tick and then the medium run dry.
func (h *laneHarness) beat() {
	h.tick()
	h.pump()
}

// confirm ticks until the group is live everywhere; the second tick is
// the sequencer's first scheduling beat.
func (h *laneHarness) confirm() {
	h.t.Helper()
	h.tick()
	h.tick()
	for _, id := range h.ids {
		if g, ok := h.nodes[id].e.Group(); !ok || len(g) != len(h.ids) {
			h.t.Fatalf("node %d: group %v confirmed=%v", id, g, ok)
		}
	}
}

// complete reports whether every downloader holds the whole file, intact.
func (h *laneHarness) complete(uri metadata.URI, total int) bool {
	h.t.Helper()
	for _, id := range h.ids[1:] {
		st := h.nodes[id].st
		if !st.complete(uri) {
			return false
		}
		for i := 0; i < total; i++ {
			if !bytes.Equal(st.files[uri].have[i], block(uri, i)) {
				h.t.Fatalf("node %d holds a wrong piece %d", id, i)
			}
		}
	}
	return true
}

// unresolved counts the sequencer's granted pieces some member lacks.
func (h *laneHarness) unresolved() int {
	e := h.seq()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.granted.Out(func(k pieceKey) bool { return e.lackedLocked(k, h.clk.Now()) })
}

// TestLastAckGrantsNextPieceWithoutTick: the sequencer fills its flight
// window on the beat, and from then on it is the last lacking member's
// ack — not the ticker — that grants the next piece.
func TestLastAckGrantsNextPieceWithoutTick(t *testing.T) {
	h := newLaneHarness(t, 3, 0, 0)
	uri := metadata.URIFor(7)
	const total = 6
	h.share(uri, total)
	h.confirm()

	// The confirming beat already opened the window: two grants, two
	// bursts on the lane, nothing delivered past them.
	st := h.seq().Stats()
	if st.GrantsSent != flightWindow || h.unresolved() != flightWindow {
		t.Fatalf("after the beat: %d grants, %d unresolved; want the flight window, %d", st.GrantsSent, h.unresolved(), flightWindow)
	}
	// Member 2 decodes piece 0 and acks; member 3 has not: no new grant.
	for h.nodes[2].e.Stats().FECDecodes == 0 {
		if !h.symbol(2) {
			t.Fatal("member 2 never decoded piece 0")
		}
	}
	if got := h.seq().Stats(); got.GrantsSent != flightWindow || got.SymbolAcksRecv == 0 {
		t.Fatalf("one of two acks in: %d grants, %d acks heard; want %d grants still", got.GrantsSent, got.SymbolAcksRecv, flightWindow)
	}
	// Member 3's ack is the last: the third grant goes out on it.
	for h.nodes[3].e.Stats().FECDecodes == 0 {
		if !h.symbol(3) {
			t.Fatal("member 3 never decoded piece 0")
		}
	}
	if got := h.seq().Stats(); got.GrantsSent != flightWindow+1 || got.RoundsKicked == 0 {
		t.Fatalf("last ack in: %d grants (%d kicked), want %d", got.GrantsSent, got.RoundsKicked, flightWindow+1)
	}

	// And so on to the end of the file, with the clock standing still.
	h.pump()
	if !h.complete(uri, total) {
		t.Fatal("the file did not finish within the beat that started it")
	}
	got := h.seq().Stats()
	if got.GrantsSent != total || got.TopUps != 0 || got.Round-got.RoundsKicked > flightWindow {
		t.Fatalf("%d grants, %d top-ups, %d of %d rounds kicked; want %d grants, none repeated, all but the beat's own kicked",
			got.GrantsSent, got.TopUps, got.RoundsKicked, got.Round, total)
	}
}

// TestRegrantWaitsOneFullBeat: a piece some member still lacks goes back
// to the schedule only once a whole tick interval has passed since its
// grant — not on the first Tick after it — and the last unacked piece of
// a transfer, with nothing else left to drive the rounds, is retried by
// the beat alone.
func TestRegrantWaitsOneFullBeat(t *testing.T) {
	h := newLaneHarness(t, 3, 0, 0)
	uri := metadata.URIFor(7)
	const total, last = 4, 3
	h.share(uri, total)
	// The last piece's opening burst arrives too thin to decode.
	h.dropSymbol = func(s *wire.Symbol) bool { return s.Piece == last && s.Index < paceK }
	h.confirm()

	// Half a beat in, the acks of pieces 0..2 grant the rest: piece 3 is
	// granted between Ticks, and nobody hears a symbol of it.
	h.clk.Advance(paceBeat / 2)
	h.pump()
	st := h.seq().Stats()
	if st.GrantsSent != total || h.unresolved() != 1 {
		t.Fatalf("%d grants, %d unresolved; want all %d granted and piece %d outstanding", st.GrantsSent, h.unresolved(), total, last)
	}

	// The next Tick is half a beat after the grant: too early.
	h.tickAfter(paceBeat / 2)
	h.pump()
	if got := h.seq().Stats(); got.GrantsSent != total || got.TopUps != 0 {
		t.Fatalf("half a beat after the grant: %d grants, %d top-ups; the piece was regranted early", got.GrantsSent, got.TopUps)
	}
	// The one after has a whole interval behind the grant: a top-up of
	// fresh symbols, and the transfer ends.
	h.beat()
	got := h.seq().Stats()
	if got.GrantsSent != total+1 || got.TopUps != 1 {
		t.Fatalf("a beat and a half after the grant: %d grants, %d top-ups; want %d and 1", got.GrantsSent, got.TopUps, total+1)
	}
	for beats := 0; !h.complete(uri, total); beats++ {
		if beats > 20 {
			t.Fatalf("the beat alone did not finish the last piece: %+v", h.seq().Stats())
		}
		h.beat()
	}
}

// TestShortBurstTopsUpOnTheNextBlock: a member's lane delivers the
// sequencer's symbols in the order they were sent, so the first symbol
// of piece 1 shows a member still missing piece 0 that piece 0's burst
// has ended short. The member says so then — not once piece 1 decodes —
// and the sequencer tops piece 0 up at once from the stream it holds,
// with the clock standing still, before any beat after the grant; the
// file finishes without one.
func TestShortBurstTopsUpOnTheNextBlock(t *testing.T) {
	h := newLaneHarness(t, 3, 0, 0)
	uri := metadata.URIFor(7)
	const total = 4
	h.share(uri, total)
	// Piece 0's opening burst arrives eight symbols short of K.
	h.dropSymbol = func(s *wire.Symbol) bool { return s.Piece == 0 && s.Round == 1 && s.Index < paceK/2+8 }
	h.confirm()
	if st := h.seq().Stats(); st.GrantsSent != flightWindow || st.TopUps != 0 {
		t.Fatalf("the beat sent %d grants and %d top-ups, want the flight window's %d openings", st.GrantsSent, st.TopUps, flightWindow)
	}

	decodedFirst := -1 // pieces decoded when the top-up went out
	h.afterFrame = func() {
		if decodedFirst < 0 && h.seq().Stats().TopUps > 0 {
			decodedFirst = 0
			for _, id := range h.ids[1:] {
				decodedFirst += int(h.nodes[id].e.Stats().FECDecodes)
			}
		}
	}
	h.pump()
	st := h.seq().Stats()
	if st.TopUps != 1 || h.grants[0] != 2 {
		t.Fatalf("no beat since the grant: %d top-ups, piece 0 granted %d times; want its one top-up", st.TopUps, h.grants[0])
	}
	if decodedFirst != 0 {
		t.Fatalf("piece 0's top-up went out after %d decodes; want it on piece 1's first symbol, before any", decodedFirst)
	}
	if reads := h.nodes[1].st.reads; reads != total {
		t.Fatalf("%d piece reads for %d openings: the top-up read the piece again, not its stream", reads, total)
	}
	if !h.complete(uri, total) {
		t.Fatalf("the file did not finish within the beat that started it: %+v", st)
	}
	if st.Round-st.RoundsKicked > flightWindow {
		t.Fatalf("%d of %d rounds kicked; want all but the beat's own", st.RoundsKicked, st.Round)
	}
}

// TestEnoughIsJudgedOnTheAck: an opening every member acks is judged
// enough on the last ack, as a short one is judged when the next block
// shows it — not when its grant lapses, by when overhead has usually
// stepped and an opening cut to an older one is not judged at all. Its
// lapse is then no evidence again: the beat steps overhead down once.
func TestEnoughIsJudgedOnTheAck(t *testing.T) {
	h := newLaneHarness(t, 3, 0, 0)
	h.share(metadata.URIFor(7), 1)
	h.confirm() // the scheduling beat grants the piece
	h.pump()
	e := h.seq()
	e.mu.Lock()
	judged, short, was := e.judged, e.short, e.overhead
	e.mu.Unlock()
	if judged != 1 || short != 0 {
		t.Fatalf("every member acked the opening: %d judged, %d short before the beat; want 1 judged enough", judged, short)
	}
	h.tick() // the grant lapses, and the tally folds
	h.tick()
	e.mu.Lock()
	defer e.mu.Unlock()
	if want := was - overheadDown; e.overhead != want {
		t.Fatalf("overhead %.4f after the beats, want %.4f: one step down for one opening", e.overhead, want)
	}
}

// TestReorderedLaneCostsAtMostOneTopUp: where the lane does reorder — the
// first symbol of piece 1 overtakes the second half of piece 0's burst —
// the members report piece 0 short while its symbols are still on the
// way. That costs one top-up the members did not need, never the piece:
// they decode it from the tail, and the file finishes.
func TestReorderedLaneCostsAtMostOneTopUp(t *testing.T) {
	h := newLaneHarness(t, 3, 0, 0)
	uri := metadata.URIFor(7)
	const total = 4
	h.share(uri, total)
	lane := h.nodes[1].lane
	var tail []*wire.Symbol
	overtaken := false
	h.dropSymbol = func(s *wire.Symbol) bool {
		switch {
		case overtaken:
			return false
		case s.Piece == 0 && s.Index >= paceK/2:
			tail = append(tail, s) // held back
			return true
		case s.Piece == 1:
			overtaken = true
			for _, m := range append([]*wire.Symbol{s}, tail...) {
				if err := lane.Send(context.Background(), m); err != nil {
					t.Fatal(err)
				}
			}
			return true
		}
		return false
	}
	h.confirm()
	if !overtaken || len(tail) == 0 {
		t.Fatal("the beat's bursts were not reordered")
	}

	h.pump()
	st := h.seq().Stats()
	if !h.complete(uri, total) {
		t.Fatalf("the file did not finish: %+v", st)
	}
	if st.TopUps > 1 {
		t.Fatalf("%d top-ups on a lane that lost nothing, want at most the one the reordering cost", st.TopUps)
	}
	for _, id := range h.ids[1:] {
		if got := h.nodes[id].e.Stats().FECDecodes; got != total {
			t.Fatalf("member %d decoded %d pieces, want %d", id, got, total)
		}
	}
}

// transferPieces is the file transfer moves: 128 pieces of K = 64.
const transferPieces = 128

// transfer moves the file from node 1 to everyone else, checking the
// flight window after every frame, and returns the sequencer's counters
// at the end.
func transfer(t testing.TB, h *laneHarness) Stats {
	t.Helper()
	h.share(metadata.URIFor(7), transferPieces)
	h.afterFrame = func() {
		if n := h.unresolved(); n > flightWindow {
			t.Fatalf("%d pieces granted and unresolved, flight window is %d", n, flightWindow)
		}
	}
	return h.run(metadata.URIFor(7), transferPieces)
}

// run confirms the group and delivers frames until every downloader
// holds uri, every delivered symbol costing 5 µs of the clock — about six
// K = 64 pieces to a beat.
func (h *laneHarness) run(uri metadata.URI, total int) Stats {
	t := h.t
	t.Helper()
	h.confirm()
	h.symbolCost, h.nextTick = 5*time.Microsecond, h.clk.Now().Add(paceBeat)
	for idle := 0; !h.complete(uri, total); idle++ {
		if idle > 4*total {
			t.Fatalf("transfer stuck: %+v", h.seq().Stats())
		}
		h.pump()
		// Nothing left to deliver: wait out the beat.
		h.tickAfter(h.nextTick.Sub(h.clk.Now()))
		h.nextTick = h.nextTick.Add(paceBeat)
	}
	return h.seq().Stats()
}

// toppedUp is the share of the file's second half — sent once the burst
// size had time to settle — that needed more than its opening burst.
func (h *laneHarness) toppedUp() float64 {
	n := 0
	for p := transferPieces / 2; p < transferPieces; p++ {
		if h.grants[p] > 1 {
			n++
		}
	}
	return float64(n) / (transferPieces / 2)
}

// TestAckClockIsFlowControl is the flow-control proof, on the group
// benchmark's terms: five nodes, 128 pieces, 30 % of transmissions lost
// on their way out, one relay per beat — and one member draining its
// lane only when the others have nothing left. The sequencer, admitted
// only by the slowest ack, never has more than the flight window
// unresolved and never overruns a receive queue.
func TestAckClockIsFlowControl(t *testing.T) {
	if testing.Short() {
		t.Skip("a full lossy 128-piece transfer")
	}
	h := newLaneHarness(t, 5, 0, 1)
	h.slow = 5
	loss, lost := rng.New(42), 0
	h.dropSymbol = func(*wire.Symbol) bool {
		if loss.Bool(0.30) {
			lost++
			return true
		}
		return false
	}
	end := transfer(t, h)
	if missed := h.lane.Missed(); missed != 0 {
		t.Fatalf("%d symbols overran a receive queue; deepest queue %d", missed, h.deepest)
	}
	if lost == 0 {
		t.Fatal("the lane lost nothing: loss shaping is off")
	}
	t.Logf("deepest receive queue %d of 256; %d grants (%d kicked), %d top-ups, %d symbols sent",
		h.deepest, end.GrantsSent, end.RoundsKicked, end.TopUps, end.SymbolsSent)
}

// TestBurstSizingSettles: the opening burst follows what the group
// needs. At 30 % loss it grows until few pieces need a top-up; on a
// clean lane it shrinks to K, where the systematic prefix decodes.
func TestBurstSizingSettles(t *testing.T) {
	if testing.Short() {
		t.Skip("two full 128-piece transfers")
	}
	t.Run("loss-0.30", func(t *testing.T) {
		h := newLaneHarness(t, 5, 0.30, 0)
		end := transfer(t, h)
		burst := h.seq().burstLocked(paceK, true)
		t.Logf("%.3f of the second half's pieces topped up, %d top-ups in all; opening burst %d symbols", h.toppedUp(), end.TopUps, burst)
		if h.toppedUp() >= 0.25 {
			t.Fatalf("%.3f of the pieces needed a top-up once settled, want under 0.25", h.toppedUp())
		}
		if burst < 3*paceK/2 || burst > 5*paceK/2 {
			t.Fatalf("opening burst %d symbols at 30 %% loss to each of four receivers, want about 2 K", burst)
		}
	})
	t.Run("loss-0", func(t *testing.T) {
		h := newLaneHarness(t, 5, 0, 0)
		end := transfer(t, h)
		burst := h.seq().burstLocked(paceK, true)
		t.Logf("opening burst %d symbols for K = %d; %d top-ups", burst, paceK, end.TopUps)
		if burst < paceK || burst > paceK+4 || end.TopUps != 0 {
			t.Fatalf("opening burst %d with %d top-ups on a clean lane, want within a few symbols of K = %d and none", burst, end.TopUps, paceK)
		}
	})
}

// TestLapsedTopUpIsNotAnOpening: only an opening burst's lapse is
// evidence about the opening's size. A top-up that lapses before
// overhead has ever stepped — its grant tagged 0, "not an opening" —
// leaves overhead as it was.
func TestLapsedTopUpIsNotAnOpening(t *testing.T) {
	h := newLaneHarness(t, 3, 0, 0)
	uri := metadata.URIFor(7)
	h.confirm() // nothing shared yet: the first scheduling beat grants nothing
	h.share(uri, 1)
	h.clk.Advance(paceBeat / 2) // between beats
	e := h.seq()
	e.mu.Lock()
	was := e.overhead
	now := h.clk.Now()
	e.transmitSymbolsLocked(context.Background(), 1, uri, 0, 1, block(uri, 0), now)
	e.transmitSymbolsLocked(context.Background(), 1, uri, 0, 1, block(uri, 0), now)
	e.mu.Unlock()
	if st := e.Stats(); st.TopUps != 1 {
		t.Fatalf("%d top-ups, want the second burst to be one", st.TopUps)
	}
	// Half a beat after the grant is too early for it to lapse; a beat
	// later it does, with every member still lacking the piece.
	h.tickAfter(paceBeat / 2)
	h.tick()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.lackedLocked(pieceKey{uri, 0}, h.clk.Now()) {
		t.Fatal("a member decoded the piece: its symbols should still be queued")
	}
	if e.overhead != was {
		t.Fatalf("overhead %.4f after a lapsed top-up, want %.4f: the top-up was judged as an opening", e.overhead, was)
	}
}

// BenchmarkEngineRound is the group plane's own layer: what one granted
// round costs the whole group — the sequencer's schedule and burst, four
// receivers' decode, verify-free store and acks — with the medium and
// the clock out of the way (one goroutine, no waiting). One op is a
// 128-piece transfer; ns/round divides it by the rounds granted.
func BenchmarkEngineRound(b *testing.B) {
	for _, loss := range []float64{0, 0.30} {
		b.Run(fmt.Sprintf("n=5/K=64/loss=%.2f", loss), func(b *testing.B) {
			var rounds uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := newLaneHarness(b, 5, loss, 1)
				h.share(metadata.URIFor(7), transferPieces)
				b.StartTimer()
				rounds += h.run(metadata.URIFor(7), transferPieces).Round
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
		})
	}
}
