package bcast

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The harness wires engines together through a queued fake medium: a
// Broadcast appends deliveries, and the test pumps them explicitly, so
// every interleaving is chosen by the test, not the scheduler. Frames
// round-trip through the wire codec so no engine ever shares mutable
// state (Have bitsets!) with another.

type harness struct {
	// clk is every engine's clock. It stands still unless a test moves
	// it, so nothing expires mid-test by accident.
	clk     *testutil.Clock
	mu      sync.Mutex
	engines map[trace.NodeID]*Engine
	stores  map[trace.NodeID]*fakeStore
	queue   []delivery
	// pieces logs every piece broadcast put on the medium, in order.
	pieces []transmission

	// dropSymbol, when set, is the lossy datagram medium: it is asked
	// once per (symbol delivery, receiver) and true means that receiver
	// never hears the datagram. Control-plane frames are never dropped.
	dropSymbol func(to trace.NodeID) bool
}

// transmission is one piece broadcast: who sent which piece.
type transmission struct {
	sender trace.NodeID
	uri    metadata.URI
	piece  int
}

type delivery struct {
	from    trace.NodeID
	members []trace.NodeID
	frame   []byte
	symbol  bool // rode the lossy lane, subject to dropSymbol
}

func newHarness() *harness {
	return &harness{
		clk:     testutil.NewClock(),
		engines: make(map[trace.NodeID]*Engine),
		stores:  make(map[trace.NodeID]*fakeStore),
	}
}

// add builds one engine plus its fake store, joined to the harness.
func (h *harness) add(t *testing.T, id trace.NodeID, tft bool) {
	t.Helper()
	st := &fakeStore{self: id, files: make(map[metadata.URI]*fakeFile)}
	e := New(Config{
		Self:      id,
		TitForTat: tft,
		Window:    time.Minute,
		Store:     st,
		Send:      &fakeSender{h: h, self: id},
		Now:       h.clk.Now,
		Logf:      t.Logf,
	})
	h.engines[id] = e
	h.stores[id] = st
}

// fullMesh makes every node a live peer of every other and feeds the
// matching overheard hellos, so the whole set is one clique.
func (h *harness) fullMesh() {
	var ids []trace.NodeID
	for id := range h.engines {
		ids = append(ids, id)
	}
	for _, id := range ids {
		var others []trace.NodeID
		for _, o := range ids {
			if o != id {
				others = append(others, o)
			}
		}
		h.stores[id].setLive(others)
		for _, o := range ids {
			h.engines[o].Observe(id, others)
		}
	}
}

// pump delivers every queued frame, including frames those deliveries
// enqueue, until the medium is silent.
func (h *harness) pump(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("pump did not quiesce: broadcast storm")
		}
		h.mu.Lock()
		if len(h.queue) == 0 {
			h.mu.Unlock()
			return
		}
		d := h.queue[0]
		h.queue = h.queue[1:]
		h.mu.Unlock()
		for _, m := range d.members {
			if m == d.from {
				continue // a radio never hears itself
			}
			e := h.engines[m]
			if e == nil {
				continue
			}
			if d.symbol && h.dropSymbol != nil && h.dropSymbol(m) {
				continue
			}
			msg, err := wire.Decode(d.frame)
			if err != nil {
				t.Fatalf("fake medium decode: %v", err)
			}
			e.HandleGroup(ctx, d.from, msg)
		}
	}
}

// step ticks every engine in ID order and pumps after each, one
// deterministic protocol beat.
func (h *harness) step(t *testing.T, order ...trace.NodeID) {
	t.Helper()
	ctx := context.Background()
	for _, id := range order {
		h.engines[id].Tick(ctx)
		h.pump(t)
	}
}

type fakeSender struct {
	h    *harness
	self trace.NodeID
}

func (s *fakeSender) Broadcast(_ context.Context, members []trace.NodeID, m wire.Msg) {
	frame := wire.Encode(m)
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	if pb, ok := m.(*wire.PieceBcast); ok {
		s.h.pieces = append(s.h.pieces, transmission{s.self, pb.URI, pb.Index})
	}
	s.h.queue = append(s.h.queue, delivery{
		from:    s.self,
		members: append([]trace.NodeID(nil), members...),
		frame:   frame,
	})
}

type fakeFile struct {
	total       int
	downloading bool
	have        map[int][]byte
	popularity  float64
}

type fakeStore struct {
	mu        sync.Mutex
	self      trace.NodeID
	live      []trace.NodeID
	files     map[metadata.URI]*fakeFile
	delivered int // DeliverPiece calls, duplicates included
	dups      int

	// rejectDeliveries fails the next N deliveries (verify-reject
	// simulation for the fountain plane's poisoned-decode path).
	rejectDeliveries int

	// onWants, when set, runs at the end of every Wants call, once the
	// snapshot it returns has been taken.
	onWants func()
}

func (s *fakeStore) setLive(ids []trace.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live = append([]trace.NodeID(nil), ids...)
}

// addFile registers a file; pieces lists the indices already held.
func (s *fakeStore) addFile(uri metadata.URI, total int, downloading bool, pop float64, pieces ...int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &fakeFile{total: total, downloading: downloading, have: make(map[int][]byte), popularity: pop}
	for _, p := range pieces {
		f.have[p] = pieceBytes(uri, p)
	}
	s.files[uri] = f
}

func pieceBytes(uri metadata.URI, i int) []byte {
	return []byte(fmt.Sprintf("%s#%d", uri, i))
}

func (s *fakeStore) complete(uri metadata.URI) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[uri]
	return f != nil && len(f.have) == f.total
}

func (s *fakeStore) LivePeers() []trace.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]trace.NodeID(nil), s.live...)
}

func (s *fakeStore) Wants() []wire.GroupWant {
	if s.onWants != nil {
		defer s.onWants() // after the unlock below
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var uris []metadata.URI
	for uri := range s.files {
		uris = append(uris, uri)
	}
	// Deterministic order keeps codec round-trips comparable.
	for i := 0; i < len(uris); i++ {
		for j := i + 1; j < len(uris); j++ {
			if uris[j] < uris[i] {
				uris[i], uris[j] = uris[j], uris[i]
			}
		}
	}
	var out []wire.GroupWant
	for _, uri := range uris {
		f := s.files[uri]
		w := wire.NewGroupWant(uri, f.total, f.downloading)
		for p := range f.have {
			w.SetHave(p)
		}
		out = append(out, *w)
	}
	return out
}

func (s *fakeStore) PieceData(uri metadata.URI, i int) ([]byte, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[uri]
	if f == nil {
		return nil, 0, false
	}
	data, ok := f.have[i]
	return data, f.total, ok
}

func (s *fakeStore) Popularity(uri metadata.URI) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.files[uri]; f != nil {
		return f.popularity
	}
	return 0
}

func (s *fakeStore) DeliverPiece(_ trace.NodeID, p *wire.PieceBcast) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delivered++
	if s.rejectDeliveries > 0 {
		s.rejectDeliveries--
		return false
	}
	f := s.files[p.URI]
	if f == nil {
		return false // not tracking this file
	}
	if _, ok := f.have[p.Index]; ok {
		s.dups++
		return true
	}
	f.have[p.Index] = append([]byte(nil), p.Data...)
	return true
}

// TestGroupFormsAndConfirms: a full mesh of three engines converges to
// one confirmed group with the lowest ID as sequencer.
func TestGroupFormsAndConfirms(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.add(t, id, false)
	}
	h.fullMesh()
	h.step(t, 1, 2, 3)
	h.step(t, 1, 2, 3) // second beat: everyone has heard everyone's view

	for _, id := range []trace.NodeID{1, 2, 3} {
		g, ok := h.engines[id].Group()
		if !ok || !equalIDs(g, []trace.NodeID{1, 2, 3}) {
			t.Fatalf("node %d: group=%v confirmed=%v, want [1 2 3] true", id, g, ok)
		}
		st := h.engines[id].Stats()
		if st.Sequencer != 1 {
			t.Fatalf("node %d: sequencer %d, want 1", id, st.Sequencer)
		}
		if st.Formations != 1 {
			t.Fatalf("node %d: formations %d, want 1", id, st.Formations)
		}
		if !h.engines[id].InGroup(1) && id != 1 {
			t.Fatalf("node %d: InGroup(1) false after confirmation", id)
		}
	}
}

// TestStaleViewUnconfirmsUntilNextGroupHello: confirmation is every
// member's view agreeing *and fresh*. A member that stops announcing —
// while the hellos that hold the clique together keep being overheard —
// costs the group its confirmation once its view is more than one Window
// old, not at one Window; the group itself stands, and the member's next
// GroupHello restores the schedule.
func TestStaleViewUnconfirmsUntilNextGroupHello(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.add(t, id, false)
	}
	h.fullMesh()
	h.step(t, 1, 2, 3)
	h.step(t, 1, 2, 3)
	e := h.engines[1]
	if !e.InGroup(3) {
		t.Fatal("no confirmed group to start from")
	}
	check := func(when string, confirmed bool) {
		t.Helper()
		g, ok := e.Group()
		if !equalIDs(g, []trace.NodeID{1, 2, 3}) || ok != confirmed || e.InGroup(3) != confirmed {
			t.Fatalf("%s: group=%v confirmed=%v InGroup(3)=%v, want [1 2 3] %v %v",
				when, g, ok, e.InGroup(3), confirmed, confirmed)
		}
	}

	// 3's last GroupHello is exactly one Window old: still good. 2 keeps
	// announcing and the overheard hellos stay fresh throughout.
	h.clk.Advance(e.cfg.Window)
	h.fullMesh()
	h.step(t, 1, 2)
	check("one Window after 3's last GroupHello", true)

	h.clk.Advance(1)
	h.step(t, 1)
	check("an instant later", false)
	if st := e.Stats(); st.Formations != 1 || st.Collapses != 0 {
		t.Fatalf("formations %d, collapses %d: a stale view must cost the confirmation, not the group", st.Formations, st.Collapses)
	}

	h.step(t, 3) // 3 announces again
	h.step(t, 1)
	check("after 3's next GroupHello", true)
}

// TestTooSmallForGroup: two nodes are below DefaultMinGroupSize and stay on
// the pairwise path.
func TestTooSmallForGroup(t *testing.T) {
	h := newHarness()
	h.add(t, 1, false)
	h.add(t, 2, false)
	h.fullMesh()
	h.step(t, 1, 2)
	h.step(t, 1, 2)
	if g, ok := h.engines[1].Group(); g != nil || ok {
		t.Fatalf("pair formed group %v (confirmed=%v)", g, ok)
	}
	if h.engines[1].InGroup(2) {
		t.Fatal("InGroup true without a group")
	}
}

// TestCooperativeOneSenderServesAll is the §V-A payoff: one seeder,
// two downloaders, and each piece crosses the medium exactly once —
// pairwise serving would have cost one transmission per downloader.
func TestCooperativeOneSenderServesAll(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.add(t, id, false)
	}
	uri := metadata.URIFor(7)
	const total = 4
	h.stores[1].addFile(uri, total, false, 1.0, 0, 1, 2, 3) // seeder
	h.stores[2].addFile(uri, total, true, 1.0)
	h.stores[3].addFile(uri, total, true, 1.0)
	h.fullMesh()

	for i := 0; i < 20; i++ {
		h.step(t, 1, 2, 3)
		if h.stores[2].complete(uri) && h.stores[3].complete(uri) {
			break
		}
	}
	if !h.stores[2].complete(uri) || !h.stores[3].complete(uri) {
		t.Fatalf("download incomplete: node2 %d/%d, node3 %d/%d",
			len(h.stores[2].files[uri].have), total, len(h.stores[3].files[uri].have), total)
	}

	var sent uint64
	for _, id := range []trace.NodeID{1, 2, 3} {
		sent += h.engines[id].Stats().PieceBcastsSent
	}
	if sent != total {
		t.Fatalf("piece broadcasts = %d, want exactly %d (one per piece)", sent, total)
	}
	if h.stores[2].dups != 0 || h.stores[3].dups != 0 {
		t.Fatalf("duplicate deliveries: node2 %d, node3 %d", h.stores[2].dups, h.stores[3].dups)
	}
	if h.engines[1].Stats().PieceBcastsSent != total {
		t.Fatalf("seeder sent %d, want %d", h.engines[1].Stats().PieceBcastsSent, total)
	}
}

// TestCooperativeRequestedBeforeUnrequested: pieces wanted by active
// downloaders are scheduled before pieces that only fill out an idle
// holder, and popularity breaks the tie among unrequested files.
func TestCooperativeRequestedBeforeUnrequested(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.add(t, id, false)
	}
	hot := metadata.URIFor(1)  // requested by node 3
	cold := metadata.URIFor(2) // node 2 is an incomplete holder, nobody downloads
	h.stores[1].addFile(hot, 1, false, 0.1, 0)
	h.stores[1].addFile(cold, 1, false, 0.9, 0)
	h.stores[2].addFile(cold, 1, false, 0.9)
	h.stores[3].addFile(hot, 1, true, 0.1)
	h.fullMesh()

	for i := 0; i < 20; i++ {
		h.step(t, 1, 2, 3)
		if h.stores[3].complete(hot) && h.stores[2].complete(cold) {
			break
		}
	}
	if !h.stores[3].complete(hot) {
		t.Fatal("requested file never completed")
	}
	if !h.stores[2].complete(cold) {
		t.Fatal("unrequested file never reached the idle holder")
	}
	// The requested piece must have gone out first despite the colder
	// popularity: its grant carries the earlier round number.
	if got := h.engines[1].Stats().Round; got < 2 {
		t.Fatalf("round = %d, want at least 2 (two scheduled pieces)", got)
	}
}

// TestTitForTatRotatesSenders: with every member both holding and
// missing pieces, the cyclic order hands the grant around and every
// node ends up transmitting.
func TestTitForTatRotatesSenders(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.add(t, id, true)
	}
	uri := metadata.URIFor(9)
	const total = 3
	// Node i holds exactly piece i-1 and wants the rest.
	h.stores[1].addFile(uri, total, true, 1, 0)
	h.stores[2].addFile(uri, total, true, 1, 1)
	h.stores[3].addFile(uri, total, true, 1, 2)
	h.fullMesh()

	for i := 0; i < 40; i++ {
		h.step(t, 1, 2, 3)
		done := true
		for _, id := range []trace.NodeID{1, 2, 3} {
			if !h.stores[id].complete(uri) {
				done = false
			}
		}
		if done {
			break
		}
	}
	senders := 0
	var sent uint64
	for _, id := range []trace.NodeID{1, 2, 3} {
		if !h.stores[id].complete(uri) {
			t.Fatalf("node %d incomplete", id)
		}
		st := h.engines[id].Stats()
		if !st.TitForTat {
			t.Fatalf("node %d: stats not tit-for-tat", id)
		}
		if st.PieceBcastsSent > 0 {
			senders++
		}
		sent += st.PieceBcastsSent
	}
	if senders != 3 {
		t.Fatalf("%d distinct senders, want 3 (cyclic order must rotate)", senders)
	}
	if sent != total {
		t.Fatalf("piece broadcasts = %d, want exactly %d", sent, total)
	}
}

// TestCollapseAndReformation: a member falling off the live-peer lists
// collapses the group (pairwise fallback) and its return re-forms it.
func TestCollapseAndReformation(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.add(t, id, false)
	}
	h.fullMesh()
	h.step(t, 1, 2, 3)
	h.step(t, 1, 2, 3)
	if _, ok := h.engines[1].Group(); !ok {
		t.Fatal("group never confirmed")
	}

	// Node 3 partitions: 1 and 2 lose it from their live sets.
	h.stores[1].setLive([]trace.NodeID{2})
	h.stores[2].setLive([]trace.NodeID{1})
	h.step(t, 1, 2)
	g, ok := h.engines[1].Group()
	if g != nil || ok {
		t.Fatalf("group survived partition: %v (confirmed=%v)", g, ok)
	}
	if h.engines[1].InGroup(2) {
		t.Fatal("pairwise suppression still active after collapse")
	}
	if st := h.engines[1].Stats(); st.Collapses != 1 {
		t.Fatalf("collapses = %d, want 1", st.Collapses)
	}

	// Heal: node 3 comes back, hellos flow again.
	h.fullMesh()
	h.step(t, 1, 2, 3)
	h.step(t, 1, 2, 3)
	g, ok = h.engines[1].Group()
	if !ok || !equalIDs(g, []trace.NodeID{1, 2, 3}) {
		t.Fatalf("group did not re-form: %v confirmed=%v", g, ok)
	}
	if st := h.engines[1].Stats(); st.Formations != 2 {
		t.Fatalf("formations = %d, want 2", st.Formations)
	}
}

// TestStaleGrantIsSilent: a grant for a piece the node cannot serve is
// skipped, not answered with garbage.
func TestStaleGrantIsSilent(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.add(t, id, false)
	}
	h.fullMesh()
	h.step(t, 1, 2, 3)
	h.step(t, 1, 2, 3)

	e := h.engines[2]
	e.HandleGroup(context.Background(), 1, &wire.Grant{
		From: 1, To: 2, Round: 99, URI: metadata.URIFor(404), Piece: 0,
	})
	h.pump(t)
	if sent := e.Stats().PieceBcastsSent; sent != 0 {
		t.Fatalf("answered a stale grant with %d broadcasts", sent)
	}
}

// TestLargestCliqueWins: with four nodes where 4 only reaches 1, the
// group is the triangle {1,2,3}, not the pair {1,4}.
func TestLargestCliqueWins(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3, 4} {
		h.add(t, id, false)
	}
	// 1-2-3 is a triangle; 4 touches only 1.
	h.stores[1].setLive([]trace.NodeID{2, 3, 4})
	h.stores[2].setLive([]trace.NodeID{1, 3})
	h.stores[3].setLive([]trace.NodeID{1, 2})
	h.stores[4].setLive([]trace.NodeID{1})
	for _, e := range h.engines {
		e.Observe(1, []trace.NodeID{2, 3, 4})
		e.Observe(2, []trace.NodeID{1, 3})
		e.Observe(3, []trace.NodeID{1, 2})
		e.Observe(4, []trace.NodeID{1})
	}
	h.step(t, 1, 2, 3, 4)
	h.step(t, 1, 2, 3, 4)

	for _, id := range []trace.NodeID{1, 2, 3} {
		g, ok := h.engines[id].Group()
		if !ok || !equalIDs(g, []trace.NodeID{1, 2, 3}) {
			t.Fatalf("node %d: group=%v confirmed=%v, want triangle", id, g, ok)
		}
	}
	if g, _ := h.engines[4].Group(); g != nil {
		t.Fatalf("leaf node 4 formed group %v", g)
	}
	if h.engines[1].InGroup(4) {
		t.Fatal("node 1 suppresses pairwise serving toward non-member 4")
	}
}
