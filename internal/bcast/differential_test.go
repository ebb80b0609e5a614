package bcast

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/clique"
	"repro/internal/download"
	"repro/internal/metadata"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// The sim↔live differential: the simulator's download exchange and a
// live engine group share internal/sched, so fed the same clique state
// they must put the same (sender, URI, piece) transmissions on the
// medium in the same order. The live side runs on the queued medium of
// bcast_test.go, where the test — not the scheduler — picks every
// interleaving.

// cliqueFile is one file of the shared state.
type cliqueFile struct {
	id         metadata.FileID
	pieces     int
	popularity float64
}

// cliqueHolding is one member's state for one file. In the live group a
// member takes part in a file only if it announces it, while the
// simulator counts every member; so the shared states give every member
// an entry for every file.
type cliqueHolding struct {
	member trace.NodeID
	file   int // index into the files
	wants  bool
	have   []int
}

type cliqueState struct {
	members  []trace.NodeID
	files    []cliqueFile
	holdings []cliqueHolding
}

func (f cliqueFile) meta() *metadata.Metadata {
	const pieceSize = 64
	return metadata.NewSynthetic(f.id, fmt.Sprintf("file-%d", f.id), "FOX", "desc",
		int64(f.pieces*pieceSize), pieceSize, 0, simtime.Days(3), []byte("k"))
}

// simulate runs the state through download.Exchange.
func (st cliqueState) simulate(tft bool) []transmission {
	nodes := make(map[trace.NodeID]*node.Node)
	var members []*node.Node
	for _, id := range st.members {
		nodes[id] = node.New(id, false)
		members = append(members, nodes[id])
	}
	for _, h := range st.holdings {
		f := st.files[h.file]
		m, n := f.meta(), nodes[h.member]
		n.AddMetadata(m, f.popularity, 0)
		if h.wants {
			n.Select(m.URI)
		}
		for _, i := range h.have {
			n.AddPiece(m.URI, i, f.pieces)
		}
	}
	var out []transmission
	for _, ev := range download.Exchange(0, members, download.Config{PieceBudget: 1 << 20, TitForTat: tft}) {
		out = append(out, transmission{ev.Sender, ev.URI, ev.Piece})
	}
	return out
}

// live runs the state through an engine group until the medium has
// carried want piece broadcasts (or the group stays idle).
func (st cliqueState) live(t *testing.T, tft bool, want int) []transmission {
	t.Helper()
	h := newHarness()
	for _, id := range st.members {
		h.add(t, id, tft)
	}
	for _, hd := range st.holdings {
		f := st.files[hd.file]
		h.stores[hd.member].addFile(metadata.URIFor(f.id), f.pieces, hd.wants, f.popularity, hd.have...)
	}
	h.fullMesh()
	// Two beats confirm the group; then one grant per beat, and under
	// tit-for-tat a beat may pass idle when the turn's sender has
	// nothing to offer.
	for beat := 0; beat < 2+(want+1)*len(st.members) && len(h.pieces) < want; beat++ {
		h.step(t, st.members...)
	}
	for i := 0; i < 3; i++ { // no stragglers after the last expected piece
		h.step(t, st.members...)
	}
	return h.pieces
}

func TestSimLiveCooperative(t *testing.T) {
	st := cliqueState{
		members: []trace.NodeID{1, 2, 3, 4, 5},
		files: []cliqueFile{
			{id: 1, pieces: 3, popularity: 0.2}, // hot: two downloaders
			{id: 2, pieces: 2, popularity: 0.9}, // warm: one downloader
			{id: 3, pieces: 2, popularity: 0.5}, // cold: nobody asks, pushed last
		},
		holdings: []cliqueHolding{
			{1, 0, false, []int{0, 1, 2}}, {2, 0, false, nil}, {3, 0, true, nil}, {4, 0, true, []int{0}}, {5, 0, false, nil},
			{1, 1, false, []int{1}}, {2, 1, false, []int{0, 1}}, {3, 1, false, nil}, {4, 1, false, nil}, {5, 1, true, nil},
			{1, 2, false, nil}, {2, 2, false, []int{0, 1}}, {3, 2, false, []int{0, 1}}, {4, 2, false, nil}, {5, 2, false, nil},
		},
	}
	hot, warm, cold := metadata.URIFor(1), metadata.URIFor(2), metadata.URIFor(3)
	want := []transmission{
		{1, hot, 1}, {1, hot, 2}, // two requesters each
		{2, warm, 0}, {1, warm, 1}, // one requester, the more popular file
		{1, hot, 0},                // one requester, the less popular file
		{2, cold, 0}, {2, cold, 1}, // push phase
	}
	sim := st.simulate(false)
	if !reflect.DeepEqual(sim, want) {
		t.Fatalf("simulator sent %v, want %v", sim, want)
	}
	if live := st.live(t, false, len(want)); !reflect.DeepEqual(live, want) {
		t.Fatalf("live group sent %v, simulator %v", live, sim)
	}
}

// TestSimLiveCooperativeRandom repeats the comparison over seeded random
// states.
func TestSimLiveCooperativeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		st := cliqueState{}
		for id := 0; id < 3+r.Intn(3); id++ {
			st.members = append(st.members, trace.NodeID(1+id))
		}
		for f := 0; f < 1+r.Intn(3); f++ {
			st.files = append(st.files, cliqueFile{
				id: metadata.FileID(f + 1), pieces: 1 + r.Intn(4), popularity: float64(r.Intn(3)) / 2,
			})
			for _, m := range st.members {
				hd := cliqueHolding{member: m, file: f, wants: r.Intn(2) == 0}
				for i := 0; i < st.files[f].pieces; i++ {
					if r.Intn(3) == 0 {
						hd.have = append(hd.have, i)
					}
				}
				st.holdings = append(st.holdings, hd)
			}
		}
		sim := st.simulate(false)
		live := st.live(t, false, len(sim))
		if len(sim) == 0 && len(live) == 0 {
			continue
		}
		if !reflect.DeepEqual(live, sim) {
			t.Fatalf("trial %d (%+v):\nlive group sent %v\nsimulator  sent %v", trial, st, live, sim)
		}
	}
}

// TestSimLiveTitForTat: both sides hand the turn around the same cyclic
// order and each sender offers its pieces in the same order. Every
// member holds a distinct share of two files everyone wants, so each
// candidate has the same requesters and the simulator's credit weights
// tie exactly like the live group's counts — the live group keeps no
// ledger. The two rotations start at different points of the cycle (the
// simulator at turn 0 of the contact, the live sequencer at its running
// round number), so the comparison is per sender and on the succession,
// not on absolute position.
func TestSimLiveTitForTat(t *testing.T) {
	st := cliqueState{
		members: []trace.NodeID{1, 2, 3, 4},
		files: []cliqueFile{
			{id: 1, pieces: 8, popularity: 0.3},
			{id: 2, pieces: 4, popularity: 0.8},
		},
	}
	for f, file := range st.files {
		for k, m := range st.members {
			hd := cliqueHolding{member: m, file: f, wants: true}
			for i := k; i < file.pieces; i += len(st.members) {
				hd.have = append(hd.have, i)
			}
			st.holdings = append(st.holdings, hd)
		}
	}
	sim := st.simulate(true)
	if len(sim) != 12 {
		t.Fatalf("simulator sent %d pieces, want all 12: %v", len(sim), sim)
	}
	live := st.live(t, true, len(sim))
	if len(live) != len(sim) {
		t.Fatalf("live group sent %d pieces, simulator %d:\n%v\n%v", len(live), len(sim), live, sim)
	}

	order := clique.CyclicOrder(st.members)
	next := make(map[trace.NodeID]trace.NodeID)
	for i, id := range order {
		next[id] = order[(i+1)%len(order)]
	}
	perSender := func(name string, seq []transmission) map[trace.NodeID][]transmission {
		by := make(map[trace.NodeID][]transmission)
		for i, tx := range seq {
			by[tx.sender] = append(by[tx.sender], tx)
			if i > 0 && tx.sender != next[seq[i-1].sender] {
				t.Fatalf("%s: sender %d follows %d, cyclic order is %v", name, tx.sender, seq[i-1].sender, order)
			}
		}
		return by
	}
	if s, l := perSender("simulator", sim), perSender("live group", live); !reflect.DeepEqual(s, l) {
		t.Fatalf("senders offered their pieces in different orders:\nlive group %v\nsimulator  %v", l, s)
	}
}
