package bcast

import (
	"context"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The FEC tests reuse the queued-medium harness: symbol broadcasts are
// deliveries addressed to every engine (the lane is a shared domain),
// and an optional per-member drop hook plays the part of the lossy
// datagram medium — deterministically, because the hook sees delivery
// order the test controls.

// fakeFECSender is a fakeSender with the lossy lane: BroadcastSymbol
// enqueues to every engine in the harness, marked so the drop hook can
// discriminate lane traffic from control frames.
type fakeFECSender struct {
	fakeSender
}

func (s *fakeFECSender) BroadcastSymbol(_ context.Context, m wire.Msg) {
	frame := wire.Encode(m)
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	var members []trace.NodeID
	for id := range s.h.engines {
		members = append(members, id)
	}
	s.h.queue = append(s.h.queue, delivery{
		from:    s.self,
		members: members,
		frame:   frame,
		symbol:  true,
	})
}

// addFEC builds an engine whose sender carries the symbol lane. Tiny
// symbols (4 bytes) turn the harness's short test pieces into several
// source symbols, so the decoder actually has equations to solve.
func (h *harness) addFEC(t *testing.T, id trace.NodeID, relayBudget int) {
	t.Helper()
	st := &fakeStore{self: id, files: make(map[metadata.URI]*fakeFile)}
	s := &fakeFECSender{fakeSender{h: h, self: id}}
	e := New(Config{
		Self:        id,
		Window:      time.Minute, // ticks are manual; nothing expires mid-test
		Store:       st,
		Send:        s,
		FEC:         true,
		SymbolSize:  4,
		RelayBudget: relayBudget,
		Logf:        t.Logf,
	})
	h.engines[id] = e
	h.stores[id] = st
}

// TestFECNegotiationMixedGroup: one legacy member pins the whole group
// to the reliable piece plane — data still flows, but as PieceBcast
// frames, and no symbol ever leaves a sender.
func TestFECNegotiationMixedGroup(t *testing.T) {
	h := newHarness()
	h.addFEC(t, 1, 0)
	h.addFEC(t, 2, 0)
	h.add(t, 3, false) // no lane, never advertises FEC
	uri := metadata.URIFor(7)
	const total = 2
	h.stores[1].addFile(uri, total, false, 1.0, 0, 1)
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
		t.Fatal("mixed group never completed on the piece plane")
	}
	st := h.engines[1].Stats()
	if st.FECActive {
		t.Fatal("FEC reported active with a legacy member in the group")
	}
	if st.SymbolsSent != 0 || st.PieceBcastsSent == 0 {
		t.Fatalf("want pure piece plane, got symbols=%d pieces=%d",
			st.SymbolsSent, st.PieceBcastsSent)
	}
}

// TestFECOneSenderServesAll: with a unanimous-FEC group the granted
// seeder streams symbols, both receivers decode every piece, ack on
// the control plane, and not one PieceBcast is spent.
func TestFECOneSenderServesAll(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.addFEC(t, id, 2)
	}
	uri := metadata.URIFor(7)
	const total = 4
	h.stores[1].addFile(uri, total, false, 1.0, 0, 1, 2, 3)
	h.stores[2].addFile(uri, total, true, 1.0)
	h.stores[3].addFile(uri, total, true, 1.0)
	h.fullMesh()

	for i := 0; i < 30; i++ {
		h.step(t, 1, 2, 3)
		if h.stores[2].complete(uri) && h.stores[3].complete(uri) {
			break
		}
	}
	if !h.stores[2].complete(uri) || !h.stores[3].complete(uri) {
		t.Fatalf("fountain download incomplete: node2 %d/%d, node3 %d/%d",
			len(h.stores[2].files[uri].have), total, len(h.stores[3].files[uri].have), total)
	}
	st1 := h.engines[1].Stats()
	if !st1.FECActive {
		t.Fatal("unanimous-FEC group did not activate the symbol plane")
	}
	if st1.SymbolsSent == 0 || st1.PieceBcastsSent != 0 {
		t.Fatalf("want pure symbol plane, got symbols=%d pieces=%d",
			st1.SymbolsSent, st1.PieceBcastsSent)
	}
	for _, id := range []trace.NodeID{2, 3} {
		st := h.engines[id].Stats()
		if st.FECDecodes != total {
			t.Fatalf("node %d decoded %d pieces, want %d", id, st.FECDecodes, total)
		}
		if st.SymbolAcksSent == 0 {
			t.Fatalf("node %d never acked", id)
		}
		if h.stores[id].dups != 0 {
			t.Fatalf("node %d re-delivered %d already-held pieces", id, h.stores[id].dups)
		}
	}
	if st1.SymbolAcksRecv == 0 {
		t.Fatal("seeder never heard an ack")
	}
}

// TestFECLossRepairedByTopUps: a member that loses half its datagrams
// still completes — fresh coded symbols from re-grant top-ups (plus
// neighbours' relays) span the gap without any per-symbol NACK.
func TestFECLossRepairedByTopUps(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.addFEC(t, id, 2)
	}
	uri := metadata.URIFor(7)
	const total = 4
	h.stores[1].addFile(uri, total, false, 1.0, 0, 1, 2, 3)
	h.stores[2].addFile(uri, total, true, 1.0)
	h.stores[3].addFile(uri, total, true, 1.0)
	h.fullMesh()

	n := 0
	h.dropSymbol = func(to trace.NodeID) bool {
		if to != 2 {
			return false
		}
		n++
		return n%2 == 0 // every second datagram to node 2 vanishes
	}

	for i := 0; i < 60; i++ {
		h.step(t, 1, 2, 3)
		if h.stores[2].complete(uri) && h.stores[3].complete(uri) {
			break
		}
	}
	if !h.stores[2].complete(uri) {
		t.Fatalf("lossy member stuck at %d/%d pieces",
			len(h.stores[2].files[uri].have), total)
	}
	if !h.stores[3].complete(uri) {
		t.Fatal("lossless member incomplete")
	}
	if st := h.engines[2].Stats(); st.FECDecodes != total {
		t.Fatalf("node 2 decoded %d, want %d", st.FECDecodes, total)
	}
}

// TestFECPoisonedDecodeRestarts: when decoded bytes fail verification
// the engine must not ack them — it resets the collection and rebuilds
// the piece from fresh symbols.
func TestFECPoisonedDecodeRestarts(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.addFEC(t, id, 2)
	}
	uri := metadata.URIFor(7)
	const total = 2
	h.stores[1].addFile(uri, total, false, 1.0, 0, 1)
	h.stores[2].addFile(uri, total, true, 1.0)
	h.stores[3].addFile(uri, total, true, 1.0)
	h.stores[2].rejectDeliveries = 1 // first decode "fails verification"
	h.fullMesh()

	for i := 0; i < 60; i++ {
		h.step(t, 1, 2, 3)
		if h.stores[2].complete(uri) && h.stores[3].complete(uri) {
			break
		}
	}
	if !h.stores[2].complete(uri) {
		t.Fatalf("poisoned member never recovered: %d/%d pieces",
			len(h.stores[2].files[uri].have), total)
	}
	st := h.engines[2].Stats()
	if st.FECVerifyFails == 0 {
		t.Fatal("verify failure never surfaced")
	}
	if st.FECDecodes != total {
		t.Fatalf("node 2 decoded %d, want %d", st.FECDecodes, total)
	}
}

// TestFECForeignSeedCannotPinABlock: a block's seed is derived from
// its URI and piece, never negotiated, so a symbol under any other seed
// is dropped before it can open a decoder. Were the first symbol heard
// for a piece to fix its stream, one foreign symbol would pin the block
// to a decoder every genuine symbol conflicts with, until the block was
// pruned 4 × Window later.
func TestFECForeignSeedCannotPinABlock(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.addFEC(t, id, 2)
	}
	uri := metadata.URIFor(7)
	const total = 2
	h.stores[1].addFile(uri, total, false, 1.0, 0, 1)
	h.stores[2].addFile(uri, total, true, 1.0)
	h.stores[3].addFile(uri, total, true, 1.0)
	h.fullMesh()

	foreign := &wire.Symbol{
		From: 3, URI: uri, Piece: 0, Total: total,
		Seed: blockSeed(uri, 0) ^ 1, DataLen: len(pieceBytes(uri, 0)),
		Index: 0, Payload: make([]byte, 4),
	}
	foreign.Seal()
	h.engines[2].HandleGroup(context.Background(), 3, foreign)

	for i := 0; i < 30 && !h.stores[2].complete(uri); i++ {
		h.step(t, 1, 2, 3)
	}
	if !h.stores[2].complete(uri) {
		t.Fatalf("member stuck at %d/%d pieces behind a foreign-seed symbol",
			len(h.stores[2].files[uri].have), total)
	}
	if st := h.engines[2].Stats(); st.FECDecodes != total || st.FECVerifyFails != 0 {
		t.Fatalf("node 2: %d decodes, %d verify fails; want %d and 0", st.FECDecodes, st.FECVerifyFails, total)
	}
}

// TestFECRelayBudgetBounds: receivers do relay (cooperation is real)
// but never more than RelayBudget first-sight symbols per Tick.
func TestFECRelayBudgetBounds(t *testing.T) {
	const budget = 2
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.addFEC(t, id, budget)
	}
	uri := metadata.URIFor(7)
	const total = 4
	h.stores[1].addFile(uri, total, false, 1.0, 0, 1, 2, 3)
	h.stores[2].addFile(uri, total, true, 1.0)
	h.stores[3].addFile(uri, total, true, 1.0)
	h.fullMesh()

	ticks := 0
	for i := 0; i < 30; i++ {
		h.step(t, 1, 2, 3)
		ticks++
		if h.stores[2].complete(uri) && h.stores[3].complete(uri) {
			break
		}
	}
	if !h.stores[2].complete(uri) || !h.stores[3].complete(uri) {
		t.Fatal("download incomplete")
	}
	var relayed uint64
	for _, id := range []trace.NodeID{1, 2, 3} {
		st := h.engines[id].Stats()
		if st.SymbolsRelayed > uint64(ticks*budget) {
			t.Fatalf("node %d relayed %d symbols in %d ticks, budget %d/tick",
				id, st.SymbolsRelayed, ticks, budget)
		}
		relayed += st.SymbolsRelayed
	}
	if relayed == 0 {
		t.Fatal("no symbol was ever relayed — cooperation is dead")
	}
}

// TestFECBadCheckDropped: a symbol whose payload was flipped in flight
// fails its integrity check at the engine and never reaches a decoder.
func TestFECBadCheckDropped(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2} {
		h.addFEC(t, id, 2)
	}
	h.fullMesh()
	h.step(t, 1, 2)

	s := &wire.Symbol{
		From: 1, Round: 1, URI: metadata.URIFor(7), Piece: 0, Total: 1,
		Seed: 42, DataLen: 16, Index: 0, Payload: []byte{1, 2, 3, 4},
	}
	s.Seal()
	s.Payload[0] ^= 0xFF
	h.engines[2].HandleGroup(context.Background(), 1, s)

	st := h.engines[2].Stats()
	if st.SymbolsBadCheck != 1 {
		t.Fatalf("bad-check count = %d, want 1", st.SymbolsBadCheck)
	}
	if st.FECDecodes != 0 {
		t.Fatal("corrupt symbol reached a decoder")
	}
}

// TestViewNeverOlderThanAck: a beat snapshots this node's piece state
// and announces it as one step under the engine's lock, so a block that
// decodes and acks cannot land between the two. When it could, the
// GroupHello that followed the ack carried the older bitmap: the
// sequencer's view lost the acked bit (a spurious top-up) and the
// receiver's own view lost it too (it collected the piece again).
func TestViewNeverOlderThanAck(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.addFEC(t, id, 0)
	}
	h.fullMesh()
	h.step(t, 1, 2, 3)
	h.step(t, 1, 2, 3)
	uri := metadata.URIFor(7)
	h.stores[1].addFile(uri, 1, false, 1.0, 0)
	h.stores[2].addFile(uri, 1, true, 1.0)
	h.stores[3].addFile(uri, 1, true, 1.0)
	h.step(t, 1, 2, 3) // everyone announces the file

	// The sequencer's beat grants the piece; its burst waits on the lane.
	ctx := context.Background()
	h.engines[1].Tick(ctx)
	if got := h.engines[1].Stats().SymbolsSent; got == 0 {
		t.Fatal("the beat granted nothing")
	}
	// Member 2's beat: the moment it has read its piece state, try to let the
	// burst land — decode, store and ack — before it announces.
	e2 := h.engines[2]
	between := false
	h.stores[2].onWants = func() {
		if e2.mu.TryLock() {
			e2.mu.Unlock()
			between = true
			h.pump(t)
		}
	}
	e2.Tick(ctx)
	h.stores[2].onWants = nil
	h.pump(t)

	if between {
		t.Error("the piece state was read outside the engine's lock: a decode fit between snapshot and announcement")
	}
	if !h.stores[2].complete(uri) {
		t.Fatal("member 2 never decoded the piece")
	}
	e2.mu.Lock()
	self := e2.selfHasLocked(uri, 0)
	e2.mu.Unlock()
	if !self {
		t.Error("member 2's own view lost the piece it holds")
	}
	e1 := h.engines[1]
	e1.mu.Lock()
	lacked := e1.lackedLocked(pieceKey{uri, 0}, e1.cfg.Now())
	e1.mu.Unlock()
	if lacked {
		t.Error("the sequencer's view lost a bit the member had acked")
	}
}
