package bcast

import (
	"slices"
	"testing"

	"repro/internal/metadata"
	"repro/internal/trace"
)

// TestTitForTatReformationAfterHeal: a tit-for-tat group collapses
// mid-transfer when a member partitions away, re-forms on heal, and
// resumes from the surviving piece bitmaps — the transfer picks up
// where it stopped instead of restarting, so every piece still crosses
// the medium exactly once.
func TestTitForTatReformationAfterHeal(t *testing.T) {
	h := newHarness()
	for _, id := range []trace.NodeID{1, 2, 3} {
		h.add(t, id, true)
	}
	uri := metadata.URIFor(11)
	const total = 6
	h.stores[1].addFile(uri, total, false, 1.0, 0, 1, 2, 3, 4, 5) // seeder
	h.stores[2].addFile(uri, total, true, 1.0)
	h.stores[3].addFile(uri, total, true, 1.0)
	h.fullMesh()
	h.step(t, 1, 2, 3)
	h.step(t, 1, 2, 3)
	if _, ok := h.engines[1].Group(); !ok {
		t.Fatal("group never confirmed")
	}

	// Run the transfer partway: at least two pieces delivered, none of
	// the downloaders complete.
	partial := func() int {
		h.stores[2].mu.Lock()
		defer h.stores[2].mu.Unlock()
		return len(h.stores[2].files[uri].have)
	}
	for i := 0; i < 20 && partial() < 2; i++ {
		h.step(t, 1, 2, 3)
	}
	if got := partial(); got < 2 || got >= total {
		t.Fatalf("mid-transfer setup failed: node 2 holds %d/%d pieces", got, total)
	}
	heldAtPartition := partial()

	// Node 3 partitions away; the group collapses on both survivors.
	h.stores[1].setLive([]trace.NodeID{2})
	h.stores[2].setLive([]trace.NodeID{1})
	h.step(t, 1, 2)
	if g, ok := h.engines[1].Group(); g != nil || ok {
		t.Fatalf("group survived partition: %v (confirmed=%v)", g, ok)
	}
	if st := h.engines[1].Stats(); st.Collapses != 1 {
		t.Fatalf("collapses = %d, want 1", st.Collapses)
	}

	// Heal and re-form.
	h.fullMesh()
	h.step(t, 1, 2, 3)
	h.step(t, 1, 2, 3)
	g, ok := h.engines[1].Group()
	if !ok || !slices.Equal(g, []trace.NodeID{1, 2, 3}) {
		t.Fatalf("group did not re-form: %v confirmed=%v", g, ok)
	}
	if st := h.engines[1].Stats(); st.Formations != 2 {
		t.Fatalf("formations = %d, want 2", st.Formations)
	}
	if got := partial(); got < heldAtPartition {
		t.Fatalf("progress lost across collapse: held %d, had %d", got, heldAtPartition)
	}

	// Resume to completion.
	for i := 0; i < 40; i++ {
		h.step(t, 1, 2, 3)
		if h.stores[2].complete(uri) && h.stores[3].complete(uri) {
			break
		}
	}
	if !h.stores[2].complete(uri) || !h.stores[3].complete(uri) {
		t.Fatal("download never completed after re-formation")
	}

	// Progress preservation, quantified: no duplicate deliveries, and
	// the whole run cost exactly one broadcast per piece even though the
	// group formed twice.
	if h.stores[2].dups != 0 || h.stores[3].dups != 0 {
		t.Fatalf("duplicate deliveries after re-formation: node2 %d, node3 %d",
			h.stores[2].dups, h.stores[3].dups)
	}
	var sent uint64
	for _, id := range []trace.NodeID{1, 2, 3} {
		sent += h.engines[id].Stats().PieceBcastsSent
	}
	if sent != total {
		t.Fatalf("piece broadcasts = %d, want exactly %d across both group lifetimes", sent, total)
	}
}
