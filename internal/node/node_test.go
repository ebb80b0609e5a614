package node

import (
	"testing"

	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/trace"
)

var key = []byte("k")

func makeMeta(id metadata.FileID, name string) *metadata.Metadata {
	return metadata.NewSynthetic(id, name, "FOX", "desc", 1024, 256,
		0, simtime.Days(3), key)
}

func TestQueriesLifecycle(t *testing.T) {
	n := New(1, false)
	n.AddQuery("jazz", simtime.Time(simtime.Day))
	n.AddQuery("rock", simtime.Time(2*simtime.Day))
	got := n.Queries(0)
	if len(got) != 2 || got[0] != "jazz" || got[1] != "rock" {
		t.Fatalf("Queries = %v", got)
	}
	got = n.Queries(simtime.Time(simtime.Day))
	if len(got) != 1 || got[0] != "rock" {
		t.Fatalf("Queries after expiry = %v", got)
	}
}

func TestAddQueryKeepsLaterExpiry(t *testing.T) {
	n := New(1, false)
	if !n.AddQuery("jazz", simtime.Time(simtime.Day)) {
		t.Fatal("a new query did not report the set as changed")
	}
	// Re-adding moves the expiry at most; the set of queries stands.
	if n.AddQuery("jazz", simtime.Time(2*simtime.Day)) {
		t.Fatal("extending a registered query reported the set as changed")
	}
	if n.AddQuery("jazz", simtime.Time(simtime.Hour)) { // earlier: ignored
		t.Fatal("re-adding a registered query reported the set as changed")
	}
	if got := n.Queries(simtime.Time(simtime.Day)); len(got) != 1 {
		t.Fatalf("Queries = %v, want extended expiry to win", got)
	}
}

func TestPeerQueriesOnlyFromFrequentContacts(t *testing.T) {
	n := New(1, false)
	n.SetFrequent([]trace.NodeID{2})
	n.LearnPeerQueries(2, []string{"jazz"}, simtime.Time(simtime.Day))
	n.LearnPeerQueries(3, []string{"rock"}, simtime.Time(simtime.Day))
	got := n.PeerQueries(0)
	if len(got) != 1 || got[0] != "jazz" {
		t.Fatalf("PeerQueries = %v, want only the frequent contact's", got)
	}
	if !n.IsFrequent(2) || n.IsFrequent(3) {
		t.Fatal("IsFrequent wrong")
	}
}

func TestPeerQueriesDedupAndExpire(t *testing.T) {
	n := New(1, false)
	n.SetFrequent([]trace.NodeID{2, 3})
	n.LearnPeerQueries(2, []string{"jazz"}, simtime.Time(simtime.Day))
	n.LearnPeerQueries(3, []string{"jazz"}, simtime.Time(simtime.Day))
	if got := n.PeerQueries(0); len(got) != 1 {
		t.Fatalf("PeerQueries = %v, want deduplicated", got)
	}
	if got := n.PeerQueries(simtime.Time(simtime.Day)); len(got) != 0 {
		t.Fatalf("PeerQueries after expiry = %v", got)
	}
}

func TestAddMetadata(t *testing.T) {
	n := New(1, false)
	m := makeMeta(1, "jazz night")
	if !n.AddMetadata(m, 0.5, 0) {
		t.Fatal("first add not new")
	}
	if n.AddMetadata(m, 0.3, 0) {
		t.Fatal("second add reported new")
	}
	if !n.HasMetadata(m.URI) {
		t.Fatal("metadata missing")
	}
	if got := n.Metadata(m.URI).Popularity; got != 0.5 {
		t.Fatalf("popularity = %v, lower advisory must not overwrite", got)
	}
	n.AddMetadata(m, 0.9, 0)
	if got := n.Metadata(m.URI).Popularity; got != 0.9 {
		t.Fatalf("popularity = %v, higher advisory must refresh", got)
	}
}

func TestAddMetadataRejectsExpired(t *testing.T) {
	n := New(1, false)
	m := makeMeta(1, "x")
	if n.AddMetadata(m, 0.5, simtime.Time(simtime.Days(3))) {
		t.Fatal("expired metadata accepted")
	}
}

func TestAddMetadataClones(t *testing.T) {
	n := New(1, false)
	m := makeMeta(1, "x")
	n.AddMetadata(m, 0.5, 0)
	m.Name = "mutated"
	if n.Metadata(m.URI).Meta.Name == "mutated" {
		t.Fatal("node aliases caller metadata")
	}
}

func TestMatchingQuerySortedByPopularity(t *testing.T) {
	n := New(1, false)
	a := makeMeta(1, "jazz alpha")
	b := makeMeta(2, "jazz beta")
	n.AddMetadata(a, 0.2, 0)
	n.AddMetadata(b, 0.8, 0)
	got := n.MatchingQuery("jazz")
	if len(got) != 2 || got[0].Meta.URI != b.URI {
		t.Fatalf("MatchingQuery order wrong: %v", got)
	}
	if got := n.MatchingQuery("opera"); len(got) != 0 {
		t.Fatalf("MatchingQuery(opera) = %v", got)
	}
}

func TestSelectAndPieces(t *testing.T) {
	n := New(1, false)
	m := makeMeta(1, "x") // 1024/256 = 4 pieces
	if n.Select(m.URI) {
		t.Fatal("Select without metadata succeeded")
	}
	n.AddMetadata(m, 0.5, 0)
	if !n.Select(m.URI) {
		t.Fatal("Select failed")
	}
	ps := n.Pieces(m.URI)
	if ps == nil || !ps.Want || ps.Count() != 0 {
		t.Fatalf("piece set = %+v", ps)
	}
	if !n.AddPiece(m.URI, 0, 4) {
		t.Fatal("AddPiece(0) not new")
	}
	if n.AddPiece(m.URI, 0, 4) {
		t.Fatal("duplicate piece reported new")
	}
	if n.AddPiece(m.URI, 9, 4) {
		t.Fatal("out-of-range piece accepted")
	}
	for i := 1; i < 4; i++ {
		n.AddPiece(m.URI, i, 4)
	}
	if !n.HasFullFile(m.URI) {
		t.Fatal("full file not detected")
	}
	if missing := n.Pieces(m.URI).Missing(); missing != nil {
		t.Fatalf("Missing = %v", missing)
	}
}

func TestWantedIncomplete(t *testing.T) {
	n := New(1, false)
	a, b := makeMeta(1, "a"), makeMeta(2, "b")
	n.AddMetadata(a, 0.5, 0)
	n.AddMetadata(b, 0.5, 0)
	n.Select(a.URI)
	n.Select(b.URI)
	n.GrantFullFile(a.URI, a.NumPieces())
	got := n.WantedIncomplete()
	if len(got) != 1 || got[0] != b.URI {
		t.Fatalf("WantedIncomplete = %v", got)
	}
}

func TestCachedUnwantedPieces(t *testing.T) {
	// Nodes cache pieces pushed in phase two even without selecting the
	// file; the piece set exists with Want=false.
	n := New(1, false)
	if !n.AddPiece("dtn://files/9", 1, 4) {
		t.Fatal("cached piece not stored")
	}
	ps := n.Pieces("dtn://files/9")
	if ps == nil || ps.Want {
		t.Fatalf("piece set = %+v, want cached-not-wanted", ps)
	}
	if got := n.WantedIncomplete(); len(got) != 0 {
		t.Fatalf("WantedIncomplete = %v", got)
	}
}

func TestExpireDropsState(t *testing.T) {
	n := New(1, false)
	n.SetFrequent([]trace.NodeID{2})
	m := makeMeta(1, "x")
	n.AddMetadata(m, 0.5, 0)
	n.Select(m.URI)
	n.AddPiece(m.URI, 0, 4)
	n.AddQuery("x", m.Expires)
	n.LearnPeerQueries(2, []string{"y"}, m.Expires)

	n.Expire(m.Expires)
	if n.HasMetadata(m.URI) {
		t.Fatal("expired metadata kept")
	}
	if n.Pieces(m.URI) != nil {
		t.Fatal("incomplete pieces of expired file kept")
	}
	if len(n.Queries(m.Expires-1)) != 0 {
		t.Fatal("expired query kept")
	}
	if len(n.PeerQueries(m.Expires-1)) != 0 {
		t.Fatal("expired peer query kept")
	}
}

func TestExpireKeepsCompleteFiles(t *testing.T) {
	n := New(1, false)
	m := makeMeta(1, "x")
	n.AddMetadata(m, 0.5, 0)
	n.Select(m.URI)
	n.GrantFullFile(m.URI, m.NumPieces())
	n.Expire(m.Expires)
	if !n.HasFullFile(m.URI) {
		t.Fatal("completed download dropped at metadata expiry")
	}
}

func TestMetadataStoreSorted(t *testing.T) {
	n := New(1, false)
	n.AddMetadata(makeMeta(2, "b"), 0.5, 0)
	n.AddMetadata(makeMeta(1, "a"), 0.5, 0)
	n.AddMetadata(makeMeta(10, "c"), 0.5, 0)
	store := n.MetadataStore()
	if len(store) != 3 {
		t.Fatalf("store size = %d", len(store))
	}
	for i := 1; i < len(store); i++ {
		if store[i-1].Meta.URI >= store[i].Meta.URI {
			t.Fatalf("store not sorted: %v then %v", store[i-1].Meta.URI, store[i].Meta.URI)
		}
	}
}

func TestPieceSetHaveBounds(t *testing.T) {
	var ps PieceSet
	if ps.Have(0) || ps.Have(-1) {
		t.Fatal("empty piece set claims pieces")
	}
	if ps.Complete() {
		t.Fatal("empty piece set complete")
	}
}
