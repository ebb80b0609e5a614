package server

import (
	"errors"
	"testing"

	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/trace"
)

var key = []byte("k")

func makeMeta(id metadata.FileID, name string, created simtime.Time) *metadata.Metadata {
	return metadata.NewSynthetic(id, name, "FOX", "desc for "+name,
		1024, 256, created, simtime.Days(3), key)
}

func newServer(t *testing.T, n int) *Server {
	t.Helper()
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsNonPositive(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) accepted")
	}
	if _, err := New(-3); err == nil {
		t.Fatal("New(-3) accepted")
	}
}

func TestPublishAndLookup(t *testing.T) {
	s := newServer(t, 10)
	m := makeMeta(1, "alpha show", 0)
	if err := s.Publish(m); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	got, err := s.Lookup(m.URI)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "alpha show" {
		t.Fatalf("Lookup = %+v", got)
	}
	if _, err := s.Lookup("dtn://files/404"); !errors.Is(err, ErrUnknownURI) {
		t.Fatalf("Lookup unknown = %v", err)
	}
}

func TestPublishRejectsInvalid(t *testing.T) {
	s := newServer(t, 10)
	m := makeMeta(1, "x", 0)
	m.Size = 0
	if err := s.Publish(m); err == nil {
		t.Fatal("invalid metadata published")
	}
}

func TestPublishClonesInput(t *testing.T) {
	s := newServer(t, 10)
	m := makeMeta(1, "x", 0)
	if err := s.Publish(m); err != nil {
		t.Fatal(err)
	}
	m.Name = "mutated"
	got, _ := s.Lookup(m.URI)
	if got.Name == "mutated" {
		t.Fatal("server shares caller's metadata")
	}
}

func TestRepublishReplaces(t *testing.T) {
	s := newServer(t, 10)
	m := makeMeta(1, "first name", 0)
	if err := s.Publish(m); err != nil {
		t.Fatal(err)
	}
	m2 := makeMeta(1, "second name", 0)
	if err := s.Publish(m2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after republish", s.Len())
	}
	if res := s.Query(0, "first", -1); len(res) != 0 {
		t.Fatalf("stale index entry: %v", res)
	}
	if res := s.Query(0, "second", -1); len(res) != 1 {
		t.Fatalf("replacement not searchable: %v", res)
	}
}

func TestQueryRanking(t *testing.T) {
	s := newServer(t, 10)
	for i, name := range []string{"jazz night live", "jazz records", "rock concert"} {
		if err := s.Publish(makeMeta(metadata.FileID(i), name, 0)); err != nil {
			t.Fatal(err)
		}
	}
	res := s.Query(0, "jazz live", -1)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].Name != "jazz night live" {
		t.Fatalf("top result = %q", res[0].Name)
	}
	if got := s.Query(0, "jazz live", 1); len(got) != 1 {
		t.Fatalf("limit ignored: %d results", len(got))
	}
	if got := s.Query(0, "opera", -1); got != nil {
		t.Fatalf("no-match query returned %v", got)
	}
}

func TestQueryExcludesExpired(t *testing.T) {
	s := newServer(t, 10)
	if err := s.Publish(makeMeta(1, "jazz", 0)); err != nil {
		t.Fatal(err)
	}
	after := simtime.Time(simtime.Days(3)) + 1
	if res := s.Query(after, "jazz", -1); len(res) != 0 {
		t.Fatalf("expired metadata returned: %v", res)
	}
}

func TestPopularityWindow(t *testing.T) {
	s := newServer(t, 10)
	m := makeMeta(1, "x", 0)
	if err := s.Publish(m); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRequest(0, m.URI, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRequest(0, m.URI, 4); err != nil {
		t.Fatal(err)
	}
	if got := s.Popularity(simtime.Time(simtime.Hour), m.URI); got != 0.2 {
		t.Fatalf("popularity = %v, want 0.2", got)
	}
	// A node requesting twice counts once.
	if err := s.RecordRequest(0, m.URI, 3); err != nil {
		t.Fatal(err)
	}
	if got := s.Popularity(simtime.Time(simtime.Hour), m.URI); got != 0.2 {
		t.Fatalf("duplicate requester inflated popularity: %v", got)
	}
	// After the 24h window, requests expire.
	if got := s.Popularity(simtime.Time(25*simtime.Hour), m.URI); got != 0 {
		t.Fatalf("popularity after window = %v, want 0", got)
	}
}

func TestPopularityUnknownURI(t *testing.T) {
	s := newServer(t, 10)
	if got := s.Popularity(0, "dtn://files/404"); got != 0 {
		t.Fatalf("popularity of unknown = %v", got)
	}
	if err := s.RecordRequest(0, "dtn://files/404", 1); !errors.Is(err, ErrUnknownURI) {
		t.Fatalf("RecordRequest unknown = %v", err)
	}
}

func TestPopularitySlidingWindowPartial(t *testing.T) {
	s := newServer(t, 10)
	m := makeMeta(1, "x", 0)
	if err := s.Publish(m); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordRequest(0, m.URI, 1); err != nil {
		t.Fatal(err)
	}
	mid := simtime.Time(12 * simtime.Hour)
	if err := s.RecordRequest(mid, m.URI, 2); err != nil {
		t.Fatal(err)
	}
	// At t=25h, the t=0 request has expired but the t=12h one remains.
	if got := s.Popularity(simtime.Time(25*simtime.Hour), m.URI); got != 0.1 {
		t.Fatalf("popularity = %v, want 0.1", got)
	}
}

func TestExpire(t *testing.T) {
	s := newServer(t, 10)
	if err := s.Publish(makeMeta(1, "old", 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(makeMeta(2, "new", simtime.Time(simtime.Days(2)))); err != nil {
		t.Fatal(err)
	}
	removed := s.Expire(simtime.Time(simtime.Days(4)))
	if removed != 1 || s.Len() != 1 {
		t.Fatalf("Expire removed %d, Len %d", removed, s.Len())
	}
	if _, err := s.Lookup("dtn://files/1"); err == nil {
		t.Fatal("expired entry still present")
	}
}

func TestTopByPopularity(t *testing.T) {
	s := newServer(t, 10)
	a, b := makeMeta(1, "a", 0), makeMeta(2, "b", 0)
	if err := s.Publish(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(b); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3} {
		if err := s.RecordRequest(0, b.URI, int2node(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RecordRequest(0, a.URI, 1); err != nil {
		t.Fatal(err)
	}
	top := s.Top(simtime.Time(simtime.Hour), -1)
	if len(top) != 2 || top[0].URI != b.URI {
		t.Fatalf("Top = %v", top)
	}
	if got := s.Top(simtime.Time(simtime.Hour), 1); len(got) != 1 {
		t.Fatalf("Top limit ignored: %d", len(got))
	}
	if got := s.Top(simtime.Time(simtime.Days(10)), -1); got != nil {
		t.Fatalf("Top returned expired entries: %v", got)
	}
}

func int2node(n int) trace.NodeID { return trace.NodeID(n) }
