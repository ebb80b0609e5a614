package dht

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/wire"
)

func testMeta(id int, pop float64) wire.Metadata {
	rec := metadata.NewSynthetic(metadata.FileID(id), fmt.Sprintf("f%d synthetic file", id),
		"pub", "desc", 16*1024, 1024,
		simtime.At(0, simtime.FileGenerationOffset), simtime.Days(3), []byte("k"))
	return wire.Metadata{Popularity: pop, Record: *rec}
}

func TestStorePutGet(t *testing.T) {
	s := NewStore(10)
	now := time.Unix(1000, 0)
	key := KeywordKey("jazz")
	s.Put(key, "jazz", testMeta(1, 0.5), now.Add(time.Minute), now)
	vals := s.Get(key, now)
	if len(vals) != 1 || vals[0].Keyword != "jazz" {
		t.Fatalf("Get = %+v, want one jazz record", vals)
	}
	want := now.Add(time.Minute).UnixMilli()
	if vals[0].ExpiresUnixMilli != want {
		t.Fatalf("expiry = %d, want %d", vals[0].ExpiresUnixMilli, want)
	}
	// Half the lifetime later the stamp reads the same: it is absolute.
	vals = s.Get(key, now.Add(30*time.Second))
	if len(vals) != 1 || vals[0].ExpiresUnixMilli != want {
		t.Fatalf("Get at +30s = %+v, want the stamp unchanged", vals)
	}
	// Past expiry the record is gone from reads and from Sweep.
	if vals = s.Get(key, now.Add(2*time.Minute)); len(vals) != 0 {
		t.Fatalf("expired record still served: %+v", vals)
	}
	if n := s.Sweep(now.Add(2 * time.Minute)); n != 1 {
		t.Fatalf("Sweep removed %d, want 1", n)
	}
	if s.Len() != 0 {
		t.Fatalf("store length %d after sweep, want 0", s.Len())
	}
}

func TestStoreReplaceSameURI(t *testing.T) {
	s := NewStore(10)
	now := time.Unix(1000, 0)
	key := KeywordKey("jazz")
	s.Put(key, "jazz", testMeta(1, 0.2), now.Add(time.Minute), now)
	s.Put(key, "jazz", testMeta(1, 0.9), now.Add(time.Second).Add(time.Minute), now.Add(time.Second))
	if s.Len() != 1 {
		t.Fatalf("store length %d, want 1 (same URI replaces)", s.Len())
	}
	vals := s.Get(key, now.Add(2*time.Second))
	if len(vals) != 1 || vals[0].Meta.Popularity != 0.9 {
		t.Fatalf("Get = %+v, want replaced popularity 0.9", vals)
	}
}

// TestStorePutStamps: the later of two stamps for one record survives —
// a republish moves the expiry forward, a late older store cannot pull
// it back — and a stamp already past never enters, so nothing revives a
// record after its time.
func TestStorePutStamps(t *testing.T) {
	s := NewStore(10)
	now := time.Unix(1000, 0)
	key := KeywordKey("jazz")
	first, second := now.Add(time.Minute), now.Add(2*time.Minute)
	expiry := func(at time.Time) int64 {
		t.Helper()
		vals := s.Get(key, at)
		if len(vals) != 1 {
			t.Fatalf("Get at %v returned %d records, want 1", at, len(vals))
		}
		return vals[0].ExpiresUnixMilli
	}
	s.Put(key, "jazz", testMeta(1, 0.5), first, now)
	s.Put(key, "jazz", testMeta(1, 0.5), second, now.Add(30*time.Second)) // republish
	if got := expiry(now.Add(30 * time.Second)); got != second.UnixMilli() {
		t.Fatalf("republish left expiry %d, want %d", got, second.UnixMilli())
	}
	s.Put(key, "jazz", testMeta(1, 0.5), first, now.Add(40*time.Second)) // the first store, duplicated late
	if got := expiry(now.Add(40 * time.Second)); got != second.UnixMilli() {
		t.Fatalf("late duplicate moved expiry to %d, want %d", got, second.UnixMilli())
	}
	// Past the last stamp both old stores are dead on arrival, swept or not.
	late := now.Add(3 * time.Minute)
	s.Put(key, "jazz", testMeta(1, 0.5), second, late)
	if vals := s.Get(key, late); len(vals) != 0 {
		t.Fatalf("late store revived an expired record: %+v", vals)
	}
	s.Sweep(late)
	s.Put(key, "jazz", testMeta(1, 0.5), second, late)
	if s.Len() != 0 {
		t.Fatalf("late store entered an empty store: length %d", s.Len())
	}
}

// TestStorePopularityEviction: capacity pressure evicts the least
// popular record, whatever key it lives under.
func TestStorePopularityEviction(t *testing.T) {
	s := NewStore(3)
	now := time.Unix(1000, 0)
	pops := []float64{0.5, 0.1, 0.9}
	for i, p := range pops {
		s.Put(KeywordKey(fmt.Sprintf("w%d", i)), fmt.Sprintf("w%d", i),
			testMeta(i, p), now.Add(time.Minute), now)
	}
	// A fourth record evicts the 0.1 one.
	s.Put(KeywordKey("w3"), "w3", testMeta(3, 0.4), now.Add(time.Minute), now)
	if s.Len() != 3 {
		t.Fatalf("store length %d, want 3", s.Len())
	}
	if got := s.Get(KeywordKey("w1"), now); len(got) != 0 {
		t.Fatalf("least popular record survived eviction: %+v", got)
	}
	for _, w := range []string{"w0", "w2", "w3"} {
		if got := s.Get(KeywordKey(w), now); len(got) != 1 {
			t.Fatalf("record %s missing after eviction", w)
		}
	}
	if s.Evicted() != 1 {
		t.Fatalf("Evicted = %d, want 1", s.Evicted())
	}
}

// TestStoreEvictionTieBreaksOldest: equal popularity evicts the record
// stored longest ago.
func TestStoreEvictionTieBreaksOldest(t *testing.T) {
	s := NewStore(2)
	now := time.Unix(1000, 0)
	s.Put(KeywordKey("a"), "a", testMeta(1, 0.5), now.Add(time.Minute), now)
	s.Put(KeywordKey("b"), "b", testMeta(2, 0.5), now.Add(time.Second).Add(time.Minute), now.Add(time.Second))
	s.Put(KeywordKey("c"), "c", testMeta(3, 0.5), now.Add(2*time.Second).Add(time.Minute), now.Add(2*time.Second))
	if got := s.Get(KeywordKey("a"), now.Add(3*time.Second)); len(got) != 0 {
		t.Fatal("oldest equal-popularity record survived")
	}
	if got := s.Get(KeywordKey("b"), now.Add(3*time.Second)); len(got) != 1 {
		t.Fatal("newer record evicted on tie")
	}
}

// TestStoreGetOrdersByPopularity: multiple records under one key come
// back most popular first.
func TestStoreGetOrdersByPopularity(t *testing.T) {
	s := NewStore(10)
	now := time.Unix(1000, 0)
	key := KeywordKey("news")
	for i, p := range []float64{0.3, 0.8, 0.5} {
		s.Put(key, "news", testMeta(i, p), now.Add(time.Minute), now)
	}
	vals := s.Get(key, now)
	if len(vals) != 3 {
		t.Fatalf("Get returned %d records, want 3", len(vals))
	}
	if vals[0].Meta.Popularity != 0.8 || vals[1].Meta.Popularity != 0.5 ||
		vals[2].Meta.Popularity != 0.3 {
		t.Fatalf("Get order %v %v %v, want descending popularity",
			vals[0].Meta.Popularity, vals[1].Meta.Popularity, vals[2].Meta.Popularity)
	}
}
