package server

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// TestSafeConcurrentUse hammers one Safe catalog from many goroutines:
// publishers, queriers, piece readers, and popularity recorders all at
// once. Run under -race this is the wrapper's correctness test.
func TestSafeConcurrentUse(t *testing.T) {
	c, err := NewSafe(10)
	if err != nil {
		t.Fatal(err)
	}
	now := simtime.At(0, simtime.FileGenerationOffset)
	seed := publishFiles(t, c, 0, 4, now)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch w % 4 {
				case 0: // publisher
					publishFiles(t, c, 100+w*1000+i, 1, now)
				case 1: // querier + matcher
					for _, m := range c.Query(now, "file story", 5) {
						m.MatchesQuery("file")
					}
					c.Top(now, 3)
				case 2: // piece server: the looked-up clone is what pieces are cut from
					m, err := c.Lookup(seed[0].URI)
					if err != nil {
						t.Error(err)
						return
					}
					if !m.VerifyPiece(0, metadata.SyntheticPiece(m.URI, 0, m.PieceLen(0))) {
						t.Error("piece failed verification")
						return
					}
				case 3: // popularity recorder
					if err := c.RecordRequest(now, seed[0].URI, trace.NodeID(w)); err != nil {
						t.Error(err)
						return
					}
					c.Popularity(now, seed[0].URI)
					c.Expire(now)
					c.Len()
				}
			}
		}()
	}
	wg.Wait()

	if got := c.Len(); got < 4 {
		t.Fatalf("catalog lost records: %d", got)
	}
	if pop := c.Popularity(now, seed[0].URI); pop <= 0 {
		t.Fatalf("popularity = %v, want > 0", pop)
	}
}

func publishFiles(t *testing.T, c *Safe, firstID, n int, now simtime.Time) []*metadata.Metadata {
	t.Helper()
	out := make([]*metadata.Metadata, 0, n)
	for i := 0; i < n; i++ {
		m := metadata.NewSynthetic(metadata.FileID(firstID+i),
			"file story", "pub", "a story file", 300*1024,
			metadata.DefaultPieceSize, now, simtime.Days(3), []byte("k"))
		if err := c.Publish(m); err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestSafeCloneIsolation locks in the clone-under-lock contract: every
// record Safe hands out is a private copy, so callers may mutate it and
// lazily token-cache it (MatchesQuery) while other goroutines look up,
// match, and re-query the same URI. Run under -race, a single shared
// (non-cloned) record would trip both the race detector and the
// pristine-catalog assertions below.
func TestSafeCloneIsolation(t *testing.T) {
	c, err := NewSafe(10)
	if err != nil {
		t.Fatal(err)
	}
	now := simtime.At(0, simtime.FileGenerationOffset)
	seed := publishFiles(t, c, 0, 2, now)
	uri := seed[0].URI

	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch w % 3 {
				case 0: // vandal: mutates its clone in place
					m, err := c.Lookup(uri)
					if err != nil {
						t.Error(err)
						return
					}
					m.Name = "defaced"
					m.Description = "defaced"
					m.MatchesQuery("defaced")
				case 1: // matcher: token-caches query results concurrently
					for _, m := range c.Query(now, "file story", 5) {
						m.MatchesQuery("story")
						m.MatchesQuery("file")
					}
				case 2: // reader: the catalog's copy must stay pristine
					m, err := c.Lookup(uri)
					if err != nil {
						t.Error(err)
						return
					}
					if m.Name != "file story" {
						t.Errorf("catalog record mutated through a clone: %q", m.Name)
						return
					}
					for _, m := range c.Top(now, 3) {
						m.MatchesQuery("story")
					}
				}
			}
		}()
	}
	wg.Wait()

	m, err := c.Lookup(uri)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "file story" || m.Description != "a story file" {
		t.Fatalf("catalog record was mutated through a handed-out clone: %+v", m)
	}
}

// TestSafeQueryLimit exercises per-peer query admission: node A burning
// its bucket must not shed node B, and a second later A is admitted
// again.
func TestSafeQueryLimit(t *testing.T) {
	c, err := NewSafe(10)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(5000, 0)
	c.SetQueryLimit(3, func() time.Time { return clock })
	for i := 0; i < 3; i++ {
		if !c.AllowQuery(1) {
			t.Fatalf("query %d from node 1 denied under limit", i)
		}
	}
	if c.AllowQuery(1) {
		t.Fatal("node 1 allowed past its burst")
	}
	if !c.AllowQuery(2) {
		t.Fatal("node 2 shed by node 1's flood")
	}
	if got := c.QueriesShed(); got != 1 {
		t.Fatalf("QueriesShed = %d, want 1", got)
	}
	clock = clock.Add(time.Second + time.Millisecond)
	if !c.AllowQuery(1) {
		t.Fatal("node 1 still shed a second after its burst")
	}
	// Dropping the limit admits everyone again.
	c.SetQueryLimit(0, nil)
	for i := 0; i < 100; i++ {
		if !c.AllowQuery(1) {
			t.Fatal("unlimited catalog shed a query")
		}
	}
}
