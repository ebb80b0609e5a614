package dht

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/trace"
)

// BenchmarkTableObserve measures k-bucket maintenance under a stream of
// contact sightings (the hot path: every inbound DHT message observes
// its sender).
func BenchmarkTableObserve(b *testing.B) {
	tab := NewTable(0, 16)
	contacts := make([]Contact, 1024)
	for i := range contacts {
		contacts[i] = contact(i + 1)
	}
	for _, c := range contacts {
		tab.Observe(c) // pre-warm the key memo and the buckets
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Observe(contacts[i%len(contacts)])
	}
}

// BenchmarkTableClosest measures the closest-K scan that opens every
// lookup and answers every FindNode.
func BenchmarkTableClosest(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("contacts=%d", n), func(b *testing.B) {
			tab := NewTable(0, 16)
			for i := 1; i <= n; i++ {
				tab.Observe(contact(i))
			}
			targets := make([]Key, 64)
			for i := range targets {
				targets[i] = KeywordKey(fmt.Sprintf("t%d", i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Closest(targets[i%len(targets)], 16)
			}
		})
	}
}

// BenchmarkLookup measures a full iterative lookup across an in-memory
// mesh — RPC correlation, shortlist maintenance, and codec round-trips
// included.
func BenchmarkLookup(b *testing.B) {
	m := newMesh()
	var ids []trace.NodeID
	for i := 1; i <= 32; i++ {
		ids = append(ids, trace.NodeID(i))
		m.add(trace.NodeID(i), 8, 3, 256)
	}
	m.bootstrap(ids, 1)
	e := m.get(ids[len(ids)-1])
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Lookup(ctx, KeywordKey(fmt.Sprintf("bench-%d", i)), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePut measures record-cache insertion with eviction
// pressure (cache capacity half the inserted set).
func BenchmarkStorePut(b *testing.B) {
	s := NewStore(512)
	now := time.Unix(1000, 0)
	metas := make([]struct {
		key Key
		m   int
	}, 1024)
	for i := range metas {
		metas[i].key = KeywordKey(fmt.Sprintf("w%d", i))
		metas[i].m = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := metas[i%len(metas)]
		s.Put(e.key, "w", testMeta(e.m, float64(i%100)/100), now.Add(time.Minute), now)
	}
}
