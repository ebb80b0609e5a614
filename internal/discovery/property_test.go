package discovery

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/metadata"
	"repro/internal/node"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// randomMembers builds a random clique state: nodes with random stores,
// queries, frequent-contact caches and free-rider flags.
func randomMembers(r *rng.Rand) ([]*node.Node, []*metadata.Metadata) {
	catalogSize := 3 + r.Intn(10)
	catalog := make([]*metadata.Metadata, catalogSize)
	for i := range catalog {
		catalog[i] = metadata.NewSynthetic(metadata.FileID(i),
			fmt.Sprintf("f%d show", i), "FOX", "d", 1024, 256,
			0, simtime.Days(3), []byte("k"))
	}
	n := 2 + r.Intn(5)
	members := make([]*node.Node, n)
	for i := range members {
		m := node.New(trace.NodeID(i), false)
		m.FreeRider = r.Bool(0.2)
		for _, md := range catalog {
			if r.Bool(0.4) {
				m.AddMetadata(md, r.Float64(), 0)
			}
		}
		for j := 0; j < r.Intn(3); j++ {
			m.AddQuery(fmt.Sprintf("f%d", r.Intn(catalogSize)), simtime.Time(simtime.Days(3)))
		}
		members[i] = m
	}
	return members, catalog
}

func storeSizes(members []*node.Node) []int {
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = len(m.MetadataStore())
	}
	return out
}

func TestExchangeInvariants(t *testing.T) {
	f := func(seed uint64, budgetRaw uint8, tft bool) bool {
		r := rng.New(seed)
		members, _ := randomMembers(r)
		budget := int(budgetRaw%8) + 1
		before := storeSizes(members)

		events := Exchange(0, members, Config{
			Budget:    budget,
			TitForTat: tft,
		})

		// Budget respected.
		if len(events) > budget {
			return false
		}
		after := storeSizes(members)
		totalNew := 0
		for _, ev := range events {
			// Free-riders never send.
			for _, m := range members {
				if m.ID == ev.Sender && m.FreeRider {
					return false
				}
			}
			// Every new receiver actually holds the record now.
			for _, id := range ev.NewReceivers {
				if !members[id].HasMetadata(ev.Meta.URI) {
					return false
				}
			}
			// MatchedOwn is a subset of NewReceivers.
			set := make(map[trace.NodeID]bool)
			for _, id := range ev.NewReceivers {
				set[id] = true
			}
			for _, id := range ev.MatchedOwn {
				if !set[id] {
					return false
				}
			}
			totalNew += len(ev.NewReceivers)
		}
		// Stores only grow, by exactly the reported receipts.
		grown := 0
		for i := range members {
			if after[i] < before[i] {
				return false
			}
			grown += after[i] - before[i]
		}
		return grown == totalNew
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeIdempotentWhenSaturated(t *testing.T) {
	// After enough budget, a second exchange moves nothing.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		members, _ := randomMembers(r)
		for _, m := range members {
			m.FreeRider = false // full cooperation saturates the clique
		}
		Exchange(0, members, Config{Budget: 1000})
		again := Exchange(0, members, Config{Budget: 1000})
		return len(again) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestExchangeLossNeverIncreasesDelivery: loss only ever removes
// receipts. The budget must not bind for this to be a theorem — a
// broadcast nobody decodes is not charged, so under a tight budget the
// lossy run reaches further down the order and can out-deliver the
// clean one.
func TestExchangeLossNeverIncreasesDelivery(t *testing.T) {
	f := func(seed uint64) bool {
		build := func() []*node.Node {
			members, _ := randomMembers(rng.New(seed))
			return members
		}
		clean := build()
		cleanEvents := Exchange(0, clean, Config{Budget: 10000})
		lossy := build()
		lossyEvents := Exchange(0, lossy, Config{
			Budget: 10000,
			Loss:   0.7,
			Rng:    rng.New(seed + 1),
		})
		countReceipts := func(evs []Event) int {
			total := 0
			for _, ev := range evs {
				total += len(ev.NewReceivers)
			}
			return total
		}
		return countReceipts(lossyEvents) <= countReceipts(cleanEvents)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalLossDeliversNothing(t *testing.T) {
	r := rng.New(42)
	members, _ := randomMembers(r)
	events := Exchange(0, members, Config{
		Budget: 10,
		Loss:   1,
		Rng:    rng.New(1),
	})
	for _, ev := range events {
		if len(ev.NewReceivers) != 0 {
			t.Fatalf("receivers under total loss: %+v", ev)
		}
	}
}
