package download

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

// randomDownloadState builds a clique with random piece holdings and
// wants over a small catalog.
func randomDownloadState(r *rng.Rand) []*node.Node {
	catalogSize := 2 + r.Intn(5)
	catalog := make([]*metadata.Metadata, catalogSize)
	for i := range catalog {
		catalog[i] = metadata.NewSynthetic(metadata.FileID(i),
			fmt.Sprintf("f%d show", i), "FOX", "d", 1024, 256,
			0, simtime.Days(3), []byte("k"))
	}
	n := 2 + r.Intn(4)
	members := make([]*node.Node, n)
	for i := range members {
		m := node.New(trace.NodeID(i), false)
		m.FreeRider = r.Bool(0.2)
		for _, md := range catalog {
			switch r.Intn(4) {
			case 0: // full holder
				m.AddMetadata(md, r.Float64(), 0)
				m.GrantFullFile(md.URI, md.NumPieces())
			case 1: // wanter
				m.AddMetadata(md, r.Float64(), 0)
				m.Select(md.URI)
			case 2: // partial cache
				m.AddPiece(md.URI, r.Intn(md.NumPieces()), md.NumPieces())
			}
		}
		members[i] = m
	}
	return members
}

func pieceCounts(members []*node.Node) map[string]int {
	out := make(map[string]int)
	for _, m := range members {
		for _, uri := range m.PieceURIs() {
			out[fmt.Sprintf("%d/%s", m.ID, uri)] = m.Pieces(uri).Count()
		}
	}
	return out
}

func TestDownloadInvariants(t *testing.T) {
	f := func(seed uint64, budgetRaw uint8, tft bool) bool {
		r := rng.New(seed)
		members := randomDownloadState(r)
		budget := int(budgetRaw%10) + 1
		before := pieceCounts(members)

		events := Exchange(0, members, Config{
			PieceBudget: budget,
			TitForTat:   tft,
		})
		if len(events) > budget {
			return false
		}
		for _, ev := range events {
			for _, m := range members {
				if m.ID == ev.Sender {
					if m.FreeRider {
						return false
					}
					// A sender must hold what it sends (the sender never
					// appears in its own lackers, so its piece set
					// contained the piece before and after).
					ps := m.Pieces(ev.URI)
					if ps == nil || !ps.Have(ev.Piece) {
						return false
					}
				}
			}
			for _, id := range ev.NewReceivers {
				ps := members[id].Pieces(ev.URI)
				if ps == nil || !ps.Have(ev.Piece) {
					return false
				}
			}
			for _, id := range ev.Completed {
				if !members[id].HasFullFile(ev.URI) {
					return false
				}
			}
		}
		// Piece counts never shrink.
		after := pieceCounts(members)
		for k, v := range before {
			if after[k] < v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDownloadSaturates(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		members := randomDownloadState(r)
		for _, m := range members {
			m.FreeRider = false
		}
		Exchange(0, members, Config{PieceBudget: 10000})
		again := Exchange(0, members, Config{PieceBudget: 10000})
		return len(again) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDownloadLossMonotone: loss only ever removes receipts. The budget
// must not bind for this to be a theorem — a broadcast nobody decodes is
// not charged, so under a tight budget the lossy run reaches further
// down the order and can out-deliver the clean one.
func TestDownloadLossMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		count := func(loss float64) int {
			members := randomDownloadState(rng.New(seed))
			events := Exchange(0, members, Config{
				PieceBudget: 10000,
				Loss:        loss,
				Rng:         rng.New(seed + 7),
			})
			total := 0
			for _, ev := range events {
				total += len(ev.NewReceivers)
			}
			return total
		}
		return count(0.8) <= count(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
