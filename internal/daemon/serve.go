package daemon

import (
	"hash/fnv"
	"sort"

	"repro/internal/metadata"
	"repro/internal/trace"
)

// The pairwise serving order. Every supplier of a requester computes it
// from the requester's own hello — its ID, its sorted Heard list and
// its have-bitmap — so suppliers agree on who sends what without a
// message between them:
//
//   - the file is enumerated cyclically from an origin derived from the
//     requester (serveOrigin), so a seeder hands different requesters
//     different pieces first and hop-1 nodes end up holding different
//     things to trade;
//   - the requester's missing pieces, in that order, are dealt round-robin
//     to its neighbours by their rank in Heard (shareOf), and a supplier
//     serves its own share first.
//
// Either half alone leaves the duplicates in: without the origin every
// downstream node holds the same prefix and has nothing distinct to
// give, without the shares all neighbours push the same pieces in the
// same beacon interval. Shares are re-dealt from the current bitmap on
// every hello, so a share dealt to a neighbour that does not hold it
// lands on another one next interval. A supplier reaches outside its
// share in two cases only: its own share yields nothing it can send, or
// nobody else fed the requester since its previous hello (fedByOthers
// did not grow) — so a lone holder among k neighbours serves its whole
// budget instead of a k-th of it, and nothing starves.

// serveOrigin is where the cyclic enumeration of uri's pieces starts for
// one requester.
func serveOrigin(requester trace.NodeID, uri metadata.URI, total int) int {
	if total <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(uri))
	z := h.Sum64() ^ uint64(int64(requester))*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(total))
}

// shareOf is self's rank among the k suppliers the requester's sorted
// heard list names. A supplier the list does not name yet (its
// handshake hello predates the table entry) counts itself in at its
// sorted position.
func shareOf(heard []trace.NodeID, self trace.NodeID) (rank, k int) {
	rank = sort.Search(len(heard), func(i int) bool { return heard[i] >= self })
	k = len(heard)
	if rank == k || heard[rank] != self {
		k++
	}
	return rank, k
}

// fedByOthers counts the pieces the requester holds that this node
// never pushed to it. A supplier that sees the count stand still from
// one hello to the next is, for now, the requester's only source.
func fedByOthers(total int, peerHave, pushed func(int) bool) int {
	n := 0
	for i := 0; i < total; i++ {
		if peerHave(i) && !pushed(i) {
			n++
		}
	}
	return n
}

// pickPieces selects up to budget piece indices of a total-piece file
// for one supplier to send in answer to one hello. Pieces are walked
// cyclically from origin; those the requester holds (peerHave) are
// never picked, and the rest — the missing set, numbered j = 0, 1, … in
// walk order — belong to the supplier with rank == j % k. A piece is
// sendable when canServe says this node holds it and recentlySent says
// no push of it is still inside its resend window. The picks are the
// sendable pieces of the supplier's own share, in walk order; when that
// yields none, or when sole says no other supplier is feeding the
// requester, sendable pieces outside the share fill the rest of the
// budget. skippedHeld counts the pieces passed over only because the
// requester already holds them.
func pickPieces(total, origin, rank, k, budget int, sole bool, canServe, peerHave, recentlySent func(int) bool) (picks []int, skippedHeld int) {
	if total <= 0 || budget <= 0 {
		return nil, 0
	}
	if k < 1 {
		k = 1
	}
	var fill []int
	j := 0
	for p := 0; p < total && len(picks) < budget; p++ {
		i := (origin + p) % total
		if peerHave(i) {
			if canServe(i) {
				skippedHeld++
			}
			continue
		}
		own := j%k == rank
		j++
		if !canServe(i) || recentlySent(i) {
			continue
		}
		if own {
			picks = append(picks, i)
		} else if len(fill) < budget {
			fill = append(fill, i)
		}
	}
	if len(picks) == 0 || sole {
		picks = append(picks, fill[:min(len(fill), budget-len(picks))]...)
	}
	return picks, skippedHeld
}
