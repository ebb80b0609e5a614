package daemon

import (
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/metadata"
	"repro/internal/trace"
	"repro/internal/wire"
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
// same beacon interval. Shares are re-dealt from the current bitmap once
// per beat, on the beacon every supplier hears, so a share dealt to a
// neighbour that does not hold it lands on another one next interval. A
// supplier reaches outside its share in two cases only, both judged on
// the dealing hello: its own share yields nothing it can send, or nobody
// else fed the requester since its previous deal (fedByOthers did not
// grow) — so a lone holder among k neighbours serves its whole budget
// instead of a k-th of it, and nothing starves.
//
// Between two deals the share is a standing order (sentFile): the
// requester answers every piece it applies with a hello to that one
// supplier, and a hello heard inside the beat continues down the dealt
// share — never a new deal, never a fill — with at most PiecesPerHello
// pushes unacknowledged at a time; a piece of the share the supplier
// acquires meanwhile goes out the moment it is applied. Only suppliers
// that dealt from the same hello have disjoint shares, which is why an
// ack, heard by one of them, must not re-deal.

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

// countMissing counts the pieces the requester lacks. Shares are
// numbered from the far end of the walk: pieces land from its front, the
// order they are sent in, so a deal that finds the front filled in hands
// every remaining piece to the supplier that had it before — and what
// that supplier still has in flight, which no bitmap shows yet, is not
// dealt to a second one. Counted from the front, every landed piece
// would shift the numbering under the pieces behind it.
func countMissing(total int, peerHave func(int) bool) (n int) {
	for i := 0; i < total; i++ {
		if !peerHave(i) {
			n++
		}
	}
	return n
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
// never picked, and the rest — the missing set, each piece numbered j by
// how many missing pieces the walk still has after it — belong to the
// supplier with rank == j % k. A piece is sendable when canServe says
// this node holds it and recentlySent says no push of it is still inside
// its resend window. The picks are the sendable pieces of the supplier's
// own share, in walk order; when that yields none, or when sole says no
// other supplier is feeding the requester, sendable pieces outside the
// share fill the rest of the budget. skippedHeld counts the pieces passed over only because the
// requester already holds them.
func pickPieces(total, origin, rank, k, budget int, sole bool, canServe, peerHave, recentlySent func(int) bool) (picks []int, skippedHeld int) {
	if total <= 0 || budget <= 0 {
		return nil, 0
	}
	if k < 1 {
		k = 1
	}
	var fill []int
	j := countMissing(total, peerHave)
	for p := 0; p < total && len(picks) < budget; p++ {
		i := (origin + p) % total
		if peerHave(i) {
			if canServe(i) {
				skippedHeld++
			}
			continue
		}
		j--
		own := j%k == rank
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

// sentFile is one peer's account for one file it advertises as a
// download: what this daemon pushed it and when, and the standing order
// it is working down for it until the next deal.
type sentFile struct {
	// at is when each piece was last pushed, so a hello does not retrigger
	// the same pieces forever — but a piece older than ResendAfter whose
	// receiver still advertises the download is assumed lost and becomes
	// eligible again.
	at map[int]time.Time
	// others is fedByOthers at the previous deal: the evidence for whether
	// another supplier is feeding the peer.
	others int

	// The standing order: the share dealt on the hello heard at dealtAt —
	// a bitmap over the file, numbered from that hello's bitmap and walked
	// cyclically from origin — and how many walk positions the cursor has
	// consumed.
	dealtAt time.Time
	origin  int
	own     wire.GroupWant
	pos     int
	// have is the bitmap of the peer's latest hello (nil: it sent none).
	have *wire.GroupWant
	// window holds the pushes younger than a beat that no bitmap has shown
	// held yet, oldest first: what may still be in the pipe.
	window []push
}

type push struct {
	index int
	at    time.Time
}

func newSentFile() *sentFile { return &sentFile{at: make(map[int]time.Time)} }

func (sf *sentFile) peerHolds(i int) bool { return sf.have != nil && sf.have.HaveBit(i) }

// settle brings the window up to a hello (or an acquisition) at wall: a
// push leaves it when the peer's bitmap shows the piece held, or when it
// is a beat old — lost or merely late, its slot is free again, and only
// the resend deadline sends the piece itself again. It reports whether
// the bitmap acknowledged any of them.
func (sf *sentFile) settle(wall time.Time, beat time.Duration) (acked bool) {
	kept := sf.window[:0]
	for _, p := range sf.window {
		switch {
		case sf.peerHolds(p.index):
			acked = true
		case wall.Sub(p.at) < beat:
			kept = append(kept, p)
		}
	}
	sf.window = kept
	return acked
}

// standing reports whether the deal still stands at wall.
func (sf *sentFile) standing(wall time.Time, beat time.Duration) bool {
	return !sf.dealtAt.IsZero() && wall.Sub(sf.dealtAt) < beat
}

// opensBeat reports whether a hello heard age after the standing deal is
// the next beacon, to deal from, or an acknowledgement inside the beat,
// to continue on. The two are one frame, so the beat decides — with a
// quarter of it as slack on the early side, where a beacon lands whose
// predecessor was delayed longer than it was, for a hello that
// acknowledges nothing: an ack always does, it answers a piece this node
// pushed. Without the slack about every other beacon reads as an ack;
// its supplier then deals a beat late, or from the next ack — alone, on a
// bitmap no other supplier saw — and a 32-node swarm takes half again as
// long (EXPERIMENTS.md "The hello is also the ack").
func opensBeat(age, beat time.Duration, acked bool) bool {
	return age >= beat || (!acked && age >= beat-beat/4)
}

// deal replaces the standing order with supplier rank's share (of k) of
// the pieces peerHave lacks, numbered the way pickPieces numbers them. It
// reports how many pieces were left out of the deal only because the
// requester already holds them: canServe says this node could have sent
// them.
func (sf *sentFile) deal(wall time.Time, total, origin, rank, k int, canServe, peerHave func(int) bool) (skippedHeld int) {
	sf.dealtAt, sf.origin, sf.pos = wall, origin, 0
	if sf.own.Total == total {
		clear(sf.own.Have)
	} else {
		sf.own = *wire.NewGroupWant("", total, false)
	}
	k = max(k, 1)
	j := countMissing(total, peerHave)
	for p := 0; p < total; p++ {
		i := (origin + p) % total
		if peerHave(i) {
			if canServe(i) {
				skippedHeld++
			}
			continue
		}
		j--
		if j%k == rank {
			sf.own.SetHave(i)
		}
	}
	return skippedHeld
}

func (sf *sentFile) inShare(i int) bool { return sf.own.HaveBit(i) }

// advance moves the cursor on through the standing share and returns up
// to budget of its pieces that are sendable now. What it passes over is
// not revisited before the next deal: a piece already pushed is the
// resend deadline's, one this node does not hold yet is takes'.
func (sf *sentFile) advance(total, budget int, sendable func(int) bool) (picks []int) {
	for ; sf.pos < total && len(picks) < budget; sf.pos++ {
		if i := (sf.origin + sf.pos) % total; sf.inShare(i) && sendable(i) {
			picks = append(picks, i)
		}
	}
	return picks
}

// takes reports whether piece i, acquired by this node at wall, goes to
// the peer at once: the deal still stands, the piece is in its share, the
// peer's last bitmap lacks it, it was never pushed, and fewer than depth
// pushes are in the pipe.
func (sf *sentFile) takes(i int, wall time.Time, beat time.Duration, depth int) bool {
	if !sf.standing(wall, beat) || !sf.inShare(i) || sf.peerHolds(i) {
		return false
	}
	if _, pushed := sf.at[i]; pushed {
		return false
	}
	sf.settle(wall, beat)
	return len(sf.window) < depth
}

// push records piece i as sent to the peer at wall, reporting whether it
// had been sent before.
func (sf *sentFile) push(i int, wall time.Time) (again bool) {
	_, again = sf.at[i]
	sf.at[i] = wall
	sf.window = append(sf.window, push{i, wall})
	return again
}
