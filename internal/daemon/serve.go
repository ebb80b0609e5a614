package daemon

import (
	"hash/fnv"
	"time"

	"repro/internal/metadata"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The pairwise serving order. Every supplier of a requester computes it
// from the requester's own hello — its ID, the suppliers it names for the
// file (its wire.Deal; its Heard list when it names none) and its
// have-bitmap — so suppliers agree on who sends what without a message
// between them:
//
//   - the file is enumerated cyclically from an origin derived from the
//     requester (serveOrigin), so a seeder hands different requesters
//     different pieces first and hop-1 nodes end up holding different
//     things to trade;
//   - every piece belongs to one named supplier, the one with the highest
//     rendezvous weight for it (share), and a supplier serves its own
//     pieces first.
//
// Either half alone leaves the duplicates in: without the origin every
// downstream node holds the same prefix and has nothing distinct to
// give, without the shares all neighbours push the same pieces in the
// same beacon interval. Ownership depends on the requester, the file,
// the piece and the list, never on the bitmap: a piece that lands moves
// no other piece, and a list change moves only the pieces of the
// supplier added or removed — so what a supplier has in flight, which no
// bitmap shows yet, stays its own.
//
// The requester names the peers that feed it (Daemon.helloContent): at
// the download's first hello every live peer but those that download the
// file too and never pushed a piece of it; then a peer joins the list
// when it pushes a piece or its hello stops listing the download, leaves
// it when its hello lists the download without it ever having pushed, and
// leaves every list when its last session ends. Every change bumps the
// deal number, and the list rides the acks and beacons already sent. A
// supplier the list does not name counts itself in, one push at a time
// (sentFile.depth).
//
// A supplier deals itself its share once per beat, on the beacon every
// supplier hears, from the current bitmap. It reaches outside its share in
// two cases only, both judged on that dealing hello: its own share yields
// nothing it can send, or nobody else fed the requester since its previous
// deal (fedByOthers did not grow) — so a lone holder among k neighbours
// serves its whole budget instead of a share of it, and nothing starves.
// A hello inside the beat whose deal number differs from the standing
// order's re-cuts the share at once, with neither rule: a re-cut only
// moves pieces between the suppliers the list names.
//
// Between two deals the share is a standing order (sentFile): the
// requester answers every piece it applies with a hello to that one
// supplier, and a hello heard inside the beat continues down the dealt
// share — never a fill — with at most depth pushes unacknowledged at a
// time; a piece of the share the supplier acquires meanwhile goes out the
// moment it is applied.

// mix64 is SplitMix64's finalizer: a bijection that spreads every input
// bit over the output.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fileKey hashes one requester's file, the seed of its origin and shares.
func fileKey(requester trace.NodeID, uri metadata.URI) uint64 {
	h := fnv.New64a()
	h.Write([]byte(uri))
	return h.Sum64() ^ uint64(int64(requester))*0x9e3779b97f4a7c15
}

// serveOrigin is where the cyclic enumeration of uri's pieces starts for
// one requester.
func serveOrigin(requester trace.NodeID, uri metadata.URI, total int) int {
	if total <= 0 {
		return 0
	}
	return int(mix64(fileKey(requester, uri)) % uint64(total))
}

// share is one requester's file cut among the suppliers it names by
// rendezvous (highest-random-weight) hashing: piece i belongs to the
// supplier with the highest weight for it.
type share struct {
	key       uint64
	suppliers []trace.NodeID
	self      trace.NodeID
}

// newShare cuts requester's uri among named, self counted in whether or
// not the list names it. Every honest list is sorted without repeats (a
// hello's Heard, a fileState's deal); one that is not counts for nothing,
// and the share is self's alone — a repeated name must not make a piece
// cost one weight per repeat (mine).
func newShare(requester trace.NodeID, uri metadata.URI, named []trace.NodeID, self trace.NodeID) share {
	for n := 1; n < len(named); n++ {
		if named[n] <= named[n-1] {
			named = nil
			break
		}
	}
	return share{key: fileKey(requester, uri), suppliers: named, self: self}
}

// weight is supplier id's rendezvous weight for piece i. Distinct
// suppliers never tie: both mixes are bijections.
func (s share) weight(i int, id trace.NodeID) uint64 {
	return mix64(s.key ^ mix64(uint64(i)<<32|uint64(uint32(id))))
}

// mine reports whether piece i is this supplier's: no other named
// supplier outweighs it. The walk stops at the first that does, so among
// k suppliers a piece costs about 1 + ln k weights, not k — a hello
// naming thousands of suppliers stays cheap to deal from.
func (s share) mine(i int) bool {
	own := s.weight(i, s.self)
	for _, id := range s.suppliers {
		if id != s.self && s.weight(i, id) > own {
			return false
		}
	}
	return true
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
// never picked, and mine says which of the rest are the supplier's own
// share. A piece is sendable when canServe says this node holds it and
// recentlySent says no push of it is still inside its resend window. The
// picks are the sendable pieces of the supplier's own share, in walk
// order; when that yields none, or when sole says no other supplier is
// feeding the requester, sendable pieces outside the share fill the rest
// of the budget. skippedHeld counts the pieces passed over only because
// the requester already holds them.
func pickPieces(total, origin, budget int, sole bool, mine, canServe, peerHave, recentlySent func(int) bool) (picks []int, skippedHeld int) {
	if total <= 0 || budget <= 0 {
		return nil, 0
	}
	var fill []int
	for p := 0; p < total && len(picks) < budget; p++ {
		i := (origin + p) % total
		if peerHave(i) {
			if canServe(i) {
				skippedHeld++
			}
			continue
		}
		if !canServe(i) || recentlySent(i) {
			continue
		}
		if mine(i) {
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

	// The standing order: the share dealt on the hello heard at dealtAt,
	// cut from the requester's list number no — a bitmap over the file of
	// the pieces that hello's bitmap lacks, walked cyclically from origin —
	// and how many walk positions the cursor has consumed.
	dealtAt time.Time
	no      uint32
	origin  int
	own     wire.GroupWant
	pos     int
	// have is the bitmap of the peer's latest hello (nil: it sent none),
	// named whether that hello names this node among its suppliers.
	have  *wire.GroupWant
	named bool
	// window is the flight window: the pushes younger than a beat that no
	// bitmap has shown held yet, what may still be in the pipe. A push
	// that lapses frees its slot; only the resend deadline sends the piece
	// itself again.
	window sched.Window[int, struct{}]
	// pieceSize is the file's piece length, the unit depth counts
	// flightBytes in.
	pieceSize int
}

func newSentFile(pieceSize int) *sentFile {
	return &sentFile{at: make(map[int]time.Time), pieceSize: pieceSize}
}

func (sf *sentFile) peerHolds(i int) bool { return sf.have != nil && sf.have.HaveBit(i) }

// flightBytes caps the payload bytes a supplier leaves unacknowledged
// with one peer, whatever PiecesPerHello says. A producer faster than the
// link puts the whole window in the peer's data lane at once, and the
// receiver holds it again in its commit queue until the fsync: the
// window's bytes are memory twice over. The cap is a constant over the
// piece size, never a reading of the lane, whose depth goroutine timing
// decides.
const flightBytes = 512 << 10

// depth is how many pushes the order keeps unacknowledged: perHello,
// capped at flightBytes' worth of pieces and never below one; or one while
// the requester does not name this supplier — that push is what names it,
// and the ack answering it carries the list that does.
func (sf *sentFile) depth(perHello int) int {
	if !sf.named {
		return 1
	}
	return max(1, min(perHello, flightBytes/sf.pieceSize))
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

// deal replaces the standing order with the pieces peerHave lacks that
// mine says are this supplier's, cut from list number no. It reports how
// many pieces were left out of the deal only because the requester
// already holds them: canServe says this node could have sent them.
func (sf *sentFile) deal(wall time.Time, total, origin int, no uint32, mine, canServe, peerHave func(int) bool) (skippedHeld int) {
	sf.dealtAt, sf.no, sf.origin, sf.pos = wall, no, origin, 0
	if sf.own.Total == total {
		clear(sf.own.Have)
	} else {
		sf.own = *wire.NewGroupWant("", total, false)
	}
	for i := 0; i < total; i++ {
		switch {
		case peerHave(i):
			if canServe(i) {
				skippedHeld++
			}
		case mine(i):
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
	sf.window.Settle(sf.peerHolds, wall.Add(-beat))
	return len(sf.window) < depth
}

// push records piece i as sent to the peer at wall, reporting whether it
// had been sent before.
func (sf *sentFile) push(i int, wall time.Time) (again bool) {
	_, again = sf.at[i]
	sf.at[i] = wall
	sf.window.Send(i, wall, struct{}{})
	return again
}
