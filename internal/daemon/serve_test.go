package daemon

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/rng"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
)

func always(int) bool { return true }
func never(int) bool  { return false }

// randomBitmap marks each of total pieces held with probability p.
func randomBitmap(r *rng.Rand, total int, p float64) []bool {
	have := make([]bool, total)
	for i := range have {
		have[i] = r.Bool(p)
	}
	return have
}

// randomSuppliers draws k distinct supplier IDs, sorted.
func randomSuppliers(r *rng.Rand, k int) []trace.NodeID {
	var ids []trace.NodeID
	for len(ids) < k {
		if id := trace.NodeID(r.Intn(64)); !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// randomFile draws a requester and a file to cut shares of.
func randomFile(r *rng.Rand) (trace.NodeID, metadata.URI) {
	return trace.NodeID(100 + r.Intn(1000)), metadata.URIFor(metadata.FileID(r.Intn(50)))
}

// dealOwners deals every supplier in named its share of the pieces have
// lacks and returns each piece's dealt owner (-1: none). It fails the
// test when two suppliers are dealt the same piece.
func dealOwners(t *testing.T, requester trace.NodeID, uri metadata.URI, named []trace.NodeID, total int, have []bool) []trace.NodeID {
	t.Helper()
	owner := make([]trace.NodeID, total)
	for i := range owner {
		owner[i] = -1
	}
	for _, self := range named {
		for _, i := range dealt(total, 0, newShare(requester, uri, named, self).mine, func(i int) bool { return have[i] }) {
			if owner[i] != -1 {
				t.Fatalf("piece %d dealt to both %d and %d of %v", i, owner[i], self, named)
			}
			owner[i] = self
		}
	}
	return owner
}

// TestShareDisjointCover: over random lists and bitmaps, the shares dealt
// to the suppliers a requester names are pairwise disjoint (dealOwners fails
// otherwise) and together cover exactly the pieces it lacks.
func TestShareDisjointCover(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 1000; trial++ {
		total := 1 + r.Intn(200)
		requester, uri := randomFile(r)
		named := randomSuppliers(r, 1+r.Intn(10))
		have := randomBitmap(r, total, r.Float64())
		for i, o := range dealOwners(t, requester, uri, named, total, have) {
			if have[i] == (o != -1) {
				t.Fatalf("trial %d: piece %d held %v, dealt to %d", trial, i, have[i], o)
			}
		}
	}
}

// TestShareIgnoresTheBitmap: whatever lands between two deals, anywhere
// in the file, every piece still missing keeps its owner — what a
// supplier has in flight is never dealt to a second one.
func TestShareIgnoresTheBitmap(t *testing.T) {
	r := rng.New(43)
	for trial := 0; trial < 1000; trial++ {
		total := 1 + r.Intn(200)
		requester, uri := randomFile(r)
		named := randomSuppliers(r, 1+r.Intn(10))
		have := randomBitmap(r, total, 0.5*r.Float64())
		before := dealOwners(t, requester, uri, named, total, have)
		landed := r.Float64()
		for i := range have {
			have[i] = have[i] || r.Bool(landed)
		}
		for i, o := range dealOwners(t, requester, uri, named, total, have) {
			if !have[i] && o != before[i] {
				t.Fatalf("trial %d: a landing moved piece %d from %d to %d", trial, i, before[i], o)
			}
		}
	}
}

// TestShareMovesOnlyTheChangedSupplier: adding a supplier to the list
// moves pieces to it and nowhere else, and removing one moves only its
// own pieces.
func TestShareMovesOnlyTheChangedSupplier(t *testing.T) {
	r := rng.New(47)
	for trial := 0; trial < 1000; trial++ {
		total := 1 + r.Intn(200)
		requester, uri := randomFile(r)
		bigger := randomSuppliers(r, 2+r.Intn(10))
		changed := bigger[r.Intn(len(bigger))]
		smaller := slices.DeleteFunc(slices.Clone(bigger), func(id trace.NodeID) bool { return id == changed })
		have := randomBitmap(r, total, r.Float64())
		without := dealOwners(t, requester, uri, smaller, total, have)
		with := dealOwners(t, requester, uri, bigger, total, have)
		for i := range with {
			if with[i] != without[i] && with[i] != changed {
				t.Fatalf("trial %d: %d joining %v moved piece %d from %d to %d", trial, changed, smaller, i, without[i], with[i])
			}
		}
	}
}

// TestPickPiecesDisjointCover is the rule's core property: when every
// one of a requester's suppliers holds the whole file, the picks of one
// hello round never name a piece the requester holds; a supplier whose
// share holds a missing piece picks only its own, min(share, budget) of
// them, so those suppliers never overlap; and only a supplier whose share
// is empty fills. With a budget no smaller than the largest share the
// round covers the missing set.
func TestPickPiecesDisjointCover(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 2000; trial++ {
		total := 1 + r.Intn(200)
		budget := 1 + r.Intn(20)
		origin := r.Intn(total)
		requester, uri := randomFile(r)
		named := randomSuppliers(r, 1+r.Intn(12))
		have := randomBitmap(r, total, r.Float64())
		held := func(i int) bool { return have[i] }
		missing := 0
		for _, h := range have {
			if !h {
				missing++
			}
		}

		owners := make(map[int]int) // piece → picks by suppliers with a share
		union := make(map[int]bool)
		largest := 0
		for _, self := range named {
			sh := newShare(requester, uri, named, self)
			share := 0
			for i := range have {
				if !have[i] && sh.mine(i) {
					share++
				}
			}
			largest = max(largest, share)
			picks, skipped := pickPieces(total, origin, budget, false, sh.mine, always, held, never)
			if len(picks) > budget {
				t.Fatalf("trial %d: %d picked %d > budget %d", trial, self, len(picks), budget)
			}
			if len(picks) < budget && skipped != total-missing {
				t.Fatalf("trial %d: full walk skipped %d held pieces, want %d", trial, skipped, total-missing)
			}
			if share > 0 && len(picks) != min(share, budget) {
				t.Fatalf("trial %d: %d picked %d of a %d-piece share on a budget of %d", trial, self, len(picks), share, budget)
			}
			seen := make(map[int]bool)
			for _, i := range picks {
				if have[i] {
					t.Fatalf("trial %d: %d picked held piece %d", trial, self, i)
				}
				if seen[i] {
					t.Fatalf("trial %d: %d picked piece %d twice", trial, self, i)
				}
				seen[i] = true
				union[i] = true
				if share > 0 {
					if !sh.mine(i) {
						t.Fatalf("trial %d: %d filled with piece %d beside a non-empty share", trial, self, i)
					}
					owners[i]++
				}
			}
		}
		for i, n := range owners {
			if n > 1 {
				t.Fatalf("trial %d (total %d suppliers %v budget %d missing %d): piece %d picked by %d share owners",
					trial, total, named, budget, missing, i, n)
			}
		}
		if budget >= largest && len(union) != missing {
			t.Fatalf("trial %d (total %d suppliers %v budget %d missing %d): round covers %d pieces, want all",
				trial, total, named, budget, missing, len(union))
		}
	}
}

// TestPickPiecesGates: whatever the share, a pick is never a piece the
// requester holds, one this node cannot serve, or one still inside its
// resend window — and only held-and-servable pieces count as skipped.
func TestPickPiecesGates(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 2000; trial++ {
		total := 1 + r.Intn(120)
		budget := 1 + r.Intn(10)
		have := randomBitmap(r, total, r.Float64())
		mine := randomBitmap(r, total, r.Float64())
		own := randomBitmap(r, total, r.Float64())
		recent := randomBitmap(r, total, r.Float64())
		picks, skipped := pickPieces(total, r.Intn(total), budget, r.Bool(0.5),
			func(i int) bool { return own[i] },
			func(i int) bool { return mine[i] },
			func(i int) bool { return have[i] },
			func(i int) bool { return recent[i] })
		sendable, heldServable := 0, 0
		for i := 0; i < total; i++ {
			if !have[i] && mine[i] && !recent[i] {
				sendable++
			}
			if have[i] && mine[i] {
				heldServable++
			}
		}
		for _, i := range picks {
			if have[i] || !mine[i] || recent[i] {
				t.Fatalf("trial %d: picked %d (held %v, servable %v, recent %v)", trial, i, have[i], mine[i], recent[i])
			}
		}
		if sendable > 0 && len(picks) == 0 {
			t.Fatalf("trial %d: %d sendable pieces and nothing picked", trial, sendable)
		}
		if skipped > heldServable {
			t.Fatalf("trial %d: skipped %d > %d held-and-servable", trial, skipped, heldServable)
		}
	}
}

// TestPickPiecesLoneHolderNoStarvation: with exactly one holder among k
// suppliers the requester completes within ceil(total/budget)+k rounds
// (in fact +1). The first hello deals the holder its share of the
// missing set; from the second on nobody else has fed the requester, so
// the holder serves its whole budget, own share or not.
func TestPickPiecesLoneHolderNoStarvation(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 500; trial++ {
		total := 1 + r.Intn(150)
		k := 1 + r.Intn(10)
		requester, uri := randomFile(r)
		named := randomSuppliers(r, k)
		holder := named[r.Intn(k)]
		budget := 1 + r.Intn(16)
		origin := r.Intn(total)
		have := randomBitmap(r, total, 0.3*r.Float64())
		held := func(i int) bool { return have[i] }
		sent := make([]bool, total) // the holder's resend window outlasts the download
		pushed := func(i int) bool { return sent[i] }
		left := 0
		for _, h := range have {
			if !h {
				left++
			}
		}
		limit := (total+budget-1)/budget + k
		others, known := 0, false
		for rounds := 0; left > 0; rounds++ {
			if rounds >= limit {
				t.Fatalf("trial %d (total %d suppliers %v holder %d budget %d): %d pieces still missing after %d rounds",
					trial, total, named, holder, budget, left, rounds)
			}
			for _, self := range named {
				if self != holder {
					if picks, _ := pickPieces(total, origin, budget, false, newShare(requester, uri, named, self).mine, never, held, never); len(picks) != 0 {
						t.Fatalf("trial %d: empty-handed %d picked %v", trial, self, picks)
					}
				}
			}
			// The holder's side of servePieces.
			n := fedByOthers(total, held, pushed)
			sole := known && n == others
			others, known = n, true
			picks, _ := pickPieces(total, origin, budget, sole, newShare(requester, uri, named, holder).mine, always, held, pushed)
			if len(picks) == 0 {
				t.Fatalf("trial %d: lone holder picked nothing with %d pieces missing", trial, left)
			}
			for _, i := range picks {
				sent[i], have[i] = true, true
			}
			left -= len(picks)
		}
	}
}

// TestServeOriginAndShare pins the two inputs every supplier must agree
// on: the origin depends on requester and URI only and spreads over the
// file; a share is cut among the requester's list with an unlisted
// supplier counted in, a malformed list counts for nothing, and every
// listed supplier computes the same owner for every piece.
func TestServeOriginAndShare(t *testing.T) {
	uri := metadata.URIFor(0)
	const total = 64
	seen := make(map[int]bool)
	for id := trace.NodeID(0); id < 64; id++ {
		o := serveOrigin(id, uri, total)
		if o < 0 || o >= total {
			t.Fatalf("origin %d out of range for requester %d", o, id)
		}
		if o != serveOrigin(id, uri, total) {
			t.Fatalf("origin for requester %d is not a pure function", id)
		}
		seen[o] = true
	}
	if len(seen) < total/3 {
		t.Fatalf("64 requesters share %d origins over %d pieces", len(seen), total)
	}
	if serveOrigin(3, uri, 0) != 0 {
		t.Fatal("origin of an empty file must be 0")
	}

	named := []trace.NodeID{2, 5, 9}
	for i := 0; i < total; i++ {
		// An unlisted supplier counts itself in: it claims exactly the
		// pieces it outweighs every listed one for.
		if got, want := newShare(7, uri, named, 1).mine(i), newShare(7, uri, []trace.NodeID{1, 2, 5, 9}, 1).owner(i) == 1; got != want {
			t.Fatalf("piece %d: unlisted supplier 1 claims it %v, outweighs the list %v", i, got, want)
		}
	}
	if !slices.Equal(named, []trace.NodeID{2, 5, 9}) {
		t.Fatalf("counting an unlisted supplier in rewrote the list: %v", named)
	}
	// A list out of order or with a repeat counts for nothing.
	for _, bad := range [][]trace.NodeID{{5, 2, 9}, {2, 5, 5, 9}} {
		for i := 0; i < total; i++ {
			if !newShare(7, uri, bad, 2).mine(i) {
				t.Fatalf("list %v: supplier 2 does not own piece %d alone", bad, i)
			}
		}
	}
	counts := make(map[trace.NodeID]int)
	for i := 0; i < total; i++ {
		o := newShare(7, uri, named, 2).owner(i)
		for _, self := range named {
			if got := newShare(7, uri, named, self).owner(i); got != o {
				t.Fatalf("piece %d: supplier %d computes owner %d, supplier 2 computes %d", i, self, got, o)
			}
		}
		counts[o]++
	}
	for _, id := range named {
		if counts[id] < total/6 {
			t.Fatalf("owners of %d pieces among %v: %v", total, named, counts)
		}
	}
	if sh := newShare(7, uri, nil, 4); !sh.mine(0) || !sh.mine(total-1) {
		t.Fatal("a supplier counted in alone does not own the file")
	}
}

// owner is the supplier piece i belongs to, self counted in: the one of
// highest weight, found by weighing every supplier.
func (s share) owner(i int) trace.NodeID {
	best := s.self
	for _, id := range s.suppliers {
		if s.weight(i, id) > s.weight(i, best) {
			best = id
		}
	}
	return best
}

// TestDisjointServingThreeHolders is the rule on live daemons: one
// downloader between three complete holders of a 64-piece file, four
// pieces per hello each. The holders split every hello's missing set
// between them, so the file crosses the medium exactly once — 64 piece
// frames, no duplicate — where index-order serving sent it three times.
func TestDisjointServingThreeHolders(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	const pieces = 64
	uri := metadata.URIFor(0)

	// The interval leaves every hello's pieces time to land before the
	// next bitmap is cut, also beside busy test binaries.
	cfg := func(id trace.NodeID) Config {
		c := fastCfg(id, net)
		c.HelloInterval = 100 * time.Millisecond
		c.LivenessWindow = 3 * time.Second
		c.FileSize = pieces * 1024
		c.PieceSize = 1024
		c.PiecesPerHello = 4
		return c
	}
	holders := make([]*Daemon, 3)
	for i := range holders {
		c := cfg(trace.NodeID(i + 1))
		c.ListenAddr = []string{"h1", "h2", "h3"}[i]
		if i == 0 {
			c.InternetAccess = true
			c.PublishFiles = 1
		} else {
			c.PeerAddrs = []string{"h1"}
			c.Queries = []string{"f0"}
		}
		d, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		holders[i] = d
		start(ctx, d)
	}
	waitFor(t, waitLimit, func() bool { return holders[1].Completed(uri) && holders[2].Completed(uri) }, "holders complete")
	sentBefore := uint64(0)
	for _, h := range holders {
		sentBefore += h.Stats().Transport.PiecesSent
	}

	// The query goes out once all three sessions are up, so every hello
	// that advertises the download names the same three suppliers.
	c := cfg(9)
	c.PeerAddrs = []string{"h1", "h2", "h3"}
	leech, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	start(ctx, leech)
	waitFor(t, waitLimit, func() bool { return len(leech.Manager().Peers()) == 3 }, "three sessions")
	leech.AddQuery("f0")
	waitFor(t, waitLimit, func() bool { return leech.Completed(uri) }, "download from three holders")

	st := leech.Stats()
	if st.PiecesVerified != pieces || st.PiecesDuplicate != 0 || st.PiecesRefetched != 0 {
		t.Fatalf("verified %d duplicate %d refetched %d, want %d/0/0",
			st.PiecesVerified, st.PiecesDuplicate, st.PiecesRefetched, pieces)
	}
	sent := uint64(0)
	for i, h := range holders {
		hs := h.Stats()
		sent += hs.Transport.PiecesSent
		if hs.PiecesResent != 0 {
			t.Fatalf("holder %d resent %d pieces", i+1, hs.PiecesResent)
		}
	}
	if sent -= sentBefore; sent != pieces {
		t.Fatalf("holders put %d piece frames on the medium for %d pieces", sent, pieces)
	}
}

// TestMetadataNotResentDuringDownload: a hello that advertises a
// download proves its sender holds the record, so the standing query is
// not answered with it again. Three nodes, a download paced to last
// dozens of hellos: each downloader has received O(1) metadata frames
// per (server, URI) by the time it completes, not one per hello.
func TestMetadataNotResentDuringDownload(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	uri := metadata.URIFor(0)

	type tally struct{ metadata, hellos uint64 }
	atComplete := make(chan tally, 2)
	nodes := make([]*Daemon, 3)
	for i := range nodes {
		c := fastCfg(trace.NodeID(i+1), net)
		c.ListenAddr = []string{"n1", "n2", "n3"}[i]
		c.PeerAddrs = []string{"n1", "n2", "n3"}[:i]
		c.FileSize = 64 * 1024
		c.PieceSize = 1024
		c.PiecesPerHello = 1
		if i == 0 {
			c.InternetAccess = true
			c.PublishFiles = 1
		} else {
			c.Queries = []string{"f0"}
			c.OnComplete = func(metadata.URI) {
				st := nodes[i].Manager().Stats()
				atComplete <- tally{st.MetadataRecv, st.HellosSent}
			}
		}
		d, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = d
	}
	for _, d := range nodes {
		start(ctx, d)
	}
	waitFor(t, waitLimit, func() bool { return nodes[1].Completed(uri) && nodes[2].Completed(uri) }, "both downloads")
	for i := 0; i < 2; i++ {
		got := <-atComplete
		if got.hellos < 20 {
			t.Fatalf("download took %d hellos: too short to tell O(1) from one per hello", got.hellos)
		}
		// Two servers answer the query; each may do so for the few beacons
		// between the first answer and the hello that lists the download.
		if got.metadata > 2*4 {
			t.Fatalf("downloader received %d metadata frames over %d hellos, want O(1) per server", got.metadata, got.hellos)
		}
	}
}
