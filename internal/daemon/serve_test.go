package daemon

import (
	"context"
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

// TestPickPiecesDisjointCover is the rule's core property: when every
// one of a requester's k suppliers holds the whole file, the picks of
// one hello round never name a piece the requester holds, and — as long
// as every supplier's share is non-empty — are pairwise disjoint and
// cover min(missing, k·budget) pieces. With fewer missing pieces than
// suppliers the share-less ones fill, so the round still covers the
// missing set and the share owners still do not overlap each other.
func TestPickPiecesDisjointCover(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 2000; trial++ {
		total := 1 + r.Intn(200)
		k := 1 + r.Intn(12)
		budget := 1 + r.Intn(20)
		origin := r.Intn(total)
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
		for rank := 0; rank < k; rank++ {
			picks, skipped := pickPieces(total, origin, rank, k, budget, false, always, held, never)
			if len(picks) > budget {
				t.Fatalf("trial %d: rank %d picked %d > budget %d", trial, rank, len(picks), budget)
			}
			if len(picks) < budget && skipped != total-missing {
				t.Fatalf("trial %d: full walk skipped %d held pieces, want %d", trial, skipped, total-missing)
			}
			seen := make(map[int]bool)
			for _, i := range picks {
				if have[i] {
					t.Fatalf("trial %d: rank %d picked held piece %d", trial, rank, i)
				}
				if seen[i] {
					t.Fatalf("trial %d: rank %d picked piece %d twice", trial, rank, i)
				}
				seen[i] = true
				union[i] = true
				if rank < missing {
					owners[i]++
				}
			}
		}
		for i, n := range owners {
			if n > 1 {
				t.Fatalf("trial %d (total %d k %d budget %d missing %d): piece %d picked by %d share owners",
					trial, total, k, budget, missing, i, n)
			}
		}
		if want := min(missing, k*budget); len(union) != want {
			t.Fatalf("trial %d (total %d k %d budget %d missing %d): round covers %d pieces, want %d",
				trial, total, k, budget, missing, len(union), want)
		}
		if missing >= k && len(owners) != len(union) {
			t.Fatalf("trial %d: %d picks outside a share with every share non-empty", trial, len(union)-len(owners))
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
		k := 1 + r.Intn(8)
		rank := r.Intn(k)
		budget := 1 + r.Intn(10)
		have := randomBitmap(r, total, r.Float64())
		mine := randomBitmap(r, total, r.Float64())
		recent := randomBitmap(r, total, r.Float64())
		picks, skipped := pickPieces(total, r.Intn(total), rank, k, budget, r.Bool(0.5),
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
// (in fact +1). The first hello deals the holder a k-th of the missing
// set; from the second on nobody else has fed the requester, so the
// holder serves its whole budget, own share or not.
func TestPickPiecesLoneHolderNoStarvation(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 500; trial++ {
		total := 1 + r.Intn(150)
		k := 1 + r.Intn(10)
		holder := r.Intn(k)
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
				t.Fatalf("trial %d (total %d k %d holder %d budget %d): %d pieces still missing after %d rounds",
					trial, total, k, holder, budget, left, rounds)
			}
			for rank := 0; rank < k; rank++ {
				if rank != holder {
					if picks, _ := pickPieces(total, origin, rank, k, budget, false, never, held, never); len(picks) != 0 {
						t.Fatalf("trial %d: empty-handed rank %d picked %v", trial, rank, picks)
					}
				}
			}
			// The holder's side of servePieces.
			n := fedByOthers(total, held, pushed)
			sole := known && n == others
			others, known = n, true
			picks, _ := pickPieces(total, origin, holder, k, budget, sole, always, held, pushed)
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
// file; the rank is the position in the requester's sorted heard list,
// with an unlisted supplier counted in.
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

	heard := []trace.NodeID{2, 5, 9}
	for _, tc := range []struct {
		self    trace.NodeID
		rank, k int
	}{{2, 0, 3}, {5, 1, 3}, {9, 2, 3}, {1, 0, 4}, {7, 2, 4}, {11, 3, 4}} {
		if rank, k := shareOf(heard, tc.self); rank != tc.rank || k != tc.k {
			t.Fatalf("shareOf(%v, %d) = (%d, %d), want (%d, %d)", heard, tc.self, rank, k, tc.rank, tc.k)
		}
	}
	if rank, k := shareOf(nil, 4); rank != 0 || k != 1 {
		t.Fatalf("shareOf(nil) = (%d, %d), want (0, 1)", rank, k)
	}
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
	waitFor(t, func() bool { return holders[1].Completed(uri) && holders[2].Completed(uri) }, "holders complete")
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
	waitFor(t, func() bool { return len(leech.Manager().Peers()) == 3 }, "three sessions")
	leech.AddQuery("f0")
	waitFor(t, func() bool { return leech.Completed(uri) }, "download from three holders")

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
	waitFor(t, func() bool { return nodes[1].Completed(uri) && nodes[2].Completed(uri) }, "both downloads")
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
