package daemon

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// livePair starts a seeder publishing files files of pieces 1 KiB pieces
// and a leecher dialing it, both beaconing every hello with the whole
// file as the per-hello budget unless a mutate says otherwise, and returns
// once the session is up. done receives each completed download of the
// leecher; stop shuts both daemons down and waits for them.
func livePair(tb testing.TB, hello time.Duration, files, pieces int, mutate ...func(*Config)) (seed, leech *Daemon, done chan metadata.URI, stop func()) {
	tb.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	net := transport.NewLoopback()
	cfg := func(id trace.NodeID) Config {
		c := fastCfg(id, net)
		c.HelloInterval = hello
		c.LivenessWindow = 10 * hello
		c.FileSize = int64(pieces) * 1024
		c.PieceSize = 1024
		c.PiecesPerHello = pieces
		for _, m := range mutate {
			m(&c)
		}
		return c
	}
	sc := cfg(1)
	sc.ListenAddr = "seed"
	sc.InternetAccess = true
	sc.PublishFiles = files
	seed, err := New(sc)
	if err != nil {
		tb.Fatal(err)
	}
	done = make(chan metadata.URI, files)
	lc := cfg(2)
	lc.PeerAddrs = []string{"seed"}
	lc.OnComplete = func(uri metadata.URI) { done <- uri }
	leech, err = New(lc)
	if err != nil {
		tb.Fatal(err)
	}
	ran := []chan error{start(ctx, seed), start(ctx, leech)}
	stop = func() {
		cancel()
		for _, r := range ran {
			<-r
		}
		net.Close()
	}
	waitFor(tb, func() bool {
		return len(seed.Manager().Peers()) == 1 && len(leech.Manager().Peers()) == 1
	}, "the session")
	return seed, leech, done, stop
}

// slowBeacon puts the periodic beacon out of a test's reach (liveness
// 5 min): only the handshake hellos and kicked rounds ever go out.
const slowBeacon = 30 * time.Second

// TestDownloadDoesNotWaitForBeacon: with the periodic beacon out of
// reach, a query issued on a live session still becomes a finished
// 64-piece download at once — both arrows of the pull flow (query →
// metadata, selection → pieces) advance on the interest change itself.
// On ticks alone this takes two intervals, a minute.
func TestDownloadDoesNotWaitForBeacon(t *testing.T) {
	defer testutil.NoLeaks(t)()
	const pieces = 64
	seed, leech, done, stop := livePair(t, slowBeacon, 1, pieces)
	defer stop()

	leech.AddQuery("f0")
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("download still waiting 2 s after the query; leecher stats %+v", leech.Stats().Transport)
	}
	st := leech.Stats()
	if st.PiecesVerified != pieces || st.PiecesDuplicate != 0 {
		t.Fatalf("verified %d duplicate %d, want %d/0", st.PiecesVerified, st.PiecesDuplicate, pieces)
	}
	// One kicked round for the query, one for the selection, none for the
	// 64 pieces or the completion; the seeder's interests never changed.
	// (A round is counted once its fan-out returns, which the download
	// it triggered can beat.)
	waitFor(t, func() bool { return leech.Manager().Stats().HellosKicked >= 2 }, "both kicked rounds to be counted")
	if got := leech.Manager().Stats().HellosKicked; got != 2 {
		t.Fatalf("leecher kicked %d beacon rounds, want 2 (query, selection)", got)
	}
	if got := seed.Stats().Transport.HellosKicked; got != 0 {
		t.Fatalf("seeder kicked %d beacon rounds, want 0", got)
	}
}

// TestRepeatedAddQueryDoesNotBeacon: re-issuing a query that is still
// live changes nothing a hello advertises, so it must not cost one.
func TestRepeatedAddQueryDoesNotBeacon(t *testing.T) {
	defer testutil.NoLeaks(t)()
	_, leech, _, stop := livePair(t, slowBeacon, 1, 1)
	defer stop()

	kicked := func() uint64 { return leech.Manager().Stats().HellosKicked }
	leech.AddQuery("nothing matches this")
	waitFor(t, func() bool { return kicked() == 1 }, "the new query's beacon")
	leech.AddQuery("nothing matches this")
	// A second new query flushes whatever the repeat may have left owed.
	leech.AddQuery("nor this")
	waitFor(t, func() bool { return kicked() >= 2 }, "the second query's beacon")
	if got := leech.Manager().Stats().HellosSent; got != 3 {
		t.Fatalf("leecher sent %d hellos, want 3: the handshake and one per new query", got)
	}
}

// TestKicksBoundedByInterestChanges: three nodes, two files, a fast
// beacon. Each node's kicked rounds are bounded by the interest changes
// it made — queries added plus files selected — and stand still while
// pieces flow and when downloads complete.
func TestKicksBoundedByInterestChanges(t *testing.T) {
	defer testutil.NoLeaks(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net := transport.NewLoopback()
	defer net.Close()
	const pieces, files = 64, 2

	nodes := make([]*Daemon, 3)
	for i := range nodes {
		c := fastCfg(trace.NodeID(i+1), net)
		c.HelloInterval = 20 * time.Millisecond
		c.LivenessWindow = 3 * time.Second
		c.ListenAddr = []string{"n1", "n2", "n3"}[i]
		c.PeerAddrs = []string{"n1", "n2", "n3"}[:i]
		c.FileSize = pieces * 1024
		c.PieceSize = 1024
		c.PiecesPerHello = 4
		if i == 0 {
			c.InternetAccess = true
			c.PublishFiles = files
		}
		d, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = d
		start(ctx, d)
	}
	waitFor(t, func() bool {
		for _, d := range nodes {
			if len(d.Manager().Peers()) != 2 {
				return false
			}
		}
		return true
	}, "the full mesh")

	leechers := nodes[1:]
	for _, d := range leechers {
		d.AddQuery("f0")
		d.AddQuery("f1")
	}
	// Half-way is a dozen beacon rounds past the selections: every kick
	// they asked for has been spent by now.
	mid := make([]uint64, len(leechers))
	for i, d := range leechers {
		d := d
		waitFor(t, func() bool { return d.Stats().PiecesVerified >= pieces*files/2 }, "half the pieces")
		mid[i] = d.Manager().Stats().HellosKicked
	}
	for i, d := range leechers {
		d := d
		waitFor(t, func() bool {
			return d.Completed(metadata.URIFor(0)) && d.Completed(metadata.URIFor(1))
		}, "both downloads")
		st := d.Manager().Stats()
		if st.HellosKicked < 1 || st.HellosKicked > 2*files {
			t.Errorf("node %d kicked %d rounds for %d queries and %d selections", i+2, st.HellosKicked, files, files)
		}
		if st.HellosKicked != mid[i] {
			t.Errorf("node %d kicked %d rounds by mid-download and %d by completion: a kick per piece or per completion",
				i+2, mid[i], st.HellosKicked)
		}
	}
	if got := nodes[0].Manager().Stats().HellosKicked; got != 0 {
		t.Errorf("the seeder kicked %d rounds with no interest of its own", got)
	}
}

// TestMetadataAnswerPrecedesPieces: a hello carrying both a query and a
// download is answered record-first — the answers are queued before the
// first piece is generated.
func TestMetadataAnswerPrecedesPieces(t *testing.T) {
	d := bench(t, func(c *Config) {
		c.InternetAccess = true
		c.PublishFiles = 2
		c.FileSize = 8 * 1024
		c.PieceSize = 1024
		c.Queries = nil
	})
	p := wedge(t, d, 2)
	d.onHello(2, &wire.Hello{
		From:        2,
		Queries:     []string{"f1"},
		Downloading: []metadata.URI{metadata.URIFor(0)},
	})
	var got []wire.MsgType
	for _, m := range p.flush() {
		got = append(got, m.Type())
	}
	if len(got) != 1+8 {
		t.Fatalf("queued %d frames, want 1 record and 8 pieces: %v", len(got), got)
	}
	for i, typ := range got {
		want := wire.TypePiece
		if i == 0 {
			want = wire.TypeMetadata
		}
		if typ != want {
			t.Fatalf("frame %d is %v, want %v: %v", i, typ, want, got)
		}
	}
}

// TestAnswerQueryBestFirst: a DTN-side node with more matching records
// than one hello's answer holds sends the most popular ones, most popular
// first (§IV-A) — not the first eight in URI order — and a record the
// asker already downloads gives its slot to the next best.
func TestAnswerQueryBestFirst(t *testing.T) {
	d := bench(t, func(c *Config) { c.Queries = nil })
	const records = DefaultMetadataPerHello + 4
	for id := 0; id < records; id++ {
		// Popularity rises with the file number, so URI order is worst first.
		d.onMetadata(5, &wire.Metadata{Popularity: float64(id+1) / 100, Record: *d.syntheticFile(metadata.FileID(id))})
	}
	if got := d.Stats().MetadataStored; got != records {
		t.Fatalf("stored %d records, want %d", got, records)
	}
	p := wedge(t, d, 2)
	best := metadata.URIFor(records - 1)
	d.onHello(2, &wire.Hello{From: 2, Queries: []string{"synthetic"}, Downloading: []metadata.URI{best}})
	var got []metadata.URI
	for _, m := range p.flush() {
		got = append(got, m.(*wire.Metadata).Record.URI)
	}
	var want []metadata.URI
	for id := records - 2; len(want) < DefaultMetadataPerHello; id-- {
		want = append(want, metadata.URIFor(metadata.FileID(id)))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("answered %v\nwant the %d most popular after the one it holds, best first: %v", got, DefaultMetadataPerHello, want)
	}
}

// TestServeStreamsUnderOutboxOverflow: pieces are queued one by one, so
// a data lane that fills mid-burst drops the rest of the burst frame by
// frame. The dropped pieces keep their sent marks — nothing is re-served
// while they are fresh — and the resend deadline re-serves them.
func TestServeStreamsUnderOutboxOverflow(t *testing.T) {
	const pieces, lane = 16, 4
	clk := testutil.NewClock()
	d := benchAt(t, clk, func(c *Config) {
		c.InternetAccess = true
		c.PublishFiles = 1
		c.FileSize = pieces * 1024
		c.PieceSize = 1024
		c.PiecesPerHello = pieces
		c.OutboxLen = lane
		c.Queries = nil
	})
	p := wedge(t, d, 2)
	uri := metadata.URIFor(0)
	have := wire.NewGroupWant(uri, pieces, true)
	hello := &wire.Hello{From: 2, Downloading: []metadata.URI{uri}, Have: []wire.GroupWant{*have}}
	drain := func() (idxs []int) {
		for _, m := range p.flush() {
			idxs = append(idxs, m.(*wire.Piece).Index)
		}
		return idxs
	}

	d.onHello(2, hello)
	delivered := drain()
	if st := d.Stats(); len(delivered) != lane || st.OutboxDropsData != pieces-lane {
		t.Fatalf("first burst: %d queued, %d dropped; want %d and %d",
			len(delivered), st.OutboxDropsData, lane, pieces-lane)
	}
	d.mu.Lock()
	marks := len(d.peers[2].sent[uri].at)
	d.mu.Unlock()
	if marks != pieces {
		t.Fatalf("%d sent marks after the burst, want all %d (dropped frames keep theirs)", marks, pieces)
	}

	// Inside the resend window the marks hold: nothing is served again.
	for _, i := range delivered {
		hello.Have[0].SetHave(i)
	}
	d.onHello(2, hello)
	if again := drain(); len(again) != 0 {
		t.Fatalf("re-served %v inside the resend window", again)
	}

	// Past the deadline the peer's standing advertisement is the NACK:
	// the pieces it still lacks are served again, the held ones are not.
	clk.Advance(d.cfg.ResendAfter)
	d.onHello(2, hello)
	resent := drain()
	if len(resent) != lane {
		t.Fatalf("after the deadline %d pieces queued, want a full lane of %d", len(resent), lane)
	}
	for _, i := range resent {
		if hello.Have[0].HaveBit(i) {
			t.Fatalf("piece %d re-served although the peer holds it", i)
		}
	}
	if st := d.Stats(); st.PiecesResent != pieces-lane {
		t.Fatalf("PiecesResent = %d, want %d", st.PiecesResent, pieces-lane)
	}
}

// BenchmarkQueryToFirstPiece times the pull flow's latency floor on a
// live loopback pair beaconing every 100 ms: from AddQuery to the first
// (and only) piece of the matching file verified. Set-up — two daemons
// and their handshake — is outside the timer.
func BenchmarkQueryToFirstPiece(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, leech, done, stop := livePair(b, 100*time.Millisecond, 1, 1)
		b.StartTimer()
		began := time.Now()
		leech.AddQuery("f0")
		<-done
		total += time.Since(began)
		b.StopTimer()
		stop()
	}
	b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "ms/op")
}
