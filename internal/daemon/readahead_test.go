package daemon

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// pieceOrder is a transport whose dialed conns record the index of every
// piece they receive, in arrival order.
type pieceOrder struct {
	transport.Transport
	mu  sync.Mutex
	got []int
}

func (p *pieceOrder) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := p.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &orderConn{Conn: c, p: p}, nil
}

func (p *pieceOrder) indices() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.got)
}

type orderConn struct {
	transport.Conn
	p *pieceOrder
}

func (c *orderConn) Recv(ctx context.Context) (wire.Msg, error) {
	m, err := c.Conn.Recv(ctx)
	if pc, ok := m.(*wire.Piece); ok {
		c.p.mu.Lock()
		c.p.got = append(c.p.got, pc.Index)
		c.p.mu.Unlock()
	}
	return m, err
}

// walkOrder is the pick order of a lone supplier's first burst to a
// requester holding nothing: the whole file, walked cyclically from the
// requester's origin.
func walkOrder(requester trace.NodeID, uri metadata.URI, total int) []int {
	origin := serveOrigin(requester, uri, total)
	out := make([]int, total)
	for k := range out {
		out[k] = (origin + k) % total
	}
	return out
}

// TestBurstArrivesInPickOrder: at four Ps over Loopback, a seeder deals a
// lone leecher its whole 16-piece file in one burst — produced by the
// read-ahead on several goroutines — and the pieces arrive in pick order,
// the cyclic walk from the leecher's origin. The producers are gone when
// the burst is: the process runs as many goroutines after the download as
// before the query.
func TestBurstArrivesInPickOrder(t *testing.T) {
	defer testutil.NoLeaks(t)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const pieces = 16
	var rec *pieceOrder
	seed, leech, done, stop := livePair(t, slowBeacon, 1, pieces, func(c *Config) {
		c.PieceSize = 64 << 10
		c.FileSize = pieces * 64 << 10
		if rec == nil {
			rec = &pieceOrder{Transport: c.Transport}
		}
		c.Transport = rec
	})
	defer stop()
	before := runtime.NumGoroutine()
	leech.AddQuery("f0")
	uri := metadata.URIFor(0)
	select {
	case got := <-done:
		if got != uri {
			t.Fatalf("completed %s", got)
		}
	case <-time.After(waitLimit):
		t.Fatalf("the download never completed; pieces arrived in order %v", rec.indices())
	}
	want := walkOrder(leech.cfg.ID, uri, pieces)
	if got := rec.indices(); !slices.Equal(got, want) {
		t.Fatalf("pieces arrived in order %v, want the pick order %v", got, want)
	}
	// The writer counts a frame once its Send returns, which can be after
	// the leecher has applied it.
	waitFor(t, waitLimit, func() bool { return seed.Stats().Transport.PiecesSent >= pieces }, "the last send to be counted")
	if sent := seed.Stats().Transport.PiecesSent; sent != pieces {
		t.Fatalf("the seeder sent %d piece frames, want %d", sent, pieces)
	}
	waitFor(t, waitLimit, func() bool { return runtime.NumGoroutine() <= before }, "the burst's producers to exit")
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after the burst, %d before it", after, before)
	}
}

// TestReadAheadBounds: readAhead hands every payload over in pick order,
// never has more than GOMAXPROCS pieces produced or in production beyond
// the one it is handing over, and starts no goroutine for a burst of one
// piece or at one P.
// Against a lane that never drains, no producer starts once it holds
// GOMAXPROCS frames: the rest of the burst is produced inline, one piece
// at a time.
func TestReadAheadBounds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 16} {
			for _, stuck := range []bool{false, true} {
				idxs := make([]int, n)
				for k := range idxs {
					idxs[k] = (k*7 + 3) % max(n, 1)
				}
				var produced, sent atomic.Int64
				var mu sync.Mutex
				aheadAt := make(map[int]int64) // piece -> pieces ahead of the send as it started
				caller := goroutineID()
				var spawned atomic.Bool
				queued := func() int { return 0 }
				if stuck {
					queued = func() int { return int(sent.Load()) }
				}
				var got []int
				readAhead(idxs, queued, func(i int) []byte {
					if goroutineID() != caller {
						spawned.Store(true)
					}
					mu.Lock()
					aheadAt[i] = produced.Add(1) - sent.Load()
					mu.Unlock()
					return []byte{byte(i)}
				}, func(i int, data []byte) {
					sent.Add(1)
					if len(data) != 1 || data[0] != byte(i) {
						t.Errorf("piece %d handed over with payload %v", i, data)
					}
					got = append(got, i)
				})
				what := func() string {
					return fmt.Sprintf("GOMAXPROCS %d, %d pieces, stuck lane %v", procs, n, stuck)
				}
				if !slices.Equal(got, idxs) {
					t.Fatalf("%s: sent %v, want %v", what(), got, idxs)
				}
				for k, i := range idxs {
					if a := aheadAt[i]; a > int64(procs)+1 {
						t.Fatalf("%s: piece %d started %d ahead of the send", what(), i, a)
					} else if stuck && k >= 2*procs && a != 1 {
						t.Fatalf("%s: piece %d started %d ahead of the send past a full lane, want inline", what(), i, a)
					}
				}
				if (n <= 1 || procs == 1) && spawned.Load() {
					t.Fatalf("%s: a goroutine was started", what())
				}
			}
		}
	}
}

// goroutineID is the calling goroutine's number, from the header line of
// its stack ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestBurstToAStalledLane: at four Ps, a 16-piece burst to a peer whose
// writer is parked lands in its data lane whole and in pick order, and
// Manager.DataQueued — what gates the read-ahead — counts it.
func TestBurstToAStalledLane(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const pieces = 16
	clk := testutil.NewClock()
	d := benchAt(t, clk, func(c *Config) {
		c.InternetAccess = true
		c.PublishFiles = 1
		c.FileSize = pieces * 1024
		c.PieceSize = 1024
		c.PiecesPerHello = pieces
		c.Queries = nil
	})
	p := wedge(t, d, 2)
	uri := metadata.URIFor(0)
	have := wire.NewGroupWant(uri, pieces, true)
	d.onHello(2, &wire.Hello{From: 2, Downloading: []metadata.URI{uri}, Have: []wire.GroupWant{*have}})
	if q := d.mgr.DataQueued(2); q != pieces {
		t.Fatalf("DataQueued = %d after the burst, want %d", q, pieces)
	}
	want := walkOrder(2, uri, pieces)
	var got []int
	for _, m := range p.flush() {
		got = append(got, m.(*wire.Piece).Index)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the lane holds %v, want the pick order %v", got, want)
	}
	if q := d.mgr.DataQueued(2); q != 0 {
		t.Fatalf("DataQueued = %d after the flush, want 0", q)
	}
}
