package fault

import (
	"context"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// symbolLanePair joins a sender and receiver to a loopback symbol
// domain and wraps the sender's endpoint with the injector.
func symbolLanePair(t *testing.T, cfg Config) (tx transport.BroadcastConn, rx transport.BroadcastConn, ft *Transport) {
	t.Helper()
	n := transport.NewLoopback()
	ft = Wrap(n, cfg)
	d := n.SymbolDomain("g")
	raw, err := d.Join("tx")
	if err != nil {
		t.Fatal(err)
	}
	rx, err = d.Join("rx")
	if err != nil {
		t.Fatal(err)
	}
	return ft.WrapSymbols(raw), rx, ft
}

func laneSymbol(idx uint32) *wire.Symbol {
	s := &wire.Symbol{
		From: 1, Round: 1, URI: "dtn://files/1", Piece: 0, Total: 2,
		Seed: 7, DataLen: 64, Index: idx, Payload: []byte("0123456789abcdef"),
	}
	s.Seal()
	return s
}

// drainSymbols collects everything currently deliverable on the lane.
func drainSymbols(t *testing.T, rx transport.BroadcastConn) []*wire.Symbol {
	t.Helper()
	var out []*wire.Symbol
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		m, err := rx.Recv(ctx)
		cancel()
		if err != nil {
			return out
		}
		out = append(out, m.(*wire.Symbol))
	}
}

// TestSymbolLossRate: the configured per-datagram loss shows up at
// about the configured rate, deterministically for a fixed seed.
func TestSymbolLossRate(t *testing.T) {
	const sends = 500
	run := func() (delivered []uint32, st Stats) {
		tx, rx, ft := symbolLanePair(t, Config{Seed: 5, SymbolLoss: 0.3})
		ctx := context.Background()
		for i := uint32(0); i < sends; i++ {
			if err := tx.Send(ctx, laneSymbol(i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range drainSymbols(t, rx) {
			delivered = append(delivered, s.Index)
		}
		return delivered, ft.Stats()
	}
	a, stA := run()
	b, stB := run()
	if len(a) != len(b) {
		t.Fatalf("deliveries differ across identical runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery pattern diverged at %d", i)
		}
	}
	if stA.SymbolsLost != stB.SymbolsLost || stA.SymbolsLost == 0 {
		t.Fatalf("lost counters: %d vs %d", stA.SymbolsLost, stB.SymbolsLost)
	}
	rate := float64(stA.SymbolsLost) / sends
	if rate < 0.2 || rate > 0.4 {
		t.Fatalf("loss rate %.2f, want ≈0.3", rate)
	}
	if stA.SymbolsSent != sends || stA.SymbolsDelivered != sends-stA.SymbolsLost {
		t.Fatalf("counter mismatch: %+v", stA)
	}
}

// TestSymbolLossIndependentStream: turning symbol loss on must not
// change the conn-level fault decisions for the same master seed —
// the lane draws from its own stream.
func TestSymbolLossIndependentStream(t *testing.T) {
	deliveredFrames := func(symLoss float64) uint64 {
		n := transport.NewLoopback()
		ft := Wrap(n, Config{Seed: 11, Drop: 0.5, SymbolLoss: symLoss})
		l, err := ft.Listen("srv")
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		go func() {
			c, err := l.Accept(ctx)
			if err != nil {
				return
			}
			for {
				if _, err := c.Recv(ctx); err != nil {
					return
				}
			}
		}()
		c, err := ft.Dial(ctx, "srv")
		if err != nil {
			t.Fatal(err)
		}
		// Exercise the lane RNG too, so interleaving would surface.
		sym := ft.WrapSymbols(nopSymbolConn{})
		for i := 0; i < 200; i++ {
			if err := c.Send(ctx, &wire.Hello{From: 1}); err != nil {
				t.Fatal(err)
			}
			sym.Send(ctx, laneSymbol(uint32(i)))
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if st := ft.Stats(); st.Sent == 200 && st.Delivered+st.Dropped == 200 {
				return st.Delivered
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("fault pump did not settle")
		return 0
	}
	if a, b := deliveredFrames(0), deliveredFrames(0.9); a != b {
		t.Fatalf("symbol loss changed conn fault stream: %d vs %d delivered", a, b)
	}
}

// nopSymbolConn swallows sends; the lane target for stream-isolation
// tests.
type nopSymbolConn struct{}

func (nopSymbolConn) Send(context.Context, wire.Msg) error { return nil }
func (nopSymbolConn) Recv(ctx context.Context) (wire.Msg, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}
func (nopSymbolConn) Close() error { return nil }
func (nopSymbolConn) Addr() string { return "nop" }

// TestSymbolCorruption: corrupted datagrams either vanish (framing
// broke) or arrive failing their payload check — receivers must see
// the corruption via CheckOK, never a decoder teardown.
func TestSymbolCorruption(t *testing.T) {
	const sends = 300
	tx, rx, ft := symbolLanePair(t, Config{Seed: 9, Corrupt: 1.0})
	ctx := context.Background()
	for i := uint32(0); i < sends; i++ {
		if err := tx.Send(ctx, laneSymbol(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := ft.Stats()
	if st.SymbolsCorruptDelivered+st.SymbolsCorruptLost != sends {
		t.Fatalf("corruption accounting: %+v", st)
	}
	got := drainSymbols(t, rx)
	badCheck := 0
	for _, s := range got {
		if !s.CheckOK() {
			badCheck++
		}
	}
	// A 1–4 byte flip can land in fields outside the check's coverage
	// (From, URI bytes of equal length, ...), but most mutations hit
	// the payload or placement; require a healthy majority caught.
	if badCheck < len(got)/2 {
		t.Fatalf("only %d/%d corrupted symbols failed CheckOK", badCheck, len(got))
	}
}

// TestSymbolPartition: an active partition silences the lane.
func TestSymbolPartition(t *testing.T) {
	tx, rx, ft := symbolLanePair(t, Config{
		Seed:     3,
		Schedule: []Event{{At: 0, Partition: true}},
	})
	ctx := context.Background()
	for i := uint32(0); i < 10; i++ {
		if err := tx.Send(ctx, laneSymbol(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := drainSymbols(t, rx); len(got) != 0 {
		t.Fatalf("%d datagrams crossed a partition", len(got))
	}
	if st := ft.Stats(); st.SymbolsPartitionDropped != 10 {
		t.Fatalf("partition drops: %+v", st)
	}
}

func TestParseSpecSymLoss(t *testing.T) {
	cfg, err := ParseSpec("seed=7,symloss=0.25,drop=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SymbolLoss != 0.25 || cfg.Drop != 0.1 || cfg.Seed != 7 {
		t.Fatalf("parsed %+v", cfg)
	}
	if _, err := ParseSpec("symloss=1.5"); err == nil {
		t.Fatal("rate above 1 accepted")
	}
	if _, err := ParseSpec("symloss=x"); err == nil {
		t.Fatal("non-numeric rate accepted")
	}
}
