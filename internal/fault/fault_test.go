package fault

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// pair builds a loopback link where only the dial side injects faults,
// so exactly one fault conn exists and its RNG stream is reproducible.
func pair(t *testing.T, cfg Config) (dial, accept transport.Conn, ft *Transport) {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	lis, err := net.Listen("addr")
	if err != nil {
		t.Fatal(err)
	}
	ft = Wrap(net, cfg)
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := lis.Accept(context.Background())
		if err == nil {
			accepted <- c
		}
	}()
	dial, err = ft.Dial(context.Background(), "addr")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case accept = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	return dial, accept, ft
}

// drain receives until the link goes quiet, returning hello From IDs.
func drain(c transport.Conn, quiet time.Duration) []trace.NodeID {
	var got []trace.NodeID
	for {
		ctx, cancel := context.WithTimeout(context.Background(), quiet)
		m, err := c.Recv(ctx)
		cancel()
		if err != nil {
			return got
		}
		if h, ok := m.(*wire.Hello); ok {
			got = append(got, h.From)
		}
	}
}

// sendHellos streams n hellos from a goroutine (the receiver must drain
// concurrently: the pump and inner queues together hold fewer messages
// than a test sends).
func sendHellos(t *testing.T, c transport.Conn, n int) {
	t.Helper()
	go func() {
		for i := 0; i < n; i++ {
			if c.Send(context.Background(), &wire.Hello{From: trace.NodeID(i)}) != nil {
				return
			}
		}
	}()
}

func TestPassThroughInOrder(t *testing.T) {
	dial, accept, ft := pair(t, Config{Seed: 1})
	sendHellos(t, dial, 50)
	got := drain(accept, 500*time.Millisecond)
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50 with no faults configured", len(got))
	}
	for i, id := range got {
		if id != trace.NodeID(i) {
			t.Fatalf("message %d arrived as %d: reordered without Reorder set", i, id)
		}
	}
	st := ft.Stats()
	if st.Delivered != 50 || st.Dropped != 0 || st.CorruptDelivered != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDropAll(t *testing.T) {
	dial, accept, ft := pair(t, Config{Seed: 1, Drop: 1})
	sendHellos(t, dial, 20)
	if got := drain(accept, 300*time.Millisecond); len(got) != 0 {
		t.Fatalf("%d messages leaked through Drop=1", len(got))
	}
	if st := ft.Stats(); st.Dropped != 20 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDuplicateAll(t *testing.T) {
	dial, accept, ft := pair(t, Config{Seed: 1, Duplicate: 1})
	sendHellos(t, dial, 10)
	got := drain(accept, 500*time.Millisecond)
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20 (each message doubled)", len(got))
	}
	if st := ft.Stats(); st.Duplicated != 10 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDeterministicForSeed replays the same send sequence through two
// transports with the same seed and demands identical survivors.
func TestDeterministicForSeed(t *testing.T) {
	run := func() []trace.NodeID {
		dial, accept, _ := pair(t, Config{Seed: 42, Drop: 0.5})
		sendHellos(t, dial, 200)
		return drain(accept, 500*time.Millisecond)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d messages for the same seed", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("survivor %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	if len(a) < 60 || len(a) > 140 {
		t.Fatalf("Drop=0.5 delivered %d of 200", len(a))
	}
}

// TestCorruptPolicy checks every corrupted message is resolved per the
// transport decode policy: delivered mutated, dropped, or conn-killing.
func TestCorruptPolicy(t *testing.T) {
	dial, accept, ft := pair(t, Config{Seed: 7, Corrupt: 1})
	var sendErr error
	sent := 0
	for i := 0; i < 100; i++ {
		sendErr = dial.Send(context.Background(), &wire.Hello{From: trace.NodeID(i)})
		if sendErr != nil {
			break // a corrupt header killed the conn; expected
		}
		sent++
	}
	drain(accept, 300*time.Millisecond)
	st := ft.Stats()
	if st.CorruptDelivered+st.CorruptDropped+st.CorruptKilled != st.Sent {
		t.Fatalf("corruption verdicts %d+%d+%d do not cover %d processed messages",
			st.CorruptDelivered, st.CorruptDropped, st.CorruptKilled, st.Sent)
	}
	if st.Sent == 0 {
		t.Fatal("no messages processed")
	}
}

func TestKillClosesConn(t *testing.T) {
	dial, accept, ft := pair(t, Config{Seed: 3, Kill: 1})
	// The first processed message triggers the kill; subsequent sends
	// must fail once the close propagates.
	dial.Send(context.Background(), &wire.Hello{From: 1})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := dial.Send(context.Background(), &wire.Hello{From: 2}); err != nil {
			if st := ft.Stats(); st.Killed == 0 {
				t.Fatalf("conn died without a kill stat: %+v", st)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("conn survived Kill=1")
	_ = accept
}

// TestReorderHoldsOneMessage: a reorder roll holds back exactly one
// message, which goes out right behind the next one sent — never later,
// and never a second one alongside it.
func TestReorderHoldsOneMessage(t *testing.T) {
	dial, accept, ft := pair(t, Config{Seed: 1, Reorder: 1})
	ctx := context.Background()
	for i := 0; i < 11; i++ {
		if err := dial.Send(ctx, &wire.Hello{From: trace.NodeID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Every roll fires, so each even message is held and overtaken by
	// the odd one after it; the eleventh is still held.
	want := []trace.NodeID{1, 0, 3, 2, 5, 4, 7, 6, 9, 8}
	if got := drain(accept, 100*time.Millisecond); !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if st := ft.Stats(); st.Reordered != 6 || st.Delivered != 10 {
		t.Fatalf("stats %+v, want 6 reordered and 10 delivered with one held", st)
	}
	if err := dial.Send(ctx, &wire.Hello{From: 11}); err != nil {
		t.Fatal(err)
	}
	if got := drain(accept, 100*time.Millisecond); !slices.Equal(got, []trace.NodeID{11, 10}) {
		t.Fatalf("after one more send: %v, want [11 10]", got)
	}
}

// TestDelayedSendEnds: a Send waiting out its delay returns when its
// context ends and when the conn is closed, delivering nothing.
func TestDelayedSendEnds(t *testing.T) {
	for _, end := range []string{"cancel", "close"} {
		t.Run(end, func(t *testing.T) {
			dial, accept, ft := pair(t, Config{Seed: 1, DelayMin: time.Hour, DelayMax: time.Hour + 1})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sent := make(chan error, 1)
			go func() { sent <- dial.Send(ctx, &wire.Hello{From: 1}) }()
			for ft.Stats().Delayed == 0 {
				time.Sleep(time.Millisecond)
			}
			want := context.Canceled
			if end == "cancel" {
				cancel()
			} else {
				dial.Close()
				want = transport.ErrClosed
			}
			select {
			case err := <-sent:
				if !errors.Is(err, want) {
					t.Fatalf("delayed Send returned %v, want %v", err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("delayed Send still waiting after %s", end)
			}
			if got := drain(accept, 50*time.Millisecond); len(got) != 0 || ft.Stats().Delivered != 0 {
				t.Fatalf("delivered %v (stats %+v) from a Send that ended in its delay", got, ft.Stats())
			}
		})
	}
}

func TestPartitionSchedule(t *testing.T) {
	tr := Wrap(transport.NewLoopback(), Config{Schedule: []Event{
		{At: 10 * time.Second, Partition: true},
		{At: 20 * time.Second, Partition: false},
		{At: 30 * time.Second, Partition: true},
	}})
	for _, tc := range []struct {
		at   time.Duration
		want bool
	}{
		{0, false}, {9 * time.Second, false}, {10 * time.Second, true},
		{15 * time.Second, true}, {20 * time.Second, false}, {35 * time.Second, true},
	} {
		if got := tr.partitionedAt(tc.at); got != tc.want {
			t.Fatalf("partitionedAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestPartitionBlocksDialAndTraffic(t *testing.T) {
	net := transport.NewLoopback()
	defer net.Close()
	if _, err := net.Listen("addr"); err != nil {
		t.Fatal(err)
	}
	ft := Wrap(net, Config{Schedule: []Event{{At: 0, Partition: true}}})
	if _, err := ft.Dial(context.Background(), "addr"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dial during partition: %v, want ErrPartitioned", err)
	}
	if st := ft.Stats(); st.DialsBlocked != 1 {
		t.Fatalf("stats %+v", st)
	}

	// Cut partitions a live link at runtime, both ways: what this end
	// sends and what it reads are dropped, and it cannot dial.
	dial, accept, ft := pair(t, Config{Seed: 1})
	ft.Cut(true)
	if !ft.Partitioned() {
		t.Fatal("Partitioned() = false under Cut(true)")
	}
	ctx := context.Background()
	if err := dial.Send(ctx, &wire.Hello{From: 1}); err != nil {
		t.Fatal(err)
	}
	if err := accept.Send(ctx, &wire.Hello{From: 2}); err != nil {
		t.Fatal(err)
	}
	if got := drain(accept, 100*time.Millisecond); len(got) != 0 {
		t.Fatalf("the far end heard %v from a cut node", got)
	}
	if got := drain(dial, 100*time.Millisecond); len(got) != 0 {
		t.Fatalf("a cut node heard %v", got)
	}
	if _, err := ft.Dial(ctx, "addr"); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dial under Cut: %v, want ErrPartitioned", err)
	}
	if st := ft.Stats(); st.PartitionDropped != 2 || st.DialsBlocked != 1 || st.Delivered != 0 {
		t.Fatalf("under Cut: %+v, want one send and one receive dropped and one dial blocked", st)
	}

	// Healed, the link carries both ways again.
	ft.Cut(false)
	if err := dial.Send(ctx, &wire.Hello{From: 3}); err != nil {
		t.Fatal(err)
	}
	if err := accept.Send(ctx, &wire.Hello{From: 4}); err != nil {
		t.Fatal(err)
	}
	if got := drain(accept, 100*time.Millisecond); !slices.Equal(got, []trace.NodeID{3}) {
		t.Fatalf("after Cut(false) the far end heard %v, want [3]", got)
	}
	if got := drain(dial, 100*time.Millisecond); !slices.Equal(got, []trace.NodeID{4}) {
		t.Fatalf("after Cut(false) the node heard %v, want [4]", got)
	}
	if st := ft.Stats(); st.PartitionDropped != 2 {
		t.Fatalf("after Cut(false): %+v, want the two drops from before", st)
	}
}

func TestDialFail(t *testing.T) {
	net := transport.NewLoopback()
	defer net.Close()
	if _, err := net.Listen("addr"); err != nil {
		t.Fatal(err)
	}
	ft := Wrap(net, Config{Seed: 1, DialFail: 1})
	if _, err := ft.Dial(context.Background(), "addr"); !errors.Is(err, ErrInjectedDialFailure) {
		t.Fatalf("dial with DialFail=1: %v, want ErrInjectedDialFailure", err)
	}
}

func TestCorruptFrameDeterministic(t *testing.T) {
	frame := wire.EncodeHello(&wire.Hello{From: 9, Queries: []string{"jazz"}})
	a := CorruptFrame(rng.New(5), frame)
	b := CorruptFrame(rng.New(5), frame)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different mutations")
	}
	if bytes.Equal(a, frame) {
		t.Fatal("mutation left the frame unchanged")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7,drop=0.3,corrupt=0.2,dup=0.05,reorder=0.1,kill=0.01,dialfail=0.2,delay=50ms,delaymin=5ms,partition=30s-40s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Drop != 0.3 || cfg.Corrupt != 0.2 || cfg.Duplicate != 0.05 ||
		cfg.Reorder != 0.1 || cfg.Kill != 0.01 || cfg.DialFail != 0.2 ||
		cfg.DelayMax != 50*time.Millisecond || cfg.DelayMin != 5*time.Millisecond {
		t.Fatalf("parsed %+v", cfg)
	}
	want := []Event{{At: 30 * time.Second, Partition: true}, {At: 40 * time.Second, Partition: false}}
	if len(cfg.Schedule) != 2 || cfg.Schedule[0] != want[0] || cfg.Schedule[1] != want[1] {
		t.Fatalf("schedule %+v", cfg.Schedule)
	}

	for _, bad := range []string{
		"drop", "drop=2", "drop=-0.1", "nope=1", "partition=10s", "partition=10s-5s", "seed=x",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
	if cfg, err := ParseSpec(""); err != nil || cfg.Drop != 0 {
		t.Fatalf("empty spec: %+v, %v", cfg, err)
	}
}
