package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/wire"
)

var testKey = []byte("pub-key")

func testMeta() *wire.Metadata {
	rec := metadata.NewSynthetic(3, "jazz night live", "FOX",
		"late show description", 600*1024, metadata.DefaultPieceSize,
		simtime.At(0, simtime.FileGenerationOffset), simtime.Days(3), testKey)
	return &wire.Metadata{Popularity: 0.375, Record: *rec}
}

func testHello(from trace.NodeID) *wire.Hello {
	return &wire.Hello{From: from, Queries: []string{"jazz"}}
}

// pair dials lis's address on tr and returns both conn ends.
func pair(t *testing.T, tr Transport, lis Listener) (dial, accept Conn) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := make(chan Conn, 1)
	errs := make(chan error, 1)
	go func() {
		c, err := lis.Accept(ctx)
		if err != nil {
			errs <- err
			return
		}
		got <- c
	}()
	d, err := tr.Dial(ctx, lis.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	select {
	case a := <-got:
		return d, a
	case err := <-errs:
		t.Fatalf("accept: %v", err)
	case <-ctx.Done():
		t.Fatal("accept timed out")
	}
	return nil, nil
}

// roundTrip exercises all three message types in both directions.
func roundTrip(t *testing.T, a, b Conn) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m := testMeta()
	piece := &wire.Piece{
		URI:   m.Record.URI,
		Index: 1,
		Total: m.Record.NumPieces(),
		Data:  metadata.SyntheticPiece(m.Record.URI, 1, m.Record.PieceLen(1)),
	}
	for _, msg := range []wire.Msg{testHello(7), m, piece} {
		if err := a.Send(ctx, msg); err != nil {
			t.Fatalf("send %v: %v", msg.Type(), err)
		}
		got, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %v: %v", msg.Type(), err)
		}
		if !bytes.Equal(wire.Encode(got), wire.Encode(msg)) {
			t.Fatalf("%v did not round-trip", msg.Type())
		}
	}
	// And back the other way.
	if err := b.Send(ctx, testHello(9)); err != nil {
		t.Fatal(err)
	}
	got, err := a.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := got.(*wire.Hello); !ok || h.From != 9 {
		t.Fatalf("got %+v", got)
	}
}

func TestLoopbackRoundTrip(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	lis, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	d, a := pair(t, net, lis)
	defer d.Close()
	defer a.Close()
	roundTrip(t, d, a)
}

func TestLoopbackErrors(t *testing.T) {
	n := NewLoopback()
	defer n.Close()
	ctx := context.Background()
	if _, err := n.Dial(ctx, "nowhere"); !errors.Is(err, ErrNoListener) {
		t.Fatalf("dial nowhere: %v", err)
	}
	if _, err := n.Listen(""); err == nil {
		t.Fatal("empty addr accepted")
	}
	lis, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("double listen: %v", err)
	}
	lis.Close()
	// Address is reusable after close.
	if _, err := n.Listen("a"); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

func TestLoopbackPeerCloseDrainsBufferedFrames(t *testing.T) {
	n := NewLoopback()
	defer n.Close()
	lis, _ := n.Listen("a")
	d, a := pair(t, n, lis)
	ctx := context.Background()
	if err := d.Send(ctx, testHello(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Send(ctx, testHello(2)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	for want := trace.NodeID(1); want <= 2; want++ {
		m, err := a.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", want, err)
		}
		if m.(*wire.Hello).From != want {
			t.Fatalf("got %+v, want From=%d", m, want)
		}
	}
	if _, err := a.Recv(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("after drain: %v, want EOF", err)
	}
	if err := a.Send(ctx, testHello(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("send to dead peer: %v", err)
	}
}

func TestLoopbackRecvCtxCancel(t *testing.T) {
	n := NewLoopback()
	defer n.Close()
	lis, _ := n.Listen("a")
	d, a := pair(t, n, lis)
	defer d.Close()
	defer a.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if _, err := a.Recv(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("recv: %v", err)
	}
}

func TestDecodeFramePolicy(t *testing.T) {
	// Valid frame decodes.
	m, err := decodeFrame(wire.Encode(testHello(1)))
	if err != nil || m == nil {
		t.Fatalf("valid frame: %v %v", m, err)
	}
	// Bad magic is fatal.
	if _, err := decodeFrame([]byte{0x00, 0x01, 0x01}); err == nil {
		t.Fatal("bad magic not fatal")
	}
	// Version mismatch is fatal and typed.
	if _, err := decodeFrame([]byte{0xD7, 0x63, 0x01}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("version mismatch: %v", err)
	}
	// Malformed body inside a good frame is skipped (nil, nil).
	truncated := wire.Encode(testMeta())[:10]
	if m, err := decodeFrame(truncated); m != nil || err != nil {
		t.Fatalf("truncated body: %v %v, want skip", m, err)
	}
	// Unknown type is skipped too: well-framed, possibly from the
	// future.
	unknown := append(wire.Encode(testHello(1))[:2:2], 0x77) // this version's magic and version
	if m, err := decodeFrame(unknown); m != nil || err != nil {
		t.Fatalf("unknown type: %v %v, want skip", m, err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tr := &TCP{}
	lis, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	d, a := pair(t, tr, lis)
	defer d.Close()
	defer a.Close()
	roundTrip(t, d, a)
}

// TestTCPSendThenCloseDelivers: Send returns once its frame is on the
// socket, so every frame it accepted before Close reaches the far end,
// and then the far end reads a clean EOF.
func TestTCPSendThenCloseDelivers(t *testing.T) {
	tr := &TCP{}
	lis, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	d, a := pair(t, tr, lis)
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	const n = 200 // a few KiB: the kernel's buffers hold them all unread
	for i := 0; i < n; i++ {
		if err := d.Send(ctx, testHello(trace.NodeID(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	d.Close()
	for i := 0; i < n; i++ {
		m, err := a.Recv(ctx)
		if err != nil {
			t.Fatalf("frame %d of %d sent before Close: %v", i, n, err)
		}
		if h, ok := m.(*wire.Hello); !ok || h.From != trace.NodeID(i) {
			t.Fatalf("frame %d: got %+v", i, m)
		}
	}
	if _, err := a.Recv(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

// TestTCPResyncAndGarbage drives a raw socket against a TCP listener:
// a well-framed malformed body is skipped, a later valid frame is
// delivered, and framing garbage then kills the connection.
func TestTCPResyncAndGarbage(t *testing.T) {
	tr := &TCP{}
	lis, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept(ctx)
		if err == nil {
			got <- c
		}
	}()
	raw, err := net.Dial("tcp", lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var srv Conn
	select {
	case srv = <-got:
	case <-ctx.Done():
		t.Fatal("accept timed out")
	}
	defer srv.Close()

	frame := func(b []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(b)))
		return append(out, b...)
	}
	// 1: well-framed truncated metadata body → skipped.
	raw.Write(frame(wire.Encode(testMeta())[:12]))
	// 2: valid hello → delivered.
	raw.Write(frame(wire.Encode(testHello(42))))
	m, err := srv.Recv(ctx)
	if err != nil {
		t.Fatalf("recv after resync: %v", err)
	}
	if h, ok := m.(*wire.Hello); !ok || h.From != 42 {
		t.Fatalf("got %+v", m)
	}
	// 3: framing garbage (bad magic) → connection dies.
	raw.Write(frame([]byte{0xEE, 0xBB, 0xCC}))
	if _, err := srv.Recv(ctx); err == nil {
		t.Fatal("garbage frame did not kill the connection")
	}
}

func TestTCPRecvCtxCancel(t *testing.T) {
	tr := &TCP{}
	lis, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	d, a := pair(t, tr, lis)
	defer d.Close()
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("recv: %v", err)
	}
	// The conn survives a canceled Recv: a fresh context still works.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := d.Send(ctx2, testHello(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(ctx2); err != nil {
		t.Fatalf("recv after cancel: %v", err)
	}
}

func TestTCPAcceptCtxCancel(t *testing.T) {
	tr := &TCP{}
	lis, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := lis.Accept(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("accept: %v", err)
	}
}

func TestFrameTooBig(t *testing.T) {
	var buf bytes.Buffer
	var fw frameWriter
	if err := fw.write(&buf, &wire.Raw{T: wire.TypePiece, Frame: make([]byte, MaxFrame+1)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("write: %v", err)
	}
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("read: %v", err)
	}
}

func TestBackoffDelays(t *testing.T) {
	b := Backoff{Min: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: -1}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Fatalf("delay(%d) = %v, want %v", i, got, w)
		}
	}
	// Jitter stays within [1-J, 1+J] × nominal and is deterministic
	// under a fixed source.
	j := Backoff{Min: 100 * time.Millisecond, Jitter: 0.5, Rand: rng.New(1)}
	for i := 0; i < 100; i++ {
		d := j.Delay(0)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v out of bounds", d)
		}
	}
	a1 := Backoff{Min: time.Millisecond, Jitter: 0.5, Rand: rng.New(7)}
	a2 := Backoff{Min: time.Millisecond, Jitter: 0.5, Rand: rng.New(7)}
	for i := 0; i < 10; i++ {
		if a1.Delay(i) != a2.Delay(i) {
			t.Fatal("jitter not deterministic under fixed seed")
		}
	}
}

// TestTCPPiggybackPieceRoundTrips: a piece carrying its file's record
// (MBT-QM) crosses TCP as its segments — the head, the payload from the
// sender's own slice, the piggyback after it — and decodes whole. The
// received payload is a view into its frame, and each frame is the
// reader's own: a second piece read after it leaves the first intact.
func TestTCPPiggybackPieceRoundTrips(t *testing.T) {
	tr := &TCP{}
	lis, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	d, a := pair(t, tr, lis)
	defer d.Close()
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m := testMeta()
	var sent []*wire.Piece
	for i := 0; i < 2; i++ {
		p := &wire.Piece{URI: m.Record.URI, Index: i, Total: m.Record.NumPieces(),
			Data: metadata.SyntheticPiece(m.Record.URI, i, m.Record.PieceLen(i)), Piggyback: m}
		if err := d.Send(ctx, p); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, p)
	}
	var got []*wire.Piece
	for range sent {
		msg, err := a.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		p, ok := msg.(*wire.Piece)
		if !ok {
			t.Fatalf("received %T, want *wire.Piece", msg)
		}
		got = append(got, p)
	}
	for i, p := range got {
		if !bytes.Equal(wire.Encode(p), wire.Encode(sent[i])) {
			t.Fatalf("piece %d did not round-trip", i)
		}
		if p.Piggyback == nil || !p.Piggyback.Record.Verify(testKey) || !p.Verify(&p.Piggyback.Record) {
			t.Fatalf("piece %d: its piggybacked record does not verify it", i)
		}
	}
}

// TestStalledFrameCostsAStep: a peer that declares a MaxFrame frame and
// then stalls costs the reader no more than a MiB of heap, not the 16
// MiB it declared: the frame grows as its bytes arrive.
func TestStalledFrameCostsAStep(t *testing.T) {
	near, far := net.Pipe()
	c := newTCPConn(near)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame)
	body := []byte{0xD7, 2, byte(wire.TypePiece)}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Recv(ctx)
		errc <- err
	}()
	// A pipe write returns once the reader has taken its bytes: after
	// the second, the reader has sized its frame and waits for more.
	if _, err := far.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := far.Write(body); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("a stalled %d-byte frame holds %d bytes of heap, want at most 1 MiB", MaxFrame, grew)
	}
	far.Close()
	if err := <-errc; err == nil {
		t.Fatal("Recv returned a frame the peer never finished")
	}
}
