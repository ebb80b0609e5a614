package transport

import (
	"context"
	"errors"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// TestBroadcastDomainFanout: one Send is heard by every other member,
// not by the sender itself.
func TestBroadcastDomainFanout(t *testing.T) {
	ctx := context.Background()
	net := NewLoopback()
	defer net.Close()
	dom := net.Domain("radio")

	conns := make(map[string]BroadcastConn)
	for _, addr := range []string{"a", "b", "c"} {
		c, err := dom.Join(addr)
		if err != nil {
			t.Fatal(err)
		}
		conns[addr] = c
	}

	msg := &wire.Hello{From: 1, Heard: []trace.NodeID{2, 3}}
	if err := conns["a"].Send(ctx, msg); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{"b", "c"} {
		got, err := conns[addr].Recv(ctx)
		if err != nil {
			t.Fatalf("%s: %v", addr, err)
		}
		h, ok := got.(*wire.Hello)
		if !ok || h.From != 1 {
			t.Fatalf("%s heard %#v", addr, got)
		}
	}
	// The sender must not hear itself.
	sctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := conns["a"].Recv(sctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("sender heard its own broadcast (err=%v)", err)
	}
}

// TestBroadcastDomainMembership: duplicate joins fail, leaving frees
// the address, and a member that left stops hearing traffic.
func TestBroadcastDomainMembership(t *testing.T) {
	ctx := context.Background()
	dom := NewBroadcastDomain("radio")
	a, err := dom.Join("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := dom.Join("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dom.Join("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("duplicate join error = %v, want ErrAddrInUse", err)
	}

	b.Close()
	if got := len(dom.Members()); got != 1 {
		t.Fatalf("members after leave = %d, want 1", got)
	}
	if _, err := dom.Join("b"); err != nil {
		t.Fatalf("rejoin after leave: %v", err)
	}
	if err := a.Send(ctx, &wire.Hello{From: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed member Recv = %v, want ErrClosed", err)
	}
}

// TestBroadcastDomainOverflowMisses: a receiver that never drains its
// queue misses frames instead of stalling the sender.
func TestBroadcastDomainOverflowMisses(t *testing.T) {
	ctx := context.Background()
	dom := NewBroadcastDomain("radio")
	a, err := dom.Join("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dom.Join("deaf"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < domainQueue+10; i++ {
		if err := a.Send(ctx, &wire.Hello{From: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dom.Missed(); got != 10 {
		t.Fatalf("missed = %d, want 10", got)
	}
	if deaf, sender := dom.Queued("deaf"), dom.Queued("a"); deaf != domainQueue || sender != 0 {
		t.Fatalf("queued = %d at the receiver, %d at the sender; want %d, 0", deaf, sender, domainQueue)
	}
}

// TestBroadcastDomainCloseOnNetworkClose: closing the loopback network
// tears its domains down too.
func TestBroadcastDomainCloseOnNetworkClose(t *testing.T) {
	net := NewLoopback()
	dom := net.Domain("radio")
	c, err := dom.Join("a")
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	if err := c.Send(context.Background(), &wire.Hello{From: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after network close = %v, want ErrClosed", err)
	}
	if _, err := dom.Join("b"); !errors.Is(err, ErrClosed) {
		t.Fatalf("join after network close = %v, want ErrClosed", err)
	}
}

// TestBroadcastDomainSameName: Domain returns the same domain for the
// same name, so members rendezvous by string like listeners do.
func TestBroadcastDomainSameName(t *testing.T) {
	net := NewLoopback()
	defer net.Close()
	if net.Domain("radio") != net.Domain("radio") {
		t.Fatal("same name gave different domains")
	}
	if net.Domain("radio") == net.Domain("other") {
		t.Fatal("different names gave the same domain")
	}
}
