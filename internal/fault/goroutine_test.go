package fault_test

import (
	"context"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/transport"
	"repro/internal/wire"
)

// linkLayer names the function that started a goroutine inside either
// package; one started by a test function is the test's own.
var linkLayer = regexp.MustCompile(`created by repro/internal/(?:transport|fault)\.(\S+)`)

// stacks is every goroutine's stack.
func stacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// TestLinkLayerStartsNoGoroutine: with a fault-wrapped TCP pair whose
// Send is waiting out a delay, the far end blocked in Recv, and a UDP
// symbol lane blocked in Recv, the only goroutines are the ones making
// those calls — neither package runs one of its own.
func TestLinkLayerStartsNoGoroutine(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ft := fault.Wrap(&transport.TCP{}, fault.Config{Seed: 1, DelayMin: time.Hour, DelayMax: time.Hour + 1})
	lis, err := ft.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := lis.Accept(ctx)
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	dial, err := ft.Dial(ctx, lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dial.Close()
	accept := <-accepted
	if accept == nil {
		t.Fatal("accept failed")
	}
	defer accept.Close()
	lane, err := transport.NewUDPLane("127.0.0.1:0", []string{"127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	defer lane.Close()

	done := make(chan error, 3)
	go func() { done <- dial.Send(ctx, &wire.Hello{From: 1}) }()
	go func() { _, err := accept.Recv(ctx); done <- err }()
	go func() { _, err := lane.Recv(ctx); done <- err }()
	var all string
	for {
		all = stacks()
		if strings.Contains(all, "fault.(*conn).process") &&
			strings.Contains(all, "transport.(*tcpConn).Recv") &&
			strings.Contains(all, "transport.(*UDPLane).Recv") {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("the three calls never blocked:\n%s", all)
		}
		time.Sleep(time.Millisecond)
	}
	for _, g := range strings.Split(all, "\n\n") {
		if by := linkLayer.FindStringSubmatch(g); by != nil && !strings.HasPrefix(by[1], "Test") {
			t.Errorf("a goroutine of the link layer's own:\n%s", g)
		}
	}
	cancel()
	for i := 0; i < 3; i++ {
		<-done
	}
}
