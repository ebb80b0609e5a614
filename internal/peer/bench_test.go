package peer

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// benchManager builds a manager with n live stub peers, bypassing the
// network so the benchmark isolates the fan-out path itself. Their
// writers drain into no-op conns; a lane the producer overruns sheds,
// which is the fan-out's real cost ceiling and not an error here.
func benchManager(b *testing.B, n int) *Manager {
	b.Helper()
	m := NewManager(fastCfg(0, nil))
	for i := 1; i <= n; i++ {
		attach(b, m, trace.NodeID(i), &stubConn{})
	}
	return m
}

// BenchmarkBeaconFanout compares the hello fan-out strategies: encoding
// a fresh beacon for every peer (the old behavior) against encoding
// once and fanning the frame out. The allocs/op gap is the point — the
// shared frame holds one encode per tick no matter how many peers the
// table holds.
func BenchmarkBeaconFanout(b *testing.B) {
	for _, peers := range []int{16, 256} {
		b.Run(fmt.Sprintf("encode-per-peer/%d", peers), func(b *testing.B) {
			m := benchManager(b, peers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, id := range m.Peers() {
					if err := m.Send(id, m.helloMsg()); err != nil && !errors.Is(err, ErrQueueFull) {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("shared-frame/%d", peers), func(b *testing.B) {
			m := benchManager(b, peers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.BroadcastExcept(nil)
			}
		})
	}
}

// BenchmarkHelloEncode pins the cost of a single beacon serialization —
// the unit the fan-out strategies multiply.
func BenchmarkHelloEncode(b *testing.B) {
	m := benchManager(b, 1)
	hello := m.helloMsg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = wire.Encode(hello)
	}
}
