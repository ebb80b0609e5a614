package peer

import (
	"testing"
	"time"

	"repro/internal/testutil"
)

// flapPeer injects n young-session deaths for peer id, each counting as
// one flap.
func flapPeer(t *testing.T, m *Manager, id int, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		s, err := m.register(2, &stubConn{}, false)
		if err != nil {
			t.Fatal(err)
		}
		m.unregister(s)
	}
}

// TestFlapDecaySteps walks the decay clock step by step: each quiet
// stretch of 4 liveness windows drains exactly one flap, shorter quiet
// stretches drain nothing, and a fresh flap resets the quiet clock.
func TestFlapDecaySteps(t *testing.T) {
	clk := testutil.NewClock()
	cfg := fastCfg(1, nil)
	cfg.Now = clk.Now
	m := NewManager(cfg)
	flapPeer(t, m, 2, 3)

	flapCount := func() int {
		sh := m.shardFor(2)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		fi := sh.flaps[2]
		if fi == nil {
			return 0
		}
		return fi.count
	}
	if got := flapCount(); got != 3 {
		t.Fatalf("flap count = %d after 3 young deaths, want 3", got)
	}

	quiet := 4 * m.cfg.LivenessWindow

	// Inside the quiet window: nothing decays, however often expire runs.
	clk.Advance(quiet / 2)
	for i := 0; i < 5; i++ {
		m.expire(clk.Now())
	}
	if got := flapCount(); got != 3 {
		t.Fatalf("flap count = %d after sub-window quiet, want 3", got)
	}

	// Each full quiet window drains exactly one count, and the decay
	// itself resets the clock — an immediately repeated expire at the
	// same instant must not drain another.
	clk.Advance(quiet/2 + time.Millisecond)
	m.expire(clk.Now())
	m.expire(clk.Now())
	if got := flapCount(); got != 2 {
		t.Fatalf("flap count = %d after one quiet window, want 2", got)
	}

	// A new flap refreshes the quiet clock: an expire half a window
	// after it drains nothing.
	flapPeer(t, m, 2, 1)
	clk.Advance(quiet / 2)
	m.expire(clk.Now())
	if got := flapCount(); got != 3 {
		t.Fatalf("flap count = %d after flap mid-decay, want 3", got)
	}

	// Run the clock out: the entry fully drains and is deleted.
	for i := 1; i <= 3; i++ {
		clk.Advance(quiet + time.Millisecond)
		m.expire(clk.Now())
	}
	if got := flapCount(); got != 0 {
		t.Fatalf("flap count = %d after full decay, want 0 (and entry deleted)", got)
	}
	sh := m.shardFor(2)
	sh.mu.Lock()
	_, survived := sh.flaps[2]
	sh.mu.Unlock()
	if survived {
		t.Fatal("flap entry survived full decay")
	}
}
