// Package testutil holds helpers shared by the live-stack test suites:
// goroutine-leak assertions for anything that spawns daemons, and a
// race-detector probe so swarm-scale tests can size themselves to the
// instrumentation overhead.
package testutil

import (
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// leakSlack tolerates runtime-owned goroutines that come and go outside
// the test's control (finalizer, pprof, timer goroutines).
const leakSlack = 3

// NoLeaks snapshots the goroutine count and registers a cleanup that
// fails the test if the count has not returned to the snapshot (plus a
// small slack) by the deadline. Teardown is asynchronous everywhere in
// the live stack — conns close, session pumps notice, managers join —
// so the check polls instead of sampling once.
//
// Call it first in any test that starts daemons, managers, or swarms:
//
//	func TestX(t *testing.T) {
//		defer testutil.NoLeaks(t)()
//		...
//	}
//
// The returned func is the check itself, so it can also be invoked
// eagerly mid-test (e.g. between scenario phases).
func NoLeaks(t testing.TB) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before+leakSlack {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		var sb strings.Builder
		if err := pprof.Lookup("goroutine").WriteTo(&sb, 1); err == nil {
			t.Logf("goroutine profile at leak detection:\n%s", sb.String())
		}
		t.Errorf("goroutine leak: %d running at teardown, %d at start (slack %d)",
			now, before, leakSlack)
	}
}
