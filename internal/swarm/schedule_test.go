package swarm

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// mkTrace builds a 4-node trace with hand-placed sessions.
func mkTrace(t *testing.T, sessions ...trace.Session) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{Name: "sched-test", NodeCount: 4, Sessions: sessions}
	if err := tr.Validate(); err != nil {
		t.Fatalf("test trace invalid: %v", err)
	}
	return tr
}

func TestPartitionScheduleRendersContacts(t *testing.T) {
	// Node 1: in contact during beats [1, 3) and [10, 12).
	tr := mkTrace(t,
		trace.NewSession(simtime.Time(1*Compress), simtime.Time(3*Compress), []trace.NodeID{0, 1}),
		trace.NewSession(simtime.Time(10*Compress), simtime.Time(12*Compress), []trace.NodeID{1, 2}),
	)
	ev, err := PartitionSchedule(tr, 1, ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Beat: 0, Partition: true},
		{Beat: 1, Partition: false},
		{Beat: 3, Partition: true},
		{Beat: 10, Partition: false},
		{Beat: 12, Partition: true},
	}
	if len(ev) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(ev), ev, len(want))
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, ev[i], want[i])
		}
	}
}

func TestPartitionScheduleMergesSlackGaps(t *testing.T) {
	// Two sessions half a beat apart merge under a one-beat slack.
	tr := mkTrace(t,
		trace.NewSession(0, simtime.Time(2*Compress), []trace.NodeID{0, 1}),
		trace.NewSession(simtime.Time(2*Compress+Compress/2), simtime.Time(5*Compress), []trace.NodeID{0, 1}),
	)
	ev, err := PartitionSchedule(tr, 0, ScheduleConfig{Slack: Compress})
	if err != nil {
		t.Fatal(err)
	}
	// Connected from t=0: no initial partition, one partition at the
	// merged interval's end.
	if len(ev) != 1 || !ev[0].Partition || ev[0].Beat != 5 {
		t.Fatalf("got %v, want single partition at beat 5", ev)
	}
}

func TestPartitionScheduleNodeNeverPresent(t *testing.T) {
	tr := mkTrace(t, trace.NewSession(0, simtime.Time(simtime.Minute), []trace.NodeID{0, 1}))
	ev, err := PartitionSchedule(tr, 3, ScheduleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || !ev[0].Partition || ev[0].Beat != 0 {
		t.Fatalf("got %v, want permanent partition from t=0", ev)
	}
}

func TestPartitionScheduleErrors(t *testing.T) {
	tr := mkTrace(t, trace.NewSession(0, simtime.Time(simtime.Minute), []trace.NodeID{0, 1}))
	if _, err := PartitionSchedule(nil, 0, ScheduleConfig{}); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := PartitionSchedule(tr, 99, ScheduleConfig{}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestPartitionSchedulesWaypoint sanity-checks the adapter against a
// real generator: every node gets a schedule, offsets are monotone, and
// the states alternate.
func TestPartitionSchedulesWaypoint(t *testing.T) {
	cfg := tracegen.DefaultWaypoint()
	cfg.Nodes = 12
	cfg.Days = 1
	tr, err := tracegen.Waypoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scheds, err := PartitionSchedules(tr, ScheduleConfig{Slack: 10 * simtime.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(scheds) != cfg.Nodes {
		t.Fatalf("got %d schedules, want %d", len(scheds), cfg.Nodes)
	}
	for id, ev := range scheds {
		for i := 1; i < len(ev); i++ {
			if ev[i].Beat < ev[i-1].Beat {
				t.Fatalf("node %d: events out of order: %v", id, ev)
			}
			if ev[i].Partition == ev[i-1].Partition {
				t.Fatalf("node %d: repeated state at %d: %v", id, i, ev)
			}
		}
	}
}
