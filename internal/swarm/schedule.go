package swarm

import (
	"errors"
	"fmt"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// Event is one edge of a node's partition schedule: from the start of
// beat Beat on, the node is out of range (Partition) or back in it.
type Event struct {
	Beat      int
	Partition bool
}

// ScheduleConfig shapes the contact-trace → partition adapter: it turns
// one node's presence in a mobility trace into a partition/heal schedule
// the harness applies to the node's transport at beat boundaries. While
// the trace has the node inside at least one session the node is
// connected; between sessions it is partitioned — the live-stack
// rendering of partial mobility, where a bus between meetings or a
// student between classes simply is not on the air.
type ScheduleConfig struct {
	// Slack merges contact gaps shorter than itself: two sessions
	// separated by less than Slack count as one connected interval, so
	// sampling artifacts in the generator do not become partition flaps.
	Slack simtime.Duration
}

// errSchedule reports an unusable trace or node for a partition schedule.
var errSchedule = errors.New("swarm: invalid schedule input")

// Compress is the simulated time one beat stands for, 25 minutes: a
// trace day is ≈ 58 beats, the contact granularity of a 25 ms hello
// interval at one simulated minute per wall millisecond.
const Compress = 25 * simtime.Minute

// beat maps a simulated instant onto the beat it falls in.
func beat(t simtime.Time) int { return int(simtime.Duration(t) / Compress) }

// PartitionSchedule renders one node's mobility into events: a heal when
// the node enters a contact interval, a partition when it leaves. The
// schedule starts at the trace's t=0, so a node whose first contact is
// later begins partitioned. The returned events are ordered by beat.
func PartitionSchedule(tr *trace.Trace, id trace.NodeID, cfg ScheduleConfig) ([]Event, error) {
	if tr == nil {
		return nil, fmt.Errorf("swarm: nil trace: %w", errSchedule)
	}
	if id < 0 || int(id) >= tr.NodeCount {
		return nil, fmt.Errorf("swarm: node %d outside population %d: %w", id, tr.NodeCount, errSchedule)
	}

	// Collect and merge the node's contact intervals. Sessions arrive
	// sorted by start, so a single forward pass merges overlaps and
	// sub-Slack gaps.
	type ival struct{ start, end simtime.Time }
	var merged []ival
	for _, s := range tr.Sessions {
		if !s.Contains(id) {
			continue
		}
		cur := ival{start: s.Start, end: s.End}
		if n := len(merged); n > 0 && cur.start <= merged[n-1].end.Add(cfg.Slack) {
			if cur.end > merged[n-1].end {
				merged[n-1].end = cur.end
			}
			continue
		}
		merged = append(merged, cur)
	}

	// Render intervals as heal/partition edges. A node's default state
	// is connected, so a node absent at t=0 gets an explicit partition
	// event at beat zero.
	var events []Event
	if len(merged) == 0 || merged[0].start > 0 {
		events = append(events, Event{Beat: 0, Partition: true})
	}
	for _, iv := range merged {
		if iv.start > 0 {
			events = append(events, Event{Beat: beat(iv.start), Partition: false})
		}
		events = append(events, Event{Beat: beat(iv.end), Partition: true})
	}
	return events, nil
}

// PartitionSchedules renders every node of the trace, keyed by node ID —
// Config.Schedules.
func PartitionSchedules(tr *trace.Trace, cfg ScheduleConfig) (map[trace.NodeID][]Event, error) {
	if tr == nil {
		return nil, fmt.Errorf("swarm: nil trace: %w", errSchedule)
	}
	out := make(map[trace.NodeID][]Event, tr.NodeCount)
	for id := trace.NodeID(0); int(id) < tr.NodeCount; id++ {
		ev, err := PartitionSchedule(tr, id, cfg)
		if err != nil {
			return nil, err
		}
		out[id] = ev
	}
	return out, nil
}
