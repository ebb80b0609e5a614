package swarm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// ScheduleConfig shapes the contact-trace → fault-injector adapter: it
// turns one node's presence in a mobility trace into a partition/heal
// schedule the chaos transport can replay. While the trace has the node
// inside at least one session the node is connected; between sessions it
// is partitioned — the live-stack rendering of partial mobility, where a
// bus between meetings or a student between classes simply is not on the
// air.
type ScheduleConfig struct {
	// Compress divides simulated time: one simulated Compress-duration
	// becomes one wall millisecond. DefaultCompress turns a simulated
	// minute into a wall millisecond, so a 7-day trace replays in ~10
	// seconds. Compress <= 0 picks the default.
	Compress simtime.Duration
	// Slack merges contact gaps shorter than itself: two sessions
	// separated by less than Slack count as one connected interval, so
	// sampling artifacts in the generator do not become partition flaps.
	Slack simtime.Duration
	// Horizon truncates the schedule (0 = the whole trace): events past
	// the horizon are dropped, and a node connected at the horizon stays
	// connected. Soak tests use it to replay just the head of a trace.
	Horizon simtime.Duration
}

// errSchedule reports an unusable trace or node for a partition schedule.
var errSchedule = errors.New("swarm: invalid schedule input")

// DefaultCompress maps one simulated minute onto one wall millisecond.
const DefaultCompress = simtime.Minute

// wall maps a simulated instant onto a wall-clock offset under the
// compression factor.
func (c ScheduleConfig) wall(t simtime.Time) time.Duration {
	compress := c.Compress
	if compress <= 0 {
		compress = DefaultCompress
	}
	return time.Duration(float64(t) / float64(compress) * float64(time.Millisecond))
}

// PartitionSchedule renders one node's mobility into fault events: a
// heal when the node enters a contact interval, a partition when it
// leaves. The schedule starts at the trace's t=0, so a node whose first
// contact is later begins partitioned. The returned events are ordered
// by offset and ready for fault.Config.Schedule on that node's
// transport.
func PartitionSchedule(tr *trace.Trace, id trace.NodeID, cfg ScheduleConfig) ([]fault.Event, error) {
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
		if cfg.Horizon > 0 && s.Start >= simtime.Time(cfg.Horizon) {
			break
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

	// Render intervals as heal/partition edges. The injector's default
	// state is connected, so a node absent at t=0 gets an explicit
	// partition event at offset zero.
	var events []fault.Event
	if len(merged) == 0 || merged[0].start > 0 {
		events = append(events, fault.Event{At: 0, Partition: true})
	}
	for i, iv := range merged {
		if iv.start > 0 {
			events = append(events, fault.Event{At: cfg.wall(iv.start), Partition: false})
		}
		last := i == len(merged)-1
		if cfg.Horizon > 0 && simtime.Duration(iv.end) >= cfg.Horizon && last {
			continue // connected through the horizon: no trailing partition
		}
		events = append(events, fault.Event{At: cfg.wall(iv.end), Partition: true})
	}
	return events, nil
}

// PartitionSchedules renders every node of the trace, keyed by node ID —
// the swarm harness hands each node's schedule to its own fault
// transport.
func PartitionSchedules(tr *trace.Trace, cfg ScheduleConfig) (map[trace.NodeID][]fault.Event, error) {
	if tr == nil {
		return nil, fmt.Errorf("swarm: nil trace: %w", errSchedule)
	}
	out := make(map[trace.NodeID][]fault.Event, tr.NodeCount)
	for id := trace.NodeID(0); int(id) < tr.NodeCount; id++ {
		ev, err := PartitionSchedule(tr, id, cfg)
		if err != nil {
			return nil, err
		}
		out[id] = ev
	}
	return out, nil
}
