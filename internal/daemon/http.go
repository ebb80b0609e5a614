package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
)

// Health is the liveness verdict served by /healthz. OK is false when
// the daemon is degraded; Reasons says why.
type Health struct {
	Status        string       `json:"status"`
	Reasons       []string     `json:"reasons,omitempty"`
	ID            trace.NodeID `json:"id"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Peers         int          `json:"peers"`
	// OutboxLen/OutboxCap total the per-peer send lanes across classes
	// and live sessions; the per-class depths show which is backed up.
	OutboxLen          int `json:"outbox_len"`
	OutboxCap          int `json:"outbox_cap"`
	OutboxControlDepth int `json:"outbox_control_depth"`
	OutboxDataDepth    int `json:"outbox_data_depth"`
	// Recovery reports what the durable store replayed at start (only
	// with a data directory configured); WALSizeBytes is the live log
	// size. A store that went read-only after an unrepaired write
	// failure degrades the daemon.
	Recovery     *store.RecoveryStats `json:"recovery,omitempty"`
	WALSizeBytes int64                `json:"wal_size_bytes,omitempty"`
}

// Health evaluates the daemon's liveness: degraded when it has had zero
// live peers for longer than the liveness window (it cannot make
// protocol progress alone), when any peer's send lane is full (handlers
// are generating traffic for that peer faster than its link drains it,
// so frames of that class to it are being dropped on the floor), or
// while admission control sheds inbound traffic. Every reason reads live
// state — nothing latches, so the verdict walks back to "ok" as soon
// as the condition clears.
func (d *Daemon) Health() Health {
	peers := len(d.mgr.Peers())
	wall := d.clock()
	d.mu.Lock()
	lastPeer := d.lastPeerAt
	lastShed := d.lastShedAt
	d.mu.Unlock()
	if lastPeer.IsZero() {
		lastPeer = d.started
	}
	q := d.mgr.Queues()
	h := Health{
		Status:             "ok",
		ID:                 d.cfg.ID,
		UptimeSeconds:      wall.Sub(d.started).Seconds(),
		Peers:              peers,
		OutboxLen:          q.ControlDepth + q.DataDepth,
		OutboxCap:          q.Cap,
		OutboxControlDepth: q.ControlDepth,
		OutboxDataDepth:    q.DataDepth,
	}
	if peers == 0 {
		if alone := wall.Sub(lastPeer); alone > d.cfg.LivenessWindow {
			h.Reasons = append(h.Reasons,
				fmt.Sprintf("no live peers for %s (liveness window %s)",
					alone.Truncate(time.Millisecond), d.cfg.LivenessWindow))
		}
	}
	if q.Saturated {
		h.Reasons = append(h.Reasons,
			fmt.Sprintf("outbox saturated (a peer's send lane is full; control %d, data %d queued of %d in all, dropping)",
				q.ControlDepth, q.DataDepth, q.Cap))
	}
	if !lastShed.IsZero() {
		if since := wall.Sub(lastShed); since < d.cfg.LivenessWindow {
			h.Reasons = append(h.Reasons,
				fmt.Sprintf("admission control shedding inbound traffic (last shed %s ago)",
					since.Truncate(time.Millisecond)))
		}
	}
	if d.store != nil {
		ss := d.store.Stats()
		h.Recovery = &ss.Recovery
		h.WALSizeBytes = ss.WALSize
		if ss.Broken {
			h.Reasons = append(h.Reasons,
				"durable store is read-only (unrepaired WAL write failure); state changes are not persisting")
		}
	}
	if len(h.Reasons) > 0 {
		h.Status = "degraded"
	}
	return h
}

// Handler returns the daemon's HTTP surface:
//
//	GET /healthz — liveness: 200 {"status":"ok", ...} while healthy,
//	               503 {"status":"degraded","reasons":[...]} when the
//	               daemon has no live peers past the liveness window or
//	               its outbox is saturated
//	GET /stats   — the full Stats snapshot
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := d.Health()
		code := http.StatusOK
		if h.Status != "ok" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Stats())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
