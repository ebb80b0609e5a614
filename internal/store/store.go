package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"path"
	"sort"
	"sync"

	"repro/internal/metadata"
	"repro/internal/trace"
)

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func join(dir, name string) string { return path.Join(dir, name) }

// FileState is everything the store knows about one file.
type FileState struct {
	// Meta is the learned metadata record; nil for a file the node only
	// holds cached pieces of.
	Meta       *metadata.Metadata
	Popularity float64
	// Selected marks the file as wanted for download.
	Selected bool
	// Total is the piece count; Have[i] marks piece i verified and held.
	Total int
	Have  []bool
}

// HaveCount returns the number of held pieces.
func (f *FileState) HaveCount() int {
	n := 0
	for _, h := range f.Have {
		if h {
			n++
		}
	}
	return n
}

// QuarantineState is one peer's persisted quarantine penalty.
type QuarantineState struct {
	Strikes        int
	UntilUnixMilli int64
}

// State is the materialized view the WAL and snapshots describe: what a
// node recovers after a restart.
type State struct {
	Files      map[metadata.URI]*FileState
	Credit     map[trace.NodeID]float64
	Quarantine map[trace.NodeID]QuarantineState
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Files:      make(map[metadata.URI]*FileState),
		Credit:     make(map[trace.NodeID]float64),
		Quarantine: make(map[trace.NodeID]QuarantineState),
	}
}

// Len counts the records a snapshot of the state would hold.
func (st *State) Len() int {
	n := 0
	for _, f := range st.Files {
		if f.Meta != nil {
			n++
		}
		n += f.HaveCount()
	}
	return n + len(st.Credit) + len(st.Quarantine)
}

// Apply folds one record into the state. Records are idempotent and
// commutative enough for the replay windows the store produces:
// applying a prefix of the log always yields a consistent state.
func (st *State) Apply(rec Record) {
	switch r := rec.(type) {
	case *PieceRecord:
		f := st.ensureFile(r.URI, r.Total)
		if r.Index < len(f.Have) {
			f.Have[r.Index] = true
		}
	case *MetadataRecord:
		f := st.ensureFile(r.Meta.URI, r.Meta.NumPieces())
		m := r.Meta
		f.Meta = &m
		if r.Popularity > f.Popularity {
			f.Popularity = r.Popularity
		}
		if r.Selected {
			f.Selected = true
		}
	case *CreditRecord:
		st.Credit[r.Peer] += r.Delta
	case *QuarantineRecord:
		cur := st.Quarantine[r.Peer]
		if r.Strikes >= cur.Strikes || r.UntilUnixMilli >= cur.UntilUnixMilli {
			st.Quarantine[r.Peer] = QuarantineState{Strikes: r.Strikes, UntilUnixMilli: r.UntilUnixMilli}
		}
	}
}

func (st *State) ensureFile(uri metadata.URI, total int) *FileState {
	f := st.Files[uri]
	if f == nil {
		f = &FileState{Total: total, Have: make([]bool, total)}
		st.Files[uri] = f
	}
	if total > f.Total {
		// A record with a larger piece count corrects an earlier
		// pieces-only guess; grow the bitmap, never shrink it.
		grown := make([]bool, total)
		copy(grown, f.Have)
		f.Have = grown
		f.Total = total
	}
	return f
}

// clone deep-copies the state so callers can keep it past later appends.
func (st *State) clone() *State {
	out := NewState()
	for uri, f := range st.Files {
		nf := &FileState{
			Popularity: f.Popularity,
			Selected:   f.Selected,
			Total:      f.Total,
			Have:       append([]bool(nil), f.Have...),
		}
		if f.Meta != nil {
			nf.Meta = f.Meta.Clone()
		}
		out.Files[uri] = nf
	}
	for p, c := range st.Credit {
		out.Credit[p] = c
	}
	for p, q := range st.Quarantine {
		out.Quarantine[p] = q
	}
	return out
}

func sortedPeers(m map[trace.NodeID]float64) []trace.NodeID {
	out := make([]trace.NodeID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedQuarantine(m map[trace.NodeID]QuarantineState) []trace.NodeID {
	out := make([]trace.NodeID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if missing.
	Dir string
	// FS overrides the filesystem (fault injection); nil uses the OS.
	FS FS
	// NoSync skips the per-append fsync. Only benchmarks should set it:
	// it voids the durability contract.
	NoSync bool
	// CompactEvery triggers an automatic snapshot once the WAL exceeds
	// this many bytes (default DefaultCompactEvery; negative disables).
	CompactEvery int64
}

// DefaultCompactEvery is the WAL size that triggers auto-compaction.
const DefaultCompactEvery = 1 << 20

// RecoveryStats describes what Open found, for /healthz and /stats.
type RecoveryStats struct {
	// Recovered is true when the store opened against existing data.
	Recovered bool `json:"recovered"`
	// SnapshotRecords and WALRecords count replayed records per source.
	SnapshotRecords int `json:"snapshot_records"`
	WALRecords      int `json:"wal_records"`
	// TornBytes is the torn WAL tail truncated at open (a crash
	// mid-append leaves one).
	TornBytes int64 `json:"torn_bytes"`
	// WALSizeAtOpen is the valid WAL length replayed.
	WALSizeAtOpen int64 `json:"wal_size_at_open"`
}

// Stats is the store's live observability surface. Appended counts
// records logged and Batches the write+fsync rounds that logged them,
// so Appended/Batches is the group-commit factor.
type Stats struct {
	Recovery     RecoveryStats `json:"recovery"`
	Appended     uint64        `json:"appended"`
	Batches      uint64        `json:"batches"`
	AppendErrors uint64        `json:"append_errors"`
	Compactions  uint64        `json:"compactions"`
	WALSize      int64         `json:"wal_size"`
	LastSeq      uint64        `json:"last_seq"`
	// Broken reports a store gone read-only after an unrepaired write
	// failure; appends return ErrBroken until the process restarts.
	Broken bool `json:"broken"`
}

// ErrClosed reports use of a closed store; ErrBroken a store whose WAL
// failed in a way repair could not undo, so further appends could
// shadow good records behind garbage.
var (
	ErrClosed = errors.New("store: closed")
	ErrBroken = errors.New("store: broken wal (unrepaired append failure)")
)

// Store is the node's durable state. Construct with Open; Append and
// AppendBatch are safe for concurrent use.
type Store struct {
	opt Options
	fs  FS

	// mu serialises writers and is held across their disk I/O.
	mu     sync.Mutex
	w      *wal
	state  *State
	seq    uint64
	closed bool
	broken bool

	// stats is what Stats returns, under its own lock so a reader never
	// waits behind an fsync. Writers update it through publish, still
	// holding mu.
	statsMu sync.Mutex
	stats   Stats
}

// Open mounts the data directory: loads the newest snapshot, replays
// the WAL's valid prefix on top (skipping records the snapshot already
// folded in), truncates any torn tail, and returns the store ready for
// appends. The recovered state is available via State().
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("store: empty data dir")
	}
	if opt.FS == nil {
		opt.FS = OSFS{}
	}
	if opt.CompactEvery == 0 {
		opt.CompactEvery = DefaultCompactEvery
	}
	fs := opt.FS
	if err := fs.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", opt.Dir, err)
	}
	// A leftover temp snapshot is an uncommitted write from a crashed
	// compaction; it never became live, so drop it.
	if _, err := fs.Stat(join(opt.Dir, snapTmpName)); err == nil {
		if err := fs.Remove(join(opt.Dir, snapTmpName)); err != nil {
			return nil, fmt.Errorf("store: remove stale snapshot temp: %w", err)
		}
	}
	lastSeq, st, snapRecords, err := readSnapshot(fs, opt.Dir)
	if err != nil {
		return nil, err
	}
	w, entries, torn, err := openWAL(fs, join(opt.Dir, walName))
	if err != nil {
		return nil, err
	}
	seq := lastSeq
	walRecords := 0
	for _, e := range entries {
		if e.seq <= lastSeq {
			// Already folded into the snapshot: the crash window between
			// snapshot commit and WAL reset replays here.
			continue
		}
		st.Apply(e.rec)
		walRecords++
		if e.seq > seq {
			seq = e.seq
		}
	}
	s := &Store{opt: opt, fs: fs, w: w, state: st, seq: seq}
	s.stats = Stats{
		Recovery: RecoveryStats{
			Recovered:       snapRecords > 0 || len(entries) > 0 || torn > 0,
			SnapshotRecords: snapRecords,
			WALRecords:      walRecords,
			TornBytes:       torn,
			WALSizeAtOpen:   w.size,
		},
		WALSize: w.size,
		LastSeq: seq,
	}
	return s, nil
}

// publish applies a writer's counter changes to the stats snapshot and
// refreshes its mirror of the log position. The caller holds mu.
func (s *Store) publish(update func(*Stats)) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	update(&s.stats)
	s.stats.WALSize, s.stats.LastSeq, s.stats.Broken = s.w.size, s.seq, s.broken
}

// State returns a deep copy of the recovered (plus since-appended)
// state.
func (s *Store) State() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.clone()
}

// Append logs one record durably: AppendBatch of one.
func (s *Store) Append(rec Record) error { return s.AppendBatch([]Record{rec}) }

// AppendBatch logs recs durably and all-or-nothing, in order, for the
// price of one write and one fsync: the call returns nil only after
// every frame is written and fsynced, so callers may acknowledge the
// events the moment it returns; on error none of them is logged. The
// records are also folded into the in-memory state. A crash mid-call
// recovers a prefix of recs. When the WAL has grown past CompactEvery,
// a snapshot is taken inline.
func (s *Store) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.broken {
		s.publish(func(st *Stats) { st.AppendErrors++ })
		return ErrBroken
	}
	if err := s.w.append(s.seq+1, recs, s.opt.NoSync); err != nil {
		// A failed repair means the file may hold a torn frame that new
		// appends would bury; refuse to make it worse.
		if errors.Is(err, errUnrepaired) {
			s.broken = true
		}
		s.publish(func(st *Stats) { st.AppendErrors++ })
		return err
	}
	s.seq += uint64(len(recs))
	for _, rec := range recs {
		s.state.Apply(rec)
	}
	s.publish(func(st *Stats) {
		st.Appended += uint64(len(recs))
		st.Batches++
	})
	if s.opt.CompactEvery > 0 && s.w.size > s.opt.CompactEvery {
		// Best effort: a failed compaction leaves the WAL as the source
		// of truth and the next append past the threshold tries again.
		_ = s.compactLocked()
	}
	return nil
}

// Compact writes a snapshot of the current state and resets the WAL.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	img := encodeSnapshot(s.seq, s.state)
	if err := writeSnapshot(s.fs, s.opt.Dir, img); err != nil {
		return err
	}
	// The snapshot is durable; the WAL's contents are redundant. A crash
	// before (or during) this reset replays WAL entries whose seq the
	// snapshot already covers, which Open skips.
	if err := s.w.reset(); err != nil {
		return err
	}
	s.publish(func(st *Stats) { st.Compactions++ })
	return nil
}

// Close flushes and closes the store. A store with appended records
// gets a final compaction so the next Open replays a snapshot instead
// of a long log; failures fall back to leaving the (already durable)
// WAL in place.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if !s.broken && s.w.size > 0 {
		_ = s.compactLocked() // best effort: the WAL is already durable
	}
	return s.w.close()
}

// Stats snapshots the store's counters. It never waits for disk I/O.
func (s *Store) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}
