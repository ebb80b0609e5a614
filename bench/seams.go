package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The decorators the benchmark puts on the program's public seams:
// transport.Transport (and the Conns it yields), transport.BroadcastConn,
// transport.SymbolConn and store.FS. The transport and lane meters exist
// only in a traced run; the disk model is part of the wal-tcp workload
// and counts in every run.

// Span kinds. The first three are one download's tree, the rest leaves.
const (
	spDownload = iota
	spDiscover
	spTransfer
	spSend
	spRecv
	spWrite
	spSync
	spSymbolSend
	spKinds
)

var spanNames = [spKinds]string{
	"download", "daemon.discover", "daemon.transfer",
	"transport.send", "transport.recv", "store.write", "store.sync", "bcast.symbol_send",
}

// span is one recorded interval; times are ns since the tracer's epoch.
type span struct {
	id, parent int32
	kind       uint8
	dl         int32 // index into tracer.downloads, -1 when the frame names no download
	start, end int64
}

// download is one leecher×URI: the identifier every span of that
// download shares, and the marks its three tree spans are cut from.
type download struct {
	node trace.NodeID
	uri  metadata.URI
	// ns since epoch; 0 = not yet
	query, firstMeta, firstData, done atomic.Int64
}

type dlKey struct {
	node trace.NodeID
	uri  metadata.URI
}

// tracer keeps spans and counts in memory until the run ends.
type tracer struct {
	epoch     time.Time
	downloads []*download
	byKey     map[dlKey]int32 // fixed before any daemon starts
	// refs are records the benchmark built itself; every pairwise piece any
	// node receives is verified against them again, independently of the
	// daemon. (Verified on receipt, not kept for later: holding the pieces
	// would grow the heap, pace the collector differently and make the
	// traced run faster than the plain one.)
	refs      map[metadata.URI]*metadata.Metadata
	badPieces atomic.Int64

	mu           sync.Mutex
	leaves       []span
	sendCalls    int64
	recvCalls    int64
	frameBytes   int64 // bytes Send put on a link, transport framing included
	payloadBytes int64 // piece and symbol payload among them
}

func newTracer(keys []dlKey, refs map[metadata.URI]*metadata.Metadata) *tracer {
	t := &tracer{epoch: time.Now(), byKey: make(map[dlKey]int32, len(keys)), refs: refs}
	for i, k := range keys {
		t.downloads = append(t.downloads, &download{node: k.node, uri: k.uri})
		t.byKey[k] = int32(i)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) + 1 }

// treeID is the id of download dl's tree span of the given kind; leaves
// are numbered after all trees.
func treeID(dl int32, kind int) int32 { return dl*3 + int32(kind) + 1 }

func setOnce(a *atomic.Int64, v int64) { a.CompareAndSwap(0, v) }

// leaf records one leaf span; the caller holds t.mu.
func (t *tracer) leaf(kind int, dl int32, parentKind int, start, end int64) {
	s := span{kind: uint8(kind), dl: dl, start: start, end: end}
	if dl >= 0 {
		s.parent = treeID(dl, parentKind)
	}
	s.id = int32(len(t.downloads)*3 + len(t.leaves) + 1)
	t.leaves = append(t.leaves, s)
}

// frame records one Send or Recv of m on a link of node local whose other
// end is remote (-1 while unknown, and on the shared lanes).
func (t *tracer) frame(kind int, local, remote trace.NodeID, m wire.Msg, start int64, framing int) {
	end := t.now()
	leecher := local
	if kind != spRecv {
		leecher = remote
	}
	var (
		uri     metadata.URI
		payload int
		phase   = spTransfer
		data    bool
	)
	switch v := m.(type) {
	case *wire.Piece:
		uri, payload, data = v.URI, len(v.Data), true
	case *wire.PieceBcast:
		uri, payload, data = v.URI, len(v.Data), true
	case *wire.Symbol:
		uri, payload, data = v.URI, len(v.Payload), true
	case *wire.Metadata:
		uri, phase = v.Record.URI, spDiscover
	}
	dl := int32(-1)
	if uri != "" {
		if i, ok := t.byKey[dlKey{leecher, uri}]; ok {
			dl = i
			if kind == spRecv {
				if data {
					setOnce(&t.downloads[i].firstData, end)
				} else {
					setOnce(&t.downloads[i].firstMeta, end)
				}
			}
		}
	}
	if p, ok := m.(*wire.Piece); ok && kind == spRecv {
		if rec := t.refs[p.URI]; rec == nil || !rec.VerifyPiece(p.Index, p.Data) {
			t.badPieces.Add(1)
		}
	}
	sent := 0
	if kind != spRecv {
		sent = frameLen(m) + framing
	}

	t.mu.Lock()
	t.leaf(kind, dl, phase, start, end)
	if kind == spRecv {
		t.recvCalls++
	} else {
		t.sendCalls++
		t.payloadBytes += int64(payload)
		t.frameBytes += int64(sent)
	}
	t.mu.Unlock()
}

// frameLen is the encoded length of m. Bulk payloads are not encoded a
// second time: their codecs copy the payload verbatim, so header plus
// payload length is exact.
func frameLen(m wire.Msg) int {
	switch v := m.(type) {
	case *wire.Piece:
		if v.Piggyback == nil {
			h := *v
			h.Data = nil
			return len(wire.EncodePiece(&h)) + len(v.Data)
		}
	case *wire.PieceBcast:
		h := *v
		h.Data = nil
		return len(wire.EncodePieceBcast(&h)) + len(v.Data)
	case *wire.Symbol:
		h := *v
		h.Payload = nil
		return len(wire.EncodeSymbol(&h)) + len(v.Payload)
	}
	return len(wire.Encode(m))
}

// meterTransport wraps one node's view of the network.
type meterTransport struct {
	inner   transport.Transport
	t       *tracer
	node    trace.NodeID
	framing int // bytes the transport adds per frame (TCP's length prefix)
}

func (m *meterTransport) wrap(c transport.Conn) transport.Conn {
	mc := &meterConn{Conn: c, mt: m}
	mc.remote.Store(-1)
	return mc
}

func (m *meterTransport) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := m.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return m.wrap(c), nil
}

func (m *meterTransport) Listen(addr string) (transport.Listener, error) {
	l, err := m.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &meterListener{Listener: l, mt: m}, nil
}

type meterListener struct {
	transport.Listener
	mt *meterTransport
}

func (l *meterListener) Accept(ctx context.Context) (transport.Conn, error) {
	c, err := l.Listener.Accept(ctx)
	if err != nil {
		return nil, err
	}
	return l.mt.wrap(c), nil
}

type meterConn struct {
	transport.Conn
	mt     *meterTransport
	remote atomic.Int64 // the peer's id, learned from its first hello
}

func (c *meterConn) Send(ctx context.Context, m wire.Msg) error {
	start := c.mt.t.now()
	err := c.Conn.Send(ctx, m)
	c.mt.t.frame(spSend, c.mt.node, trace.NodeID(c.remote.Load()), m, start, c.mt.framing)
	return err
}

func (c *meterConn) Recv(ctx context.Context) (wire.Msg, error) {
	start := c.mt.t.now()
	m, err := c.Conn.Recv(ctx)
	if err != nil {
		return m, err
	}
	if h, ok := m.(*wire.Hello); ok {
		c.remote.Store(int64(h.From))
	}
	c.mt.t.frame(spRecv, c.mt.node, trace.NodeID(c.remote.Load()), m, start, c.mt.framing)
	return m, nil
}

// lane is the method set transport.BroadcastConn and transport.SymbolConn
// share.
type lane interface {
	Send(ctx context.Context, m wire.Msg) error
	Recv(ctx context.Context) (wire.Msg, error)
	Close() error
	Addr() string
}

// meterLane wraps a node's end of a shared medium. A transmission there
// serves the whole group, so sends carry no single download.
type meterLane struct {
	lane
	t    *tracer
	node trace.NodeID
}

func (l *meterLane) Send(ctx context.Context, m wire.Msg) error {
	start := l.t.now()
	err := l.lane.Send(ctx, m)
	kind := spSend
	if _, ok := m.(*wire.Symbol); ok {
		kind = spSymbolSend
	}
	l.t.frame(kind, l.node, -1, m, start, 0)
	return err
}

func (l *meterLane) Recv(ctx context.Context) (wire.Msg, error) {
	start := l.t.now()
	m, err := l.lane.Recv(ctx)
	if err != nil {
		return m, err
	}
	l.t.frame(spRecv, l.node, -1, m, start, 0)
	return m, nil
}

// diskFS is the modelled disk: real OS writes, but Sync and SyncDir cost
// one fixed delay instead of whatever the host's disk does that minute.
// It also counts, and in a traced run records store.write/store.sync
// spans against the node's download.
type diskFS struct {
	store.FS
	delay time.Duration
	sleep func(time.Duration) // time.Sleep; tests count the calls

	syncs, syncBusyNs  atomic.Int64
	writes, writeBytes atomic.Int64
	t                  *tracer
	dl                 int32 // the node's download when it has exactly one, else -1
}

func newDiskFS(delay time.Duration, t *tracer, dl int32) *diskFS {
	return &diskFS{FS: store.OSFS{}, delay: delay, sleep: time.Sleep, t: t, dl: dl}
}

func (d *diskFS) sync() {
	start := time.Now()
	var s int64
	if d.t != nil {
		s = d.t.now()
	}
	d.sleep(d.delay)
	d.syncs.Add(1)
	d.syncBusyNs.Add(int64(time.Since(start)))
	if d.t != nil {
		d.t.mu.Lock()
		d.t.leaf(spSync, d.dl, spTransfer, s, d.t.now())
		d.t.mu.Unlock()
	}
}

func (d *diskFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &diskFile{File: f, d: d}, nil
}

func (d *diskFS) SyncDir(string) error { d.sync(); return nil }

type diskFile struct {
	store.File
	d *diskFS
}

func (f *diskFile) Sync() error { f.d.sync(); return nil }

func (f *diskFile) Write(p []byte) (int, error) {
	var s int64
	if f.d.t != nil {
		s = f.d.t.now()
	}
	n, err := f.File.Write(p)
	f.d.writes.Add(1)
	f.d.writeBytes.Add(int64(n))
	if f.d.t != nil {
		f.d.t.mu.Lock()
		f.d.t.leaf(spWrite, f.d.dl, spTransfer, s, f.d.t.now())
		f.d.t.mu.Unlock()
	}
	return n, err
}

// tree cuts the three tree spans of every download that has its marks.
func (t *tracer) tree() []span {
	var out []span
	for i, d := range t.downloads {
		q, fm, fd, done := d.query.Load(), d.firstMeta.Load(), d.firstData.Load(), d.done.Load()
		if q == 0 || done == 0 {
			continue
		}
		dl := int32(i)
		root := treeID(dl, spDownload)
		out = append(out, span{id: root, kind: spDownload, dl: dl, start: q, end: done})
		if fm != 0 {
			out = append(out, span{id: treeID(dl, spDiscover), parent: root, kind: spDiscover, dl: dl, start: q, end: fm})
		}
		if fd != 0 {
			out = append(out, span{id: treeID(dl, spTransfer), parent: root, kind: spTransfer, dl: dl, start: fd, end: done})
		}
	}
	return out
}

// kindTotals is what one span name adds up to.
type kindTotals struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize adds up duration and self time per span name. Self time is a
// span's duration minus the part of it its children cover.
func summarize(tree, leaves []span) map[string]kindTotals {
	children := make(map[int32][][2]int64)
	for _, set := range [][]span{tree, leaves} {
		for _, s := range set {
			if s.parent != 0 {
				children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
			}
		}
	}
	out := make(map[string]kindTotals)
	add := func(s span, self int64) {
		k := out[spanNames[s.kind]]
		k.Count++
		k.TotalMs += float64(s.end-s.start) / 1e6
		k.SelfMs += float64(self) / 1e6
		out[spanNames[s.kind]] = k
	}
	for _, s := range tree {
		add(s, (s.end-s.start)-covered(children[s.id], s.start, s.end))
	}
	for _, s := range leaves {
		add(s, s.end-s.start)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	at := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// spanJSON is the trace file's span form.
type spanJSON struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent,omitempty"`
	Name     string `json:"name"`
	Download string `json:"download,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func (t *tracer) export(s span) spanJSON {
	j := spanJSON{ID: s.id, Parent: s.parent, Name: spanNames[s.kind], StartNs: s.start, EndNs: s.end}
	if s.dl >= 0 {
		d := t.downloads[s.dl]
		j.Download = fmt.Sprintf("n%d×%s", d.node, d.uri)
	}
	return j
}
