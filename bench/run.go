package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bcast"
	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/metadata"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
)

const (
	// downloadDeadline is how long a download may take before it counts
	// as failed.
	downloadDeadline = 60 * time.Second
	bootDeadline     = 30 * time.Second
)

// iteration is one boot → query → complete → teardown cycle.
type iteration struct {
	metrics     map[string]float64 // every metric this iteration can know, by name
	perDownload []float64          // seconds from query to verified complete
	attempted   int
	failed      int
	problems    []string // correctness failures, for the log
	unresolved  string   // why the timer-intervention guard set this iteration aside
	digest      string   // topology plus completion set
	tr          *tracer
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func waitUntil(limit time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// runIteration runs workload w once on the given inputs. The load
// generator is this one goroutine: it issues every downloader's queries
// and then waits — a closed loop with one outstanding download per
// downloader×file. An error means the harness could not run the
// workload; a download that did not finish or did not verify is counted
// in failed instead.
func runIteration(w spec, in inputs, traced bool, dataRoot string) (*iteration, error) {
	var refs map[metadata.URI]*metadata.Metadata
	if traced {
		// Built before the clock starts: hashing the files a second time is
		// the benchmark's cost, not the program's set-up.
		refs = make(map[metadata.URI]*metadata.Metadata, w.files)
		for f := 0; f < w.files; f++ {
			rec := metadata.NewSynthetic(metadata.FileID(f), "", "", "", in.fileSize, w.pieceSize, 0, 1, nil)
			refs[rec.URI] = rec
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseHeap, baseGoroutines := ms.HeapAlloc, runtime.NumGoroutine()
	start := time.Now()

	uris := make([]metadata.URI, w.files)
	for f := range uris {
		uris[f] = metadata.URIFor(metadata.FileID(f))
	}
	var keys []dlKey
	for n := 1; n < w.nodes; n++ {
		for _, u := range uris {
			keys = append(keys, dlKey{trace.NodeID(n), u})
		}
	}
	it := &iteration{attempted: len(keys)}
	if traced {
		it.tr = newTracer(keys, refs)
	}
	tr := it.tr

	var base transport.Transport = &transport.TCP{}
	var loop *transport.Loopback
	framing := 4 // transport's length prefix on TCP
	if !w.tcp {
		loop = transport.NewLoopback()
		base, framing = loop, 0
	}
	var chaos *fault.Transport
	var radio, symbols *transport.BroadcastDomain
	if w.fec {
		radio, symbols = loop.Domain("radio"), loop.SymbolDomain("radio")
		chaos = fault.Wrap(loop, fault.Config{Seed: in.seed, SymbolLoss: w.symbolLoss})
	}
	liveness := w.liveness
	if liveness == 0 {
		liveness = 6 * w.hello
	}

	type completion struct {
		key dlKey
		at  time.Time
	}
	// OnComplete fires once per download, so this never blocks a daemon.
	done := make(chan completion, len(keys))

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	shutdown := func() {
		cancel()
		wg.Wait()
		if loop != nil {
			loop.Close()
		}
	}
	defer shutdown()

	daemons := make([]*daemon.Daemon, w.nodes)
	addrs := make([]string, w.nodes)
	disks := make([]*diskFS, w.nodes)
	dirs := make([]string, w.nodes)
	for i := range daemons {
		id := trace.NodeID(i)
		cfg := daemon.Config{
			ID:             id,
			Transport:      base,
			ListenAddr:     fmt.Sprintf("n%d", i),
			FileSize:       in.fileSize,
			PieceSize:      w.pieceSize,
			PiecesPerHello: w.piecesPerHello,
			HelloInterval:  w.hello,
			LivenessWindow: liveness,
			ResendAfter:    w.resendAfter,
			OutboxLen:      w.outboxLen,
			MaxPeers:       64,
			RetryBudget:    64,
			FetchMatching:  true,
			Backoff:        transport.Backoff{Min: w.hello / 4, Max: liveness, Jitter: -1},
			OnComplete: func(uri metadata.URI) {
				done <- completion{dlKey{id, uri}, time.Now()}
			},
		}
		if w.tcp {
			cfg.ListenAddr = "127.0.0.1:0"
		}
		if tr != nil {
			cfg.Transport = &meterTransport{inner: base, t: tr, node: id, framing: framing}
		}
		for _, j := range in.dials[i] {
			cfg.PeerAddrs = append(cfg.PeerAddrs, addrs[j])
		}
		if i == 0 {
			cfg.InternetAccess = true
			cfg.PublishFiles = w.files
		} else if w.wal {
			dl := int32(-1)
			if tr != nil && w.files == 1 {
				dl = tr.byKey[dlKey{id, uris[0]}]
			}
			disks[i] = newDiskFS(w.syncDelay, tr, dl)
			dirs[i] = filepath.Join(dataRoot, fmt.Sprintf("n%d", i))
			cfg.DataDir, cfg.StoreFS = dirs[i], disks[i]
		}
		if w.fec {
			bc, err := radio.Join(cfg.ListenAddr)
			if err != nil {
				return nil, err
			}
			sym, err := symbols.Join(cfg.ListenAddr)
			if err != nil {
				return nil, err
			}
			cfg.Broadcast, cfg.Symbols = bc, chaos.WrapSymbols(sym)
			if tr != nil {
				cfg.Broadcast = &meterLane{lane: cfg.Broadcast, t: tr, node: id}
				cfg.Symbols = &meterLane{lane: cfg.Symbols, t: tr, node: id}
			}
			cfg.EnableBcast, cfg.EnableFEC = true, true
			cfg.SymbolSize, cfg.RelayBudget, cfg.Fault = w.symbolSize, 1, chaos
		}
		d, err := daemon.New(cfg)
		if err != nil {
			return nil, err
		}
		daemons[i] = d
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Run(ctx) // returns ctx's error at shutdown; a failed Listen shows as the wait below timing out
		}()
		if err := waitUntil(bootDeadline, fmt.Sprintf("node %d to listen", i), func() bool { return d.Addr() != "" }); err != nil {
			return nil, err
		}
		addrs[i] = d.Addr()
	}
	if err := waitUntil(bootDeadline, "every session to handshake", func() bool {
		for i, d := range daemons {
			if len(d.Manager().Peers()) < in.links[i] {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}
	booted := time.Now()
	if w.fec {
		if err := waitUntil(bootDeadline, "every node to confirm the full group", func() bool {
			for _, d := range daemons {
				st := d.Stats().Bcast
				if st == nil || !st.Confirmed || len(st.Group) != w.nodes {
					return false
				}
			}
			return true
		}); err != nil {
			return nil, err
		}
	}
	goroutines := runtime.NumGoroutine() - baseGoroutines
	runtime.ReadMemStats(&ms)
	heap := float64(0)
	if ms.HeapAlloc > baseHeap {
		heap = float64(ms.HeapAlloc - baseHeap)
	}

	// The measured window opens here: first query issued.
	cpu0 := cpuSeconds()
	issued := time.Now()
	if tr != nil {
		q := tr.now()
		for _, d := range tr.downloads {
			d.query.Store(q)
		}
	}
	for n := 1; n < w.nodes; n++ {
		for f := 0; f < w.files; f++ {
			daemons[n].AddQuery(fmt.Sprintf("f%d", f))
		}
	}
	finished := make(map[dlKey]time.Time, len(keys))
	deadline := time.After(downloadDeadline)
	last := issued
wait:
	for len(finished) < len(keys) {
		select {
		case c := <-done:
			finished[c.key] = c.at
			if c.at.After(last) {
				last = c.at
			}
			if tr != nil {
				tr.downloads[tr.byKey[c.key]].done.Store(int64(c.at.Sub(tr.epoch)) + 1)
			}
		case <-deadline:
			break wait
		}
	}
	cpu := cpuSeconds() - cpu0
	if len(finished) < len(keys) {
		last = time.Now()
	}
	window := last.Sub(issued)

	// Counters are read before teardown: shutdown's own work (the store's
	// closing snapshot, goodbye frames) is not part of the download.
	stats := make([]daemon.Stats, w.nodes)
	for i, d := range daemons {
		stats[i] = d.Stats()
	}
	it.metrics = layerMetrics(w, stats, disks, chaos, window)
	bad := make(map[dlKey]string)
	for _, k := range keys {
		d := daemons[k.node]
		if _, ok := finished[k]; !ok || !d.Completed(k.uri) {
			bad[k] = "not verified complete by the deadline"
			continue
		}
		have := d.Have(k.uri)
		if len(have) != w.pieces {
			bad[k] = fmt.Sprintf("have-bitmap has %d pieces, want %d", len(have), w.pieces)
		}
		for _, h := range have {
			if !h {
				bad[k] = "have-bitmap has a hole"
			}
		}
	}
	shutdown()

	for i, dir := range dirs {
		if dir == "" {
			continue
		}
		if err := recovered(dir, uris, w.pieces); err != nil {
			for _, u := range uris {
				bad[dlKey{trace.NodeID(i), u}] = err.Error()
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	for k, why := range bad {
		it.problems = append(it.problems, fmt.Sprintf("n%d×%s: %s", k.node, k.uri, why))
	}
	it.failed = len(bad)
	var rejected uint64
	for _, st := range stats {
		rejected += st.PiecesRejected + st.BadSignatures + st.StoreErrors
	}
	if rejected > 0 {
		it.problems = append(it.problems, fmt.Sprintf("%d rejected pieces, bad signatures or store errors", rejected))
		it.failed = it.attempted
	}
	if tr != nil {
		if n := tr.badPieces.Load(); n > 0 {
			it.problems = append(it.problems, fmt.Sprintf("%d received pieces failed independent verification", n))
			it.failed = it.attempted
		}
	}
	sort.Strings(it.problems)

	for _, at := range finished {
		it.perDownload = append(it.perDownload, at.Sub(issued).Seconds())
	}
	it.digest = digest(in, finished)
	m := it.metrics
	verified := m["daemon.pieces_verified"]
	m["setup_s"] = issued.Sub(start).Seconds()
	m["completion_s"] = window.Seconds()
	m["goodput_mibps"] = float64(len(finished)) * float64(in.fileSize) / (1 << 20) / window.Seconds()
	m["process.cpu_ms_per_piece"] = ratio(cpu*1e3, verified)
	m["daemon.boot_s"] = booted.Sub(start).Seconds()
	m["daemon.goroutines_per_node"] = float64(goroutines) / float64(w.nodes)
	m["daemon.heap_bytes_per_node"] = heap / float64(w.nodes)
	m["daemon.e2e_ns_per_piece"] = float64(window) / float64(w.files*w.pieces)
	m["bcast.confirm_ms"] = 0
	if w.fec {
		m["bcast.confirm_ms"] = float64(issued.Sub(booted)) / 1e6
	}
	if tr != nil {
		tr.metricsInto(m)
	}
	it.unresolved = guard(w, m)
	return it, nil
}

// recovered reopens a stopped downloader's data directory the way a
// restart would and requires every piece in the recovered state.
func recovered(dir string, uris []metadata.URI, pieces int) error {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("reopen %s: %w", dir, err)
	}
	state := st.State()
	if err := st.Close(); err != nil {
		return fmt.Errorf("close %s: %w", dir, err)
	}
	for _, u := range uris {
		f := state.Files[u]
		if f == nil || f.HaveCount() != pieces {
			n := 0
			if f != nil {
				n = f.HaveCount()
			}
			return fmt.Errorf("recovered state holds %d of %d pieces", n, pieces)
		}
	}
	return nil
}

// digest hashes the seeded topology with the sorted completion set: the
// outcome of an iteration, independent of how it was interleaved.
func digest(in inputs, finished map[dlKey]time.Time) string {
	keys := make([]string, 0, len(finished))
	for k := range finished {
		keys = append(keys, fmt.Sprintf("%d:%s", k.node, k.uri))
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(fmt.Sprintf("%v %d\n%s", in.dials, in.fileSize, strings.Join(keys, "\n"))))
	return hex.EncodeToString(sum[:8])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics sums every node's Stats into the per-layer metrics, and
// the paper's currency: piece-equivalent transmissions per verified piece.
func layerMetrics(w spec, stats []daemon.Stats, disks []*diskFS, chaos *fault.Transport, window time.Duration) map[string]float64 {
	m := make(map[string]float64)
	add := func(name string, v uint64) { m[name] += float64(v) }
	for _, st := range stats {
		add("peer.hellos_sent", st.Transport.HellosSent)
		add("peer.metadata_sent", st.Transport.MetadataSent)
		add("peer.pieces_sent", st.Transport.PiecesSent)
		add("peer.reconnects", st.Transport.Reconnects)
		add("peer.expiries", st.Transport.Expiries)
		add("peer.inbound_shed", st.Transport.InboundShed)
		add("daemon.pieces_verified", st.PiecesVerified)
		add("daemon.pieces_duplicate", st.PiecesDuplicate)
		add("daemon.pieces_resent", st.PiecesResent)
		add("daemon.pieces_rejected", st.PiecesRejected)
		add("daemon.outbox_drops_data", st.OutboxDropsData)
		add("daemon.outbox_drops_control", st.OutboxDropsControl)
		add("daemon.stalls", st.Stalls)
		add("daemon.redrives", st.Redrives)
		// A layer that is off (nil stats) adds zeros, so its metrics still
		// exist under their names.
		var s store.Stats
		if st.Store != nil {
			s = *st.Store
		}
		add("store.appended", s.Appended)
		add("store.append_errors", s.AppendErrors)
		add("store.compactions", s.Compactions)
		var b bcast.Stats
		if st.Bcast != nil {
			b = *st.Bcast
		}
		// Every member follows the sequencer's round clock: the furthest
		// one read is the number of rounds.
		m["bcast.rounds"] = max(m["bcast.rounds"], float64(b.Round))
		add("bcast.idle_rounds", b.IdleRounds)
		add("bcast.grants_sent", b.GrantsSent)
		add("bcast.piece_bcasts_sent", b.PieceBcastsSent)
		add("bcast.symbols_sent", b.SymbolsSent)
		add("bcast.symbols_relayed", b.SymbolsRelayed)
		add("bcast.symbols_recv", b.SymbolsRecv)
		add("bcast.fec_decodes", b.FECDecodes)
		add("bcast.fec_verify_fails", b.FECVerifyFails)
		add("bcast.formations", b.Formations)
		add("bcast.collapses", b.Collapses)
	}
	verified := m["daemon.pieces_verified"]
	downloads := float64((w.nodes - 1) * w.files)
	m["peer.hellos_per_verified_piece"] = ratio(m["peer.hellos_sent"], verified)
	m["peer.metadata_sent_per_download"] = ratio(m["peer.metadata_sent"], downloads)
	m["daemon.duplicate_share"] = ratio(m["daemon.pieces_duplicate"], m["daemon.pieces_duplicate"]+verified)
	m["bcast.idle_round_share"] = ratio(m["bcast.idle_rounds"], m["bcast.rounds"])
	k := 0.0
	if w.symbolSize > 0 {
		k = float64(w.pieceSize) / float64(w.symbolSize)
	}
	m["bcast.symbols_per_decode_over_k"] = ratio(ratio(m["bcast.symbols_recv"], m["bcast.fec_decodes"]), k)

	tx := m["peer.pieces_sent"] + m["bcast.piece_bcasts_sent"]
	if k > 0 {
		tx += (m["bcast.symbols_sent"] + m["bcast.symbols_relayed"]) / k
	}
	m["tx_per_verified_piece"] = ratio(tx, verified)

	var syncs, syncBusy, writeBytes float64
	for _, d := range disks {
		if d != nil {
			syncs += float64(d.syncs.Load())
			syncBusy += float64(d.syncBusyNs.Load()) / 1e9
			writeBytes += float64(d.writeBytes.Load())
		}
	}
	m["store.syncs"] = syncs
	m["store.syncs_per_verified_piece"] = ratio(syncs, verified)
	m["store.sync_busy_s"] = syncBusy
	m["store.sync_wait_share"] = ratio(syncBusy, window.Seconds())
	m["store.write_bytes_per_piece"] = ratio(writeBytes, verified)

	m["fault.symbol_loss_realised"] = 0
	if chaos != nil {
		fs := chaos.Stats()
		m["fault.symbol_loss_realised"] = ratio(float64(fs.SymbolsLost), float64(fs.SymbolsSent))
	}
	return m
}

// guard is the timer-intervention check. On the quiet workloads no
// resend, outbox drop, reconnect or expiry is predicted; when one
// happens the iteration timed a protocol recovery, not the data path, so
// it is set aside as unresolved and the run goes on to the next one. The
// same goes for a fault stream that missed its configured loss.
func guard(w spec, m map[string]float64) string {
	if w.quiet {
		for _, name := range []string{
			"daemon.pieces_resent", "daemon.outbox_drops_data", "daemon.outbox_drops_control",
			"peer.reconnects", "peer.expiries",
		} {
			if m[name] != 0 {
				return fmt.Sprintf("%s = %g where the prediction is zero", name, m[name])
			}
		}
	}
	if w.fec {
		if got := m["fault.symbol_loss_realised"]; got < w.symbolLoss-0.02 || got > w.symbolLoss+0.02 {
			return fmt.Sprintf("fault.symbol_loss_realised = %.4f, configured %.2f", got, w.symbolLoss)
		}
	}
	return ""
}

// metricsInto adds what only the seam decorators can see.
func (t *tracer) metricsInto(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var waits []float64
	var busy int64
	for _, s := range t.leaves {
		if s.kind == spSend || s.kind == spSymbolSend {
			waits = append(waits, float64(s.end-s.start)/1e3)
			busy += s.end - s.start
		}
	}
	sort.Float64s(waits)
	m["transport.send_calls"] = float64(t.sendCalls)
	m["transport.recv_calls"] = float64(t.recvCalls)
	m["transport.send_busy_s"] = float64(busy) / 1e9
	m["transport.send_wait_p50_us"] = quantile(waits, 0.50)
	m["transport.send_wait_p99_us"] = quantile(waits, 0.99)
	m["transport.frame_bytes_per_payload_byte"] = ratio(float64(t.frameBytes), float64(t.payloadBytes))
	var meta, data []float64
	for _, d := range t.downloads {
		q := d.query.Load()
		if fm := d.firstMeta.Load(); fm != 0 {
			meta = append(meta, float64(fm-q)/1e6)
		}
		if fd := d.firstData.Load(); fd != 0 {
			data = append(data, float64(fd-q)/1e6)
		}
	}
	m["daemon.first_metadata_ms"] = median(meta)
	m["daemon.first_piece_ms"] = median(data)
}
