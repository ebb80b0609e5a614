package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/clique"
	"repro/internal/fec"
	"repro/internal/metadata"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The ladder: one small driver per layer a piece crosses, run on the
// frames, records and sizes the workload itself generates, so each
// layer's ns/piece can stand beside the end-to-end ns/piece and the
// remainder nobody has accounted for is visible.

// driverBudget is how long one driver measures; ~20 drivers per run.
// A variable only so the smoke tests can shrink it.
var driverBudget = 80 * time.Millisecond

// nsPerOp times op in batches for about driverBudget and returns the
// median batch's ns per call.
func nsPerOp(op func()) float64 {
	op()
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < driverBudget/10 {
		op()
		n++
	}
	samples := []float64{float64(time.Since(start)) / float64(n)}
	for time.Since(start) < driverBudget {
		t := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		samples = append(samples, float64(time.Since(t))/float64(n))
	}
	return median(samples)
}

var sink any // keeps the drivers' results alive

// shapeRecord is a signed record with the workload's piece count; its
// pieces are 64 bytes so building it does not hash the whole file. Codec,
// signature and catalogue costs depend on the hash count, not the bytes.
func shapeRecord(w spec, f int) *metadata.Metadata {
	publisher := "mbtd"
	return metadata.NewSynthetic(metadata.FileID(f), fmt.Sprintf("f%d synthetic file", f), publisher,
		"synthetic catalog file", int64(w.pieces)*64, 64, 0, 1<<40, workload.KeyFor(publisher))
}

func ladder(w spec, in inputs, scratch string) (map[string]float64, error) {
	m := make(map[string]float64)
	uri := metadata.URIFor(0)

	// wire, on the frames this workload puts on its links.
	piece := &wire.Piece{URI: uri, Index: 1, Total: w.pieces, Data: metadata.SyntheticPiece(uri, 1, w.pieceSize)}
	pieceFrame := wire.EncodePiece(piece)
	m["wire.encode_piece_ns"] = nsPerOp(func() { sink = wire.EncodePiece(piece) })
	m["wire.decode_piece_ns"] = nsPerOp(func() { sink, _ = wire.DecodePiece(pieceFrame) })
	var before, after runtime.MemStats
	const trips = 64
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		sink, _ = wire.DecodePiece(wire.EncodePiece(piece))
	}
	runtime.ReadMemStats(&after)
	m["wire.allocs_per_piece_roundtrip"] = float64(after.Mallocs-before.Mallocs) / trips

	// The hello of a downloader half way through: its queries, its
	// downloads, a half-full have-bitmap per file and its heard list.
	hello := &wire.Hello{From: 1}
	for j := 0; j < in.links[w.nodes-1]; j++ {
		hello.Heard = append(hello.Heard, trace.NodeID(j))
	}
	for f := 0; f < w.files; f++ {
		u := metadata.URIFor(metadata.FileID(f))
		hello.Queries = append(hello.Queries, fmt.Sprintf("f%d", f))
		hello.Downloading = append(hello.Downloading, u)
		have := wire.NewGroupWant(u, w.pieces, true)
		for i := 0; i < w.pieces; i += 2 {
			have.SetHave(i)
		}
		hello.Have = append(hello.Have, *have)
	}
	helloFrame := wire.EncodeHello(hello)
	m["wire.hello_bytes"] = float64(len(helloFrame))
	m["wire.encode_hello_ns"] = nsPerOp(func() { sink = wire.EncodeHello(hello) })
	m["wire.decode_hello_ns"] = nsPerOp(func() { sink, _ = wire.DecodeHello(helloFrame) })

	rec := shapeRecord(w, 0)
	meta := &wire.Metadata{Popularity: 0.5, Record: *rec}
	metaFrame := wire.EncodeMetadata(meta)
	m["wire.metadata_bytes"] = float64(len(metaFrame))
	m["wire.encode_metadata_ns"] = nsPerOp(func() { sink = wire.EncodeMetadata(meta) })
	m["wire.decode_metadata_ns"] = nsPerOp(func() { sink, _ = wire.DecodeMetadata(metaFrame) })

	// metadata: content generation, the two verifications, publishing.
	m["metadata.synthetic_piece_ns"] = nsPerOp(func() { sink = metadata.SyntheticPiece(uri, 1, w.pieceSize) })
	twoPieces := metadata.NewSynthetic(0, "f0", "mbtd", "", 2*int64(w.pieceSize), w.pieceSize, 0, 1, nil)
	m["metadata.verify_piece_ns"] = nsPerOp(func() { sink = twoPieces.VerifyPiece(1, piece.Data) })
	key := workload.KeyFor(rec.Publisher)
	m["metadata.verify_record_ns"] = nsPerOp(func() { sink = rec.Verify(key) })
	m["metadata.publish_ns_per_piece"] = nsPerOp(func() {
		sink = metadata.NewSynthetic(0, "f0", "mbtd", "", 2*int64(w.pieceSize), w.pieceSize, 0, 1, nil)
	}) / 2

	// transport: one piece frame across the kind of link the workload uses.
	var err error
	if w.tcp {
		m["transport.tcp_ns_per_piece_frame"], err = linkNsPerFrame(&transport.TCP{}, "127.0.0.1:0", piece)
	} else {
		loop := transport.NewLoopback()
		m["transport.loopback_ns_per_frame"], err = linkNsPerFrame(loop, "ladder", piece)
		loop.Close()
	}
	if err != nil {
		return nil, err
	}

	// server: the seeder's catalogue answers a query per query per hello.
	cat, err := server.NewSafe(1)
	if err != nil {
		return nil, err
	}
	for f := 0; f < w.files; f++ {
		if err := cat.Publish(shapeRecord(w, f)); err != nil {
			return nil, err
		}
	}
	m["server.query_ns"] = nsPerOp(func() { sink = cat.Query(1, "f0", 8) })
	m["server.lookup_ns"] = nsPerOp(func() { sink, _ = cat.Lookup(uri) })

	if w.wal {
		if err := storeLadder(m, w, uri, scratch); err != nil {
			return nil, err
		}
	}
	if w.fec {
		if err := fecLadder(m, w, piece.Data); err != nil {
			return nil, err
		}
		adj := make(map[trace.NodeID][]trace.NodeID, w.nodes)
		for i := 0; i < w.nodes; i++ {
			for j := 0; j < w.nodes; j++ {
				if i != j {
					adj[trace.NodeID(i)] = append(adj[trace.NodeID(i)], trace.NodeID(j))
				}
			}
		}
		m["clique.maximal_cliques_ns"] = nsPerOp(func() { sink = clique.MaximalCliques(adj) })
	}
	return m, nil
}

// linkNsPerFrame pushes frames of m over one fresh link for about
// driverBudget and returns ns per frame, sender's Send to receiver's Recv.
func linkNsPerFrame(tp transport.Transport, addr string, m wire.Msg) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lis, err := tp.Listen(addr)
	if err != nil {
		return 0, err
	}
	defer lis.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := lis.Accept(ctx)
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	out, err := tp.Dial(ctx, lis.Addr())
	if err != nil {
		return 0, err
	}
	defer out.Close()
	in := <-accepted
	if in == nil {
		return 0, fmt.Errorf("ladder: accept on %s failed", lis.Addr())
	}

	// The receiver reports each frame; the channel's slack (one batch of
	// sends and the final error) lets the two sides overlap the way a
	// session pump and an outbox drain do.
	const batch = 16
	got := make(chan error, batch+1)
	go func() {
		defer close(got)
		for {
			_, err := in.Recv(ctx)
			got <- err
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		in.Close()
		for range got {
		}
	}()
	start := time.Now()
	sent, recvd := 0, 0
	for time.Since(start) < driverBudget {
		for i := 0; i < batch; i++ {
			if err := out.Send(ctx, m); err != nil {
				return 0, err
			}
			sent++
		}
		for ; recvd < sent; recvd++ {
			if err := <-got; err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(start)) / float64(sent), nil
}

func storeLadder(m map[string]float64, w spec, uri metadata.URI, scratch string) error {
	dir := filepath.Join(scratch, "ladder")
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: dir, NoSync: true, CompactEvery: -1})
	if err != nil {
		return err
	}
	i := 0
	var appendErr error
	m["store.append_nosync_ns"] = nsPerOp(func() {
		if err := st.Append(&store.PieceRecord{URI: uri, Index: i % w.pieces, Total: w.pieces}); err != nil {
			appendErr = err
		}
		i++
	})
	if err := st.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}

	// What a sync costs on the real disk under the data dir, for
	// reference: the workload itself runs on the modelled disk.
	f, err := os.OpenFile(filepath.Join(dir, "fsync-probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var syncs []float64
	rec := make([]byte, 64)
	for start := time.Now(); len(syncs) < 5 || (time.Since(start) < driverBudget && len(syncs) < 200); {
		if _, err := f.Write(rec); err != nil {
			return err
		}
		t := time.Now()
		if err := f.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, float64(time.Since(t))/1e3)
	}
	m["store.fsync_real_us"] = median(syncs)
	return nil
}

func fecLadder(m map[string]float64, w spec, data []byte) error {
	enc, err := fec.NewEncoder(data, w.symbolSize, 7)
	if err != nil {
		return err
	}
	k := enc.K()
	var buf []byte
	i := 0
	m["fec.encode_symbol_ns"] = nsPerOp(func() {
		// Past the systematic prefix: coded emission is the steady state.
		buf = enc.AppendSymbol(buf[:0], uint32(k+i%(8*k)))
		i++
	})
	// The stream one receiver hears at the workload's loss: which symbols
	// survive is drawn once, decoding it is what gets timed.
	r := rng.New(11)
	var idxs []uint32
	var syms [][]byte
	for idx := uint32(0); len(syms) < 4*k; idx++ {
		if !r.Bool(w.symbolLoss) {
			idxs = append(idxs, idx)
			syms = append(syms, enc.Symbol(idx))
		}
	}
	used := 0
	var decodeErr error
	m["fec.decode_piece_ns"] = nsPerOp(func() {
		dec, err := fec.NewDecoder(enc.Params())
		if err != nil {
			decodeErr = err
			return
		}
		done := false
		for j := 0; j < len(syms) && !done; j++ {
			if done, err = dec.Add(idxs[j], syms[j]); err != nil {
				decodeErr = err
				return
			}
			used = j + 1
		}
		if !done {
			decodeErr = fmt.Errorf("ladder: %d symbols did not decode a K=%d block", len(syms), k)
		}
	})
	m["fec.symbols_to_decode_over_k"] = float64(used) / float64(k)
	return decodeErr
}

// rung is one line of the ladder: a layer's share of one piece's path.
type rung struct {
	Layer string  `json:"layer"`
	Ns    float64 `json:"ns_per_piece"`
}

// rungs lines the layers up for one piece on workload w, from the
// drivers in m, and returns them with their sum.
func rungs(w spec, m map[string]float64) ([]rung, float64) {
	out := []rung{{"metadata.synthetic_piece", m["metadata.synthetic_piece_ns"]}}
	if w.fec {
		// The group plane moves a piece as coded symbols on the lane; the
		// pairwise codec and links carry none of it.
		k := float64(w.pieceSize) / float64(w.symbolSize)
		out = append(out,
			rung{"fec.encode (symbols one decode takes)", k * m["fec.symbols_to_decode_over_k"] * m["fec.encode_symbol_ns"]},
			rung{"fec.decode_piece", m["fec.decode_piece_ns"]})
	} else {
		link := m["transport.tcp_ns_per_piece_frame"] + m["transport.loopback_ns_per_frame"]
		codec := m["wire.encode_piece_ns"] + m["wire.decode_piece_ns"]
		if link < codec {
			link = codec
		}
		out = append(out,
			rung{"wire.encode_piece", m["wire.encode_piece_ns"]},
			rung{"transport (link frame minus codec)", link - codec},
			rung{"wire.decode_piece", m["wire.decode_piece_ns"]})
	}
	out = append(out, rung{"metadata.verify_piece", m["metadata.verify_piece_ns"]})
	if w.wal {
		perPiece := m["store.syncs_per_verified_piece"]
		out = append(out,
			rung{"store.append (records per piece, no sync)", perPiece * m["store.append_nosync_ns"]},
			rung{"store.sync (modelled disk)", ratio(m["store.sync_busy_s"]*1e9, m["daemon.pieces_verified"])})
	}
	sum := 0.0
	for _, r := range out {
		sum += r.Ns
	}
	return out, sum
}
