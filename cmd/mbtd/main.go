// Command mbtd runs one live MBT node over TCP: it beacons hellos,
// answers queries with metadata, and broadcasts verified file pieces to
// downloading peers — the daemon form of the protocol the simulator
// replays.
//
// A two-node localhost session: terminal one hosts the Internet-access
// seed with a three-file catalog,
//
//	mbtd -id 1 -listen 127.0.0.1:7001 -internet -files 3 -http 127.0.0.1:8001
//
// and terminal two runs a mobile node that dials it, searches for file
// f0, and downloads it:
//
//	mbtd -id 2 -listen 127.0.0.1:7002 -peers 127.0.0.1:7001 -query f0 -http 127.0.0.1:8002
//
// Watch `curl 127.0.0.1:8002/stats` until the download shows under
// "completed". SIGINT/SIGTERM shut the daemon down gracefully.
//
// With -data-dir the node's state — verified pieces, metadata, credit,
// quarantines — is persisted through a write-ahead log and survives a
// kill: restart the same command line and the daemon resumes where it
// died, advertising its recovered pieces so peers never re-send them.
// Recovery details appear under "recovery" in /healthz.
//
// With -bcast on three or more fully-meshed daemons, the nodes derive
// their clique from overheard hellos and switch to the §V broadcast
// group schedule: one granted sender per round ships each piece to the
// whole group (fanned out over the TCP links), instead of every
// downloader pulling its own pairwise stream. -tft swaps the
// cooperative coordinator for the tit-for-tat cyclic order. Group
// state appears under "bcast" in /stats.
//
// With -fec (requires -bcast) each daemon additionally opens a UDP
// symbol lane on -listen's port and advertises fountain-coded delivery
// to its group. When every member advertises it, granted senders stream
// rateless coded symbols over the lane instead of broadcasting pieces;
// receivers decode from whichever subset arrives and relay a bounded
// number of symbols to members the sender can't reach. A single
// non--fec member pins the group to the plain piece plane, so mixed
// fleets keep working. Symbol counters appear under "bcast" in /stats.
//
// With -dht every daemon joins a Kademlia-style metadata index layered
// under the gossip: Internet nodes republish their catalog into the
// index, and any node resolves open queries from it — local cache
// first, iterative lookup second — so keyword search keeps working
// after the catalog server dies. -dht-k sets the replication factor
// and -dht-republish the maintenance cadence. Counters appear under
// "dht" in /stats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "mbtd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("mbtd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		id       = fs.Int("id", -1, "node ID (required, unique per daemon)")
		listen   = fs.String("listen", "", "TCP listen address for peer links, e.g. 127.0.0.1:7001")
		peers    = fs.String("peers", "", "comma-separated peer addresses to dial and keep dialed")
		httpAddr = fs.String("http", "", "serve /healthz and /stats on this address (off when empty)")
		internet = fs.Bool("internet", false, "Internet-access node: hosts the catalog, answers queries authoritatively")
		files    = fs.Int("files", 0, "synthetic catalog files to publish at startup (with -internet)")
		fileSize = fs.Int64("file-size", 0, "synthetic file size in bytes (0 = daemon default)")
		pieceSz  = fs.Int("piece-size", 0, "piece size in bytes (0 = daemon default)")
		queries  = fs.String("query", "", "comma-separated query strings this node searches for")
		fetch    = fs.Bool("fetch-matching", true, "download every file whose metadata matches a query")
		hello    = fs.Duration("hello", time.Second, "hello beacon interval")
		window   = fs.Duration("window", 5*time.Second, "peer liveness window (drop peers silent this long)")
		bcastOn  = fs.Bool("bcast", false, "run the broadcast-group schedule: cliques of 3+ fully-meshed nodes download via one granted sender per round")
		tft      = fs.Bool("tft", false, "with -bcast, use the tit-for-tat cyclic order instead of the cooperative coordinator")
		fecOn    = fs.Bool("fec", false, "with -bcast, stream granted pieces as fountain-coded symbols over a UDP lane on -listen's port; active only when every group member runs -fec too")
		symbolSz = fs.Int("symbol-size", 0, "with -fec, coded-symbol payload bytes (0 = engine default)")
		symPeers = fs.String("symbol-peers", "", "with -fec, UDP addresses the symbol lane fans out to (default: the -peers list)")
		dhtOn    = fs.Bool("dht", false, "join the Kademlia metadata index: publish the catalog into it (with -internet) and resolve queries from it when the server path is gone")
		dhtK     = fs.Int("dht-k", 0, "with -dht, k-bucket size and replication factor (0 = engine default)")
		dhtRepub = fs.Duration("dht-republish", 0, "with -dht, table-refresh and catalog-republish cadence (0 = 10x -hello)")
		rate     = fs.Float64("rate", 0, "per-peer admission rate in messages/second: excess inbound is shed and answered with Busy, and catalog/DHT service obeys the same rate (0 = off)")
		faultArg = fs.String("fault", "", "inject transport faults, e.g. 'seed=42,drop=0.3,corrupt=0.2,partition=10s-20s' (see internal/fault)")
		dataDir  = fs.String("data-dir", "", "persist node state here (WAL + snapshots); restart resumes from it")
		quiet    = fs.Bool("quiet", false, "suppress progress logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag-validation failures print usage and exit non-zero: a daemon
	// with a bad spec must die now, not after it has joined the mesh.
	fail := func(format string, a ...any) error {
		err := fmt.Errorf(format, a...)
		fmt.Fprintf(logw, "mbtd: %v\n", err)
		fs.Usage()
		return err
	}
	if *id < 0 {
		return fail("-id is required and must be >= 0")
	}
	if *listen == "" && *peers == "" {
		return fail("need -listen and/or -peers; a daemon with neither has no links")
	}
	if *fecOn && *listen == "" {
		return fail("-fec binds its UDP symbol lane to -listen's address; set -listen")
	}
	// Every range and "needs" rule on the values themselves is the
	// daemon's; only what is about flags or the filesystem is checked here.
	cfg := daemon.Config{
		ID:             trace.NodeID(*id),
		Transport:      &transport.TCP{},
		ListenAddr:     *listen,
		PeerAddrs:      splitList(*peers),
		InternetAccess: *internet,
		PublishFiles:   *files,
		FileSize:       *fileSize,
		PieceSize:      *pieceSz,
		Queries:        splitList(*queries),
		FetchMatching:  *fetch,
		HelloInterval:  *hello,
		LivenessWindow: *window,
		PeerRate:       *rate,
		EnableBcast:    *bcastOn,
		TitForTat:      *tft,
		EnableFEC:      *fecOn,
		SymbolSize:     *symbolSz,
		EnableDHT:      *dhtOn,
		DHTK:           *dhtK,
		DHTRepublish:   *dhtRepub,
		DataDir:        *dataDir,
	}
	if err := cfg.Validate(); err != nil {
		return fail("%v", err)
	}
	if *dataDir != "" {
		if fi, err := os.Stat(*dataDir); err == nil && !fi.IsDir() {
			return fail("-data-dir %q is a file, not a directory", *dataDir)
		}
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			return fail("-data-dir: %v", err)
		}
	}

	logger := log.New(logw, fmt.Sprintf("mbtd[%d] ", *id), log.LstdFlags|log.Lmsgprefix)
	if !*quiet {
		cfg.Logf = logger.Printf
	}

	var chaos *fault.Transport
	if *faultArg != "" {
		fcfg, err := fault.ParseSpec(*faultArg)
		if err != nil {
			return fail("-fault: %v", err)
		}
		chaos = fault.Wrap(cfg.Transport, fcfg)
		cfg.Transport, cfg.Fault = chaos, chaos
		logger.Printf("fault injection on: %s", *faultArg)
	}

	// The symbol lane reuses the daemon's addressing: UDP on the same
	// host:port as the TCP listener, fanning to the same peer list. TCP
	// and UDP ports are separate namespaces, so nothing collides, and
	// every -fec daemon in a mesh is reachable at the address its peers
	// already dial.
	if *fecOn {
		lanePeers := splitList(*symPeers)
		if lanePeers == nil {
			lanePeers = splitList(*peers)
		}
		lane, err := transport.NewUDPLane(*listen, lanePeers)
		if err != nil {
			return fail("-fec: %v", err)
		}
		defer lane.Close()
		cfg.Symbols = lane
		if chaos != nil {
			cfg.Symbols = chaos.WrapSymbols(lane)
		}
		logger.Printf("fec symbol lane on udp %s", lane.Addr())
	}

	// The stats port is bound before the daemon starts: a port that is
	// taken fails the command now, not a monitor that polls it later.
	var httpLn net.Listener
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		defer ln.Close()
		httpLn = ln
	}

	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}

	if httpLn != nil {
		srv := &http.Server{Handler: d.Handler()}
		go func() {
			if err := srv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("http: %v", err)
			}
		}()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
		}()
		logger.Printf("stats at http://%s/stats", httpLn.Addr())
	}

	if *dataDir != "" {
		if h := d.Health(); h.Recovery != nil && h.Recovery.Recovered {
			logger.Printf("recovered state from %s: %d snapshot + %d wal records (%d torn bytes dropped)",
				*dataDir, h.Recovery.SnapshotRecords, h.Recovery.WALRecords, h.Recovery.TornBytes)
		}
	}
	logger.Printf("node %d up: listen=%q peers=%v internet=%v files=%d queries=%v data-dir=%q",
		*id, *listen, cfg.PeerAddrs, *internet, *files, cfg.Queries, *dataDir)
	err = d.Run(ctx)
	if chaos != nil {
		logger.Printf("fault injector: %+v", chaos.Stats())
	}
	if errors.Is(err, context.Canceled) {
		logger.Printf("shut down")
	}
	return err
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
