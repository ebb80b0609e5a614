package main

import (
	"fmt"
	"time"

	"repro/internal/rng"
)

// spec is one workload: a population of daemons, what the seeder
// publishes and how the links and clocks are set. Everything a daemon
// sees arrives through daemon.Config; the sizes here are the inputs the
// seed completes (file tail length, topology chords, fault streams).
type spec struct {
	name string
	why  string

	nodes     int // population; node 0 is the only seeder, the rest download
	files     int
	pieces    int // per file
	pieceSize int
	degree    int // outbound links per node; 0 dials every earlier node (full mesh)
	tcp       bool

	hello          time.Duration
	liveness       time.Duration // 0: 6 × hello, the swarm harness's default
	resendAfter    time.Duration // 0: the daemon's default, 2 × liveness
	piecesPerHello int
	outboxLen      int

	wal       bool          // downloaders persist through the modelled disk
	syncDelay time.Duration // the modelled disk's fixed Sync/SyncDir cost

	fec        bool // group plane: one radio domain plus a lossy symbol lane
	symbolLoss float64
	symbolSize int

	// quiet marks workloads where no protocol timer is predicted to
	// intervene: a resend, outbox drop, reconnect or expiry there makes
	// the iteration unresolved instead of a timing.
	quiet bool
}

// workloads are sized so that several iterations (set-up included) fit in
// one 20 s run on the 2-core box this was prototyped on; bench/README.md
// has the reasoning and the prototype ranges.
var workloads = []spec{
	{
		name:  "bulk-tcp",
		why:   "byte-bound pairwise data plane over real TCP: content generation, SHA-1, wire copy and framing do the work; store idle, scheduling trivial",
		nodes: 2, files: 1, pieces: 256, pieceSize: 256 << 10, tcp: true,
		hello: 10 * time.Millisecond, liveness: 30 * time.Second, resendAfter: 5 * time.Minute,
		piecesPerHello: 16, outboxLen: 2048, quiet: true,
	},
	{
		name:  "wal-tcp",
		why:   "same pairwise path with the durable store on it: 2 syncs per piece on a modelled 1 ms disk dominate; bypass pair of bulk-tcp for any WAL change",
		nodes: 2, files: 1, pieces: 512, pieceSize: 4 << 10, tcp: true,
		hello: 100 * time.Millisecond, liveness: 30 * time.Second, resendAfter: 5 * time.Minute,
		piecesPerHello: 2048, outboxLen: 8192,
		wal: true, syncDelay: time.Millisecond, quiet: true,
	},
	{
		name:  "swarm-steady",
		why:   "pace-bound multi-hop distribution on loopback where serving policy decides: duplicate pushes, hello/metadata codec work and beacon fan-out show here only",
		nodes: 32, files: 2, pieces: 64, pieceSize: 1 << 10, degree: 4,
		hello: 100 * time.Millisecond, piecesPerHello: 4,
	},
	{
		name:  "clique-fec",
		why:   "the paper's group plane: bcast rounds, fountain encode/decode and the symbol lane at 30 % loss; the pairwise path carries no piece",
		nodes: 5, files: 1, pieces: 128, pieceSize: 16 << 10,
		hello: 10 * time.Millisecond, liveness: 30 * time.Second, resendAfter: 5 * time.Minute,
		fec: true, symbolLoss: 0.30, symbolSize: 256, quiet: true,
	},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are what one iteration's seed decides.
type inputs struct {
	seed     uint64
	fileSize int64   // the last piece runs short by a seeded amount
	dials    [][]int // per node, the earlier nodes it dials
	links    []int   // per node, how many sessions it ends up with
}

// build derives one iteration's inputs. The topology is the swarm
// harness's random-attachment rule — node i dials i-1 plus degree-1
// distinct earlier nodes — so every prefix is connected.
func (w spec) build(seed uint64) inputs {
	r := rng.New(seed)
	in := inputs{seed: seed, dials: make([][]int, w.nodes), links: make([]int, w.nodes)}
	half := w.pieceSize / 2
	in.fileSize = int64(w.pieces-1)*int64(w.pieceSize) + int64(half+r.Intn(w.pieceSize-half)+1)
	for i := 1; i < w.nodes; i++ {
		picked := map[int]bool{i - 1: true}
		order := []int{i - 1}
		want := w.degree
		if want <= 0 || want > i {
			want = i
		}
		for len(order) < want {
			j := r.Intn(i)
			if !picked[j] {
				picked[j] = true
				order = append(order, j)
			}
		}
		in.dials[i] = order
		in.links[i] += len(order)
		for _, j := range order {
			in.links[j]++
		}
	}
	return in
}

// iterSeed spreads one run's seed over its iterations (SplitMix64 step).
func iterSeed(seed uint64, iter int) uint64 {
	z := seed + uint64(iter+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
