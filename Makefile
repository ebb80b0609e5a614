# Repo verification targets. `make check` is the gate, and all CI runs
# of the tests: vet + full tests + the full suite under the race
# detector — a superset of every soak target below, which select one
# subsystem's tests (verbose, race-clean) for a local loop.

GO ?= go

.PHONY: check vet deps-check test race short bench bench-e2e bench-json fuzz chaos bcast-soak crash-soak swarm fec-soak dht-soak overload-soak

check: vet test race

vet:
	$(GO) vet ./...

# Dependency direction: the offline tools (trace generator, simulator,
# experiment sweeps) never link the live stack — `limit` legitimately
# arrives through server.Safe, the catalog's query limit — the
# scheduling rule and the flight window both data planes pace by stay
# pure, tracegen stays a leaf, and the DHT engine has no admission
# control of its own: per-sender limiting happens once, in
# internal/peer, where every frame passes. Redial pacing is
# transport.Backoff's, stepped through by peer's link table on the beat,
# so transport stays off internal/limit; and the packages that decide
# on time read the clock they are handed (sched, the time itself), never
# the runtime's (the default is the func value time.Now, which the
# pattern does not match). And a live node wakes periodically in one
# place: the live packages arm exactly one ticker — the beat's
# (Daemon.Run) — a timer only in internal/dht, for the RPC wait, and
# never time.After or time.Sleep. Below the peer layer nothing runs on
# its own: internal/transport and internal/fault start no goroutine, so a
# session's lanes are its only send queue and a session is its reader
# plus its writer. Offending packages or lines are printed.
deps-check:
	@! $(GO) list -deps ./cmd/tracegen ./cmd/mbtsim ./cmd/experiments \
		| grep -E '^repro/internal/(fault|transport|peer|daemon|store)$$' \
		|| { echo 'deps-check: an offline tool links the live stack' >&2; exit 1; }
	@! $(GO) list -f '{{join .Imports "\n"}}' ./internal/sched \
		| grep '^repro/' | grep -vE '^repro/internal/(metadata|trace)$$' \
		|| { echo 'deps-check: internal/sched imports beyond metadata, trace' >&2; exit 1; }
	@! $(GO) list -f '{{join .Imports "\n"}}' ./internal/tracegen \
		| grep '^repro/' | grep -vE '^repro/internal/(rng|simtime|trace)$$' \
		|| { echo 'deps-check: internal/tracegen imports beyond rng, simtime, trace' >&2; exit 1; }
	@! $(GO) list -f '{{join .Imports "\n"}}' ./internal/dht \
		| grep '^repro/internal/limit$$' \
		|| { echo 'deps-check: internal/dht imports internal/limit' >&2; exit 1; }
	@! $(GO) list -deps ./internal/transport \
		| grep '^repro/internal/limit$$' \
		|| { echo 'deps-check: internal/transport links internal/limit' >&2; exit 1; }
	@! grep -nE 'time\.(Now|Since|Until)\(' \
		$$(ls internal/daemon/*.go internal/peer/*.go internal/bcast/*.go \
			internal/dht/*.go internal/limit/*.go internal/server/*.go internal/sched/*.go | grep -v '_test\.go$$') \
		|| { echo 'deps-check: a bare runtime-clock read in a package that is handed a clock' >&2; exit 1; }
	@live=$$(ls internal/daemon/*.go internal/peer/*.go internal/bcast/*.go internal/dht/*.go | grep -v '_test\.go$$'); \
	! grep -nE 'time\.(After|Sleep)\(' $$live \
		|| { echo 'deps-check: time.After / time.Sleep in a live package: wait on the beat, a context or a socket' >&2; exit 1; }; \
	[ "$$(grep -hE 'time\.NewTicker\(' $$live | wc -l)" -eq 1 ] \
		|| { grep -nE 'time\.NewTicker\(' $$live; \
			echo 'deps-check: the live packages arm exactly one ticker (the beat)' >&2; exit 1; }; \
	! grep -nE 'time\.NewTimer\(' $$(echo $$live | tr ' ' '\n' | grep -v '^internal/dht/') \
		|| { echo 'deps-check: time.NewTimer outside internal/dht (its RPC wait): wait on the beat, a context or a socket' >&2; exit 1; }
	@! grep -nE '(^|[{;])[[:space:]]*go[[:space:]]+[^[:space:]]' \
		$$(ls internal/transport/*.go internal/fault/*.go | grep -v '_test\.go$$') \
		|| { echo 'deps-check: a go statement in internal/transport or internal/fault: links work on their caller'"'"'s goroutine' >&2; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick loop: skips the full -small sweep tests.
short:
	$(GO) test -short ./...

# Chaos soak: two daemons over the fault injector (30% drop, 20%
# corruption, a scripted 10 s partition) must still complete a download,
# race-clean.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault' -v ./internal/daemon ./cmd/mbtd

# Broadcast-group soak: three nodes on the loopback broadcast domain
# under 20% drop chaos plus a scripted partition must confirm a group,
# collapse, re-form, and still complete the shared download — plus the
# transmission-savings comparison and the live TCP demo.
bcast-soak:
	$(GO) test -race -count=1 -run 'Bcast|LocalhostBcastDemo' -v ./internal/daemon ./cmd/mbtd

# Fountain-coded soak: the LT-code property tests, the engine's symbol
# plane (negotiation, loss repair, relay budget, poisoned-decode
# restart), the five-node chaos soak at 30% drop + 20% corruption, and
# the live three-daemon UDP demo. The first line runs without -race,
# where timing is honest, for the strict transmission comparison.
fec-soak:
	$(GO) test -count=1 -run 'FEC' -v ./internal/fec ./internal/bcast ./internal/daemon
	$(GO) test -race -count=1 -run 'FEC|LocalhostFECDemo' -v ./internal/fec ./internal/bcast ./internal/daemon ./cmd/mbtd

# DHT soak: the full Kademlia suite — k-bucket/store property tests and
# lookup-convergence meshes in internal/dht, the daemon's server-death
# resolution and dial-on-demand tests, the discovery<->DHT seam
# (fallback without double counting), the swarm server-death scenario
# against its no-DHT baseline, and the live three-daemon localhost demo
# where the catalog server is killed mid-run.
dht-soak:
	$(GO) test -race -count=1 -v ./internal/dht
	$(GO) test -race -count=1 -timeout 10m -run 'DHT' -v ./internal/daemon ./internal/discovery ./internal/swarm ./cmd/mbtd
	$(GO) test -race -count=1 -run 'TestFountainScenario' -v ./internal/swarm

# Crash-recovery soak: the store-level crash-point matrix (every
# mutating filesystem op) plus the daemon-level scripted kill-and-
# restart matrix — at each point the node must reopen its data dir to a
# consistent prefix, resume the download, and never be re-sent a
# persisted piece. It carries the group-commit tests (blocked fsync,
# failed fsync, cancel mid-download) so the committer runs under -race.
crash-soak:
	$(GO) test -race -count=1 -run 'TestCrashPointMatrix|TestShortWriteRepair|TestBatchIsAllOrNothing|TestCrashRecoverySoak|TestRestartResume|TestPieceHeldOnlyAfterSync|TestFailedSyncDropsPieceAndCreditTogether|TestCancelMidDownloadKeepsReportedPieces|TestLocalhostRestartDemo' -v ./internal/fault ./internal/daemon ./cmd/mbtd

# Swarm availability soak: the full thousand-node boot plus every
# scripted-churn scenario (seeder death, flash crowd, mobility
# partitions, staggered joins, diurnal attendance). The tests assert and
# write nothing tracked; the results/swarm_*.json records are then
# regenerated through cmd/mbtswarm with the same populations and seeds —
# the one path that rewrites them.
swarm:
	$(GO) test -count=1 -timeout 10m -run 'TestSwarm|TestRun' -v ./internal/swarm ./cmd/mbtswarm
	for s in seeder-death flash-crowd mobility staggered-join diurnal; do \
		$(GO) run ./cmd/mbtswarm -scenario $$s -nodes 96 -seed 1337 -out results >/dev/null || exit 1; \
	done
	$(GO) run ./cmd/mbtswarm -scenario overload -nodes 24 -seed 1337 -out results >/dev/null
	$(GO) run ./cmd/mbtswarm -scenario server-death -nodes 12 -seed 1337 -out results >/dev/null
	$(GO) run ./cmd/mbtswarm -scenario fountain -nodes 5 -seed 21 -out results >/dev/null
	$(GO) run ./cmd/mbtswarm -scenario steady -nodes 1000 -seed 42 -out results >/dev/null
	mv results/swarm_steady.json results/swarm_steady-1000.json

# Overload soak: the limiter property suite, the Busy frame
# codec, per-peer admission shedding (the raw-connection flood against a
# live victim, then the same flood layered over drop+corruption faults),
# catalog query limiting, and the 24-node flash-crowd-overload swarm
# scenario that must degrade, keep serving, and recover — all
# race-clean.
overload-soak:
	$(GO) test -race -count=1 -v ./internal/limit
	$(GO) test -race -count=1 -run 'TestBusy|TestSafeQueryLimit' -v ./internal/wire ./internal/server
	$(GO) test -race -count=1 -run 'TestOutboxClassPriority|TestSendNeverBlocks|TestHealthzSaturationRecovers|TestFloodVictimStaysLive|TestSubUnitPeerRate|TestChaosFloodSoak|TestSwarmOverload' -v ./internal/peer ./internal/daemon ./internal/swarm

# The sweep-pool benchmark: workers=1 vs workers=NumCPU wall clock.
bench:
	$(GO) test -run '^$$' -bench BenchmarkRunAll -benchtime 1x .

# The end-to-end download benchmark (BENCHMARK.json): every workload,
# five plain runs and one traced run each, a fresh process per run;
# results under bench/out/ (~8 min). bench/README.md defines the metrics.
bench-e2e:
	$(GO) run ./bench -all -seed 42

# Benchmark history: the hot-path benches (wire codec, beacon fan-out,
# peer-table contention, DHT k-buckets and lookups, WAL append/replay,
# clique enumeration, admission limiters, send-lane shedding, synthetic
# piece generation, one group-plane round across a five-node clique,
# query → first piece, a whole file at the default clock and one relay
# hop on live loopback daemons, one ack at a supplier of a 4,096-piece
# file) plus the sweep pool, rendered to JSON. Each run
# APPENDS a record stamped with the git SHA (suffixed -dirty when the
# tree has uncommitted changes, i.e. the record belongs to the commit
# that follows) and UTC date to results/BENCH_swarm.json, so the file
# accumulates a per-commit history for diffing (see cmd/benchjson for
# the format).
bench-json:
	{ $(GO) test -run '^$$' -bench . -benchtime 0.5s \
		./internal/wire ./internal/peer ./internal/store ./internal/clique ./internal/fec ./internal/dht ./internal/limit ./internal/metadata ; \
	  $(GO) test -run '^$$' -bench BenchmarkEngineRound -benchtime 3x ./internal/bcast ; \
	  $(GO) test -run '^$$' -bench BenchmarkFECSoak -benchtime 1x ./internal/daemon ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkQueryToFirstPiece|BenchmarkPairTransferDefaultClock|BenchmarkRelayHop' -benchtime 20x ./internal/daemon ; \
	  $(GO) test -run '^$$' -bench BenchmarkServeAck -benchtime 100000x -benchmem ./internal/daemon ; \
	  $(GO) test -run '^$$' -bench BenchmarkRunAll -benchtime 1x . ; } \
	| $(GO) run ./cmd/benchjson -label swarm-baseline \
		-commit "$$(git describe --always --dirty --exclude '*' 2>/dev/null || echo unknown)" \
		-date "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		-out results/BENCH_swarm.json
	@echo appended to results/BENCH_swarm.json

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseCSV -fuzztime 30s ./internal/experiment
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 30s ./internal/store
