# Repo verification targets. `make check` is the gate, and all CI runs
# of the tests: vet + full tests + the full suite under the race
# detector — a superset of the soak targets below, which select one
# plane's tests (verbose, race-clean) for a local loop. Loss, kills,
# partitions, floods, restarts and the group planes' loss are the
# stepped swarm's seed families (`make step`), not wall-clock soaks.

GO ?= go

.PHONY: check vet deps-check test race short bench bench-e2e bench-json fuzz step soak swarm dht-soak

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

# The stepped swarm (internal/daemon step_test.go): every seed family —
# pairwise chaos, flood, the group plane's grant/resend against its
# fountain at 44% loss, restart on a faulty disk, record expiry — and
# the three tests ported onto it, on the hand clock with every invariant
# checked after every step, run twice under the race detector: every
# seed must replay step for step.
step:
	$(GO) test -race -count=2 -run 'TestStep|TestFloodVictimStaysLive|TestNamingASecondHolderReCutsMidStream|TestBcastSoak' -v ./internal/daemon

# The wall-clock soaks, one per plane: the pairwise plane over real TCP
# (the two-daemon transfer and the localhost mbtd demos, restart and
# fault injector included) and the group plane's UDP symbol lane (the
# three-daemon fountain demo).
soak:
	$(GO) test -race -count=1 -run 'TestTCPEndToEnd|TestLocalhostDemo|TestLocalhostDemoUnderFaults|TestLocalhostRestartDemo' -v ./internal/daemon ./cmd/mbtd
	$(GO) test -race -count=1 -run 'TestLocalhostFECDemo' -v ./cmd/mbtd

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
	$(GO) run ./cmd/mbtswarm -scenario server-death -nodes 12 -seed 1337 -out results >/dev/null
	$(GO) run ./cmd/mbtswarm -scenario fountain -nodes 5 -seed 21 -out results >/dev/null
	$(GO) run ./cmd/mbtswarm -scenario steady -nodes 1000 -seed 42 -out results >/dev/null
	mv results/swarm_steady.json results/swarm_steady-1000.json

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
	  $(GO) test -run '^$$' -bench BenchmarkStepGroupTransmissions -benchtime 1x ./internal/daemon ; \
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
	$(GO) test -run '^$$' -fuzz FuzzFECRoundTrip -fuzztime 30s ./internal/fec
