package core

import (
	"errors"
	"testing"

	"repro/internal/metadata"
	"repro/internal/simtime"
	"repro/internal/stgraph"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// smallNUS returns a quick campus trace for integration tests.
func smallNUS(t *testing.T) Config {
	t.Helper()
	nus := tracegen.DefaultNUS()
	nus.Students = 60
	nus.Classes = 12
	nus.Days = 7
	tr, err := tracegen.NUS(nus)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.Workload.NewFilesPerDay = 20
	cfg.FrequentContactsPerDay = 0.5
	return cfg
}

// smallDiesel returns a quick bus trace for integration tests.
func smallDiesel(t *testing.T) Config {
	t.Helper()
	d := tracegen.DefaultDiesel()
	d.Buses = 20
	d.Routes = 4
	d.Days = 7
	tr, err := tracegen.Diesel(d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.Workload.NewFilesPerDay = 20
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAllVariantsNUS(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			cfg := smallNUS(t)
			cfg.Variant = v
			res := run(t, cfg)
			if res.Queries == 0 {
				t.Fatal("no queries generated")
			}
			if res.MetadataRatio < 0 || res.MetadataRatio > 1 {
				t.Fatalf("metadata ratio %v out of range", res.MetadataRatio)
			}
			if res.FileRatio < 0 || res.FileRatio > 1 {
				t.Fatalf("file ratio %v out of range", res.FileRatio)
			}
			if res.FileRatio > res.MetadataRatio {
				t.Fatalf("file ratio %v exceeds metadata ratio %v: a file cannot "+
					"complete without its metadata being discovered",
					res.FileRatio, res.MetadataRatio)
			}
			if res.Variant != v {
				t.Fatalf("result variant %v, want %v", res.Variant, v)
			}
			if res.Events <= 0 {
				t.Fatalf("events = %d, want positive (instrumentation not threaded)", res.Events)
			}
			if res.Wall <= 0 {
				t.Fatalf("wall = %v, want positive", res.Wall)
			}
		})
	}
}

func TestRunAllVariantsDiesel(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			cfg := smallDiesel(t)
			cfg.Variant = v
			res := run(t, cfg)
			if res.Queries == 0 {
				t.Fatal("no queries generated")
			}
			if res.MetadataRatio <= 0 {
				t.Fatalf("metadata ratio %v, want positive on a connected trace",
					res.MetadataRatio)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, smallNUS(t))
	b := run(t, smallNUS(t))
	// Wall clock is the one legitimately nondeterministic field.
	a.Wall, b.Wall = 0, 0
	if *a != *b {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesRoleAssignment(t *testing.T) {
	cfg := smallNUS(t)
	a := run(t, cfg)
	cfg.Seed = 99
	b := run(t, cfg)
	if *a == *b {
		t.Fatal("different seeds produced byte-identical results (suspicious)")
	}
}

func TestDiscoveryHelps(t *testing.T) {
	// MBT (with discovery) must beat MBT-QM (no metadata distribution)
	// on metadata delivery in a well-connected campus trace.
	cfg := smallNUS(t)
	cfg.Variant = MBT
	mbt := run(t, cfg)
	cfg.Variant = MBTQM
	qm := run(t, cfg)
	if mbt.MetadataRatio <= qm.MetadataRatio {
		t.Fatalf("MBT metadata ratio %v not above MBT-QM %v",
			mbt.MetadataRatio, qm.MetadataRatio)
	}
	if mbt.FileRatio < qm.FileRatio {
		t.Fatalf("MBT file ratio %v below MBT-QM %v", mbt.FileRatio, qm.FileRatio)
	}
}

func TestMoreInternetNodesHelp(t *testing.T) {
	cfg := smallNUS(t)
	cfg.InternetFraction = 0.1
	low := run(t, cfg)
	cfg.InternetFraction = 0.9
	high := run(t, cfg)
	if high.FileRatio <= low.FileRatio {
		t.Fatalf("file ratio at 90%% internet (%v) not above 10%% (%v)",
			high.FileRatio, low.FileRatio)
	}
	if high.InternetNodes <= low.InternetNodes {
		t.Fatalf("internet node counts: %d vs %d", high.InternetNodes, low.InternetNodes)
	}
}

func TestLongerTTLHelps(t *testing.T) {
	cfg := smallNUS(t)
	cfg.Workload.TTL = simtime.Days(1)
	short := run(t, cfg)
	cfg.Workload.TTL = simtime.Days(5)
	long := run(t, cfg)
	if long.FileRatio < short.FileRatio {
		t.Fatalf("file ratio with 5-day TTL (%v) below 1-day TTL (%v)",
			long.FileRatio, short.FileRatio)
	}
}

func TestBiggerBudgetsHelp(t *testing.T) {
	cfg := smallNUS(t)
	cfg.MetadataPerContact, cfg.FilesPerContact = 1, 1
	tight := run(t, cfg)
	cfg.MetadataPerContact, cfg.FilesPerContact = 10, 10
	roomy := run(t, cfg)
	if roomy.FileRatio < tight.FileRatio {
		t.Fatalf("file ratio with big budgets (%v) below tight budgets (%v)",
			roomy.FileRatio, tight.FileRatio)
	}
	if roomy.MetadataRatio < tight.MetadataRatio {
		t.Fatalf("metadata ratio with big budgets (%v) below tight (%v)",
			roomy.MetadataRatio, tight.MetadataRatio)
	}
}

func TestTitForTatRunsAndDelivers(t *testing.T) {
	cfg := smallNUS(t)
	cfg.TitForTat = true
	res := run(t, cfg)
	if res.MetadataRatio <= 0 {
		t.Fatalf("TFT metadata ratio %v, want positive", res.MetadataRatio)
	}
}

func TestFreeRidersServedWorseThanContributors(t *testing.T) {
	// The broadcast medium means free-riders cannot be excluded, so the
	// aggregate ratio barely moves; the tit-for-tat incentive shows up
	// per group — free-riders' requests carry no credit, so under a
	// scarce budget their delivery ratio must not beat the contributors'.
	var riderQ, riderMeta, contribQ, contribMeta int
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := smallNUS(t)
		cfg.TitForTat = true
		cfg.FreeRiderFraction = 0.4
		cfg.MetadataPerContact = 2
		cfg.Seed = seed
		cfg.Workload.Seed = seed
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		perNode := s.Collector().PerNode()
		for _, nd := range s.Nodes() {
			st, ok := perNode[nd.ID]
			if !ok {
				continue
			}
			if nd.FreeRider {
				riderQ += st.Queries
				riderMeta += st.MetadataDeliveries
			} else {
				contribQ += st.Queries
				contribMeta += st.MetadataDeliveries
			}
		}
	}
	if riderQ == 0 || contribQ == 0 {
		t.Fatalf("degenerate groups: rider queries %d, contributor queries %d", riderQ, contribQ)
	}
	riderRatio := float64(riderMeta) / float64(riderQ)
	contribRatio := float64(contribMeta) / float64(contribQ)
	if riderRatio > contribRatio {
		t.Fatalf("free-riders served better (%v) than contributors (%v)",
			riderRatio, contribRatio)
	}
}

func TestZeroBudgetsDeliverNothingViaDTN(t *testing.T) {
	cfg := smallNUS(t)
	cfg.MetadataPerContact = 0
	cfg.FilesPerContact = 0
	res := run(t, cfg)
	if res.MetadataDeliveries != 0 || res.FileDeliveries != 0 {
		t.Fatalf("deliveries with zero budgets: %d/%d",
			res.MetadataDeliveries, res.FileDeliveries)
	}
	if res.MetadataBroadcasts != 0 || res.PieceBroadcasts != 0 {
		t.Fatalf("broadcasts with zero budgets: %d/%d",
			res.MetadataBroadcasts, res.PieceBroadcasts)
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() Config { return smallNUS(t) }
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil trace", func(c *Config) { c.Trace = nil }},
		{"node mismatch", func(c *Config) { c.Workload.Nodes++ }},
		{"bad variant", func(c *Config) { c.Variant = 0 }},
		{"internet fraction", func(c *Config) { c.InternetFraction = 1.5 }},
		{"free rider fraction", func(c *Config) { c.FreeRiderFraction = -0.1 }},
		{"negative metadata budget", func(c *Config) { c.MetadataPerContact = -1 }},
		{"negative file budget", func(c *Config) { c.FilesPerContact = -1 }},
		{"negative frequency", func(c *Config) { c.FrequentContactsPerDay = -1 }},
		{"negative push", func(c *Config) { c.ServerPushTop = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestBadWorkloadRejected(t *testing.T) {
	cfg := smallNUS(t)
	cfg.Workload.NewFilesPerDay = 0
	if _, err := New(cfg); !errors.Is(err, workload.ErrConfig) {
		t.Fatalf("err = %v, want workload config error", err)
	}
}

func TestVariantStrings(t *testing.T) {
	tests := []struct {
		v    Variant
		want string
	}{
		{MBT, "MBT"},
		{MBTQ, "MBT-Q"},
		{MBTQM, "MBT-QM"},
		{Variant(9), "Variant(9)"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestParseVariant(t *testing.T) {
	for _, v := range Variants() {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := ParseVariant("bogus"); err == nil {
		t.Error("ParseVariant(bogus) accepted")
	}
}

func TestAtLeastOneInternetNode(t *testing.T) {
	cfg := smallNUS(t)
	cfg.InternetFraction = 0
	res := run(t, cfg)
	if res.InternetNodes != 1 {
		t.Fatalf("internet nodes = %d, want minimum of 1", res.InternetNodes)
	}
}

func TestSessionsReported(t *testing.T) {
	cfg := smallNUS(t)
	res := run(t, cfg)
	if res.Sessions != len(cfg.Trace.Sessions) {
		t.Fatalf("sessions = %d, want %d", res.Sessions, len(cfg.Trace.Sessions))
	}
}

func TestBroadcastLossHurtsDelivery(t *testing.T) {
	cfg := smallNUS(t)
	clean := run(t, cfg)
	cfg.BroadcastLossRate = 0.5
	lossy := run(t, cfg)
	if lossy.MetadataRatio > clean.MetadataRatio {
		t.Fatalf("metadata ratio with 50%% loss (%v) above clean channel (%v)",
			lossy.MetadataRatio, clean.MetadataRatio)
	}
	if lossy.FileRatio > clean.FileRatio {
		t.Fatalf("file ratio with 50%% loss (%v) above clean channel (%v)",
			lossy.FileRatio, clean.FileRatio)
	}
}

func TestTotalLossDeliversNothingViaDTN(t *testing.T) {
	cfg := smallNUS(t)
	cfg.BroadcastLossRate = 1
	res := run(t, cfg)
	if res.MetadataDeliveries != 0 || res.FileDeliveries != 0 {
		t.Fatalf("deliveries under total loss: %d/%d",
			res.MetadataDeliveries, res.FileDeliveries)
	}
}

func TestStorageCapsRunAndDegrade(t *testing.T) {
	cfg := smallNUS(t)
	unlimited := run(t, cfg)
	cfg.MetadataCapacity = 10
	cfg.PieceCacheCapacity = 2
	capped := run(t, cfg)
	if capped.MetadataRatio > unlimited.MetadataRatio {
		t.Fatalf("metadata ratio with tiny caps (%v) above unlimited (%v)",
			capped.MetadataRatio, unlimited.MetadataRatio)
	}
	if capped.Queries != unlimited.Queries {
		t.Fatalf("query counts differ: %d vs %d", capped.Queries, unlimited.Queries)
	}
}

func TestLossConfigValidation(t *testing.T) {
	cfg := smallNUS(t)
	cfg.BroadcastLossRate = 1.5
	if _, err := New(cfg); err == nil {
		t.Fatal("loss rate 1.5 accepted")
	}
	cfg = smallNUS(t)
	cfg.MetadataCapacity = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestLossyRunDeterministic(t *testing.T) {
	cfg := smallNUS(t)
	cfg.BroadcastLossRate = 0.3
	a := run(t, cfg)
	b := run(t, cfg)
	// Wall clock is the one legitimately nondeterministic field.
	a.Wall, b.Wall = 0, 0
	if *a != *b {
		t.Fatalf("lossy runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestChokingStarvesFreeRiderFiles(t *testing.T) {
	// With encryption-based choking, free-riders cannot use overheard
	// piece broadcasts, so their file delivery collapses relative to
	// contributors' — the paper's footnote-1 claim.
	var riderQ, riderFiles, contribQ, contribFiles int
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := smallNUS(t)
		cfg.TitForTat = true
		cfg.FreeRiderFraction = 0.4
		cfg.ChokeMinCredit = 0.5
		cfg.ChokeOptimisticEvery = 5
		cfg.Seed = seed
		cfg.Workload.Seed = seed
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		perNode := s.Collector().PerNode()
		for _, nd := range s.Nodes() {
			st, ok := perNode[nd.ID]
			if !ok {
				continue
			}
			if nd.FreeRider {
				riderQ += st.Queries
				riderFiles += st.FileDeliveries
			} else {
				contribQ += st.Queries
				contribFiles += st.FileDeliveries
			}
		}
	}
	if riderQ == 0 || contribQ == 0 {
		t.Fatal("degenerate groups")
	}
	riderRatio := float64(riderFiles) / float64(riderQ)
	contribRatio := float64(contribFiles) / float64(contribQ)
	if riderRatio >= contribRatio {
		t.Fatalf("choked free-riders (%v) not below contributors (%v)",
			riderRatio, contribRatio)
	}
}

func TestChokeConfigValidation(t *testing.T) {
	cfg := smallNUS(t)
	cfg.ChokeMinCredit = 1 // without TitForTat
	if _, err := New(cfg); err == nil {
		t.Fatal("choking without tit-for-tat accepted")
	}
	cfg = smallNUS(t)
	cfg.TitForTat = true
	cfg.ChokeMinCredit = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative choke credit accepted")
	}
	cfg = smallNUS(t)
	cfg.TitForTat = true
	cfg.ChokeOptimisticEvery = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative optimistic interval accepted")
	}
}

func TestNoDeliveryBeatsTheSpaceTimeOracle(t *testing.T) {
	// The space-time graph gives the earliest instant information held
	// by the Internet-access nodes could reach each node. No metadata
	// delivery may precede it.
	cfg := smallNUS(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	perNode := s.Collector().PerNode()
	checked := 0
	for day := 0; day < cfg.Workload.Days; day++ {
		published := simtime.At(day, simtime.FileGenerationOffset)
		sources := make(map[trace.NodeID]simtime.Time)
		for _, nd := range s.Nodes() {
			if nd.InternetAccess {
				sources[nd.ID] = published
			}
		}
		arrival := stgraph.EarliestArrival(cfg.Trace, sources)
		for _, f := range fileRange(cfg, day) {
			for _, nd := range s.Nodes() {
				rec := s.Collector().Record(nd.ID, f)
				if rec == nil || rec.MetaAt < 0 || rec.CreatedAt != published {
					continue
				}
				checked++
				oracle := arrival[nd.ID]
				if oracle == stgraph.Unreachable || rec.MetaAt < oracle {
					t.Fatalf("node %d got %s at %v, before the oracle's %v",
						nd.ID, f, rec.MetaAt, oracle)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("oracle test checked no deliveries")
	}
	_ = perNode
}

// fileRange returns the URIs published on a given day.
func fileRange(cfg Config, day int) []metadata.URI {
	var out []metadata.URI
	for i := 0; i < cfg.Workload.NewFilesPerDay; i++ {
		out = append(out, metadata.URIFor(metadata.FileID(day*cfg.Workload.NewFilesPerDay+i)))
	}
	return out
}

func TestNodeFailuresHurtDelivery(t *testing.T) {
	cfg := smallNUS(t)
	healthy := run(t, cfg)
	cfg.NodeFailureRate = 0.8
	churned := run(t, cfg)
	if churned.FileRatio >= healthy.FileRatio {
		t.Fatalf("file ratio with 80%% failures (%v) not below healthy (%v)",
			churned.FileRatio, healthy.FileRatio)
	}
	if churned.Queries != healthy.Queries {
		t.Fatalf("failed nodes' queries must stay in the denominator: %d vs %d",
			churned.Queries, healthy.Queries)
	}
}

func TestNodeFailureDeterministic(t *testing.T) {
	cfg := smallNUS(t)
	cfg.NodeFailureRate = 0.5
	a := run(t, cfg)
	b := run(t, cfg)
	// Wall clock is the one legitimately nondeterministic field.
	a.Wall, b.Wall = 0, 0
	if *a != *b {
		t.Fatalf("churned runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestNodeFailureRateValidation(t *testing.T) {
	cfg := smallNUS(t)
	cfg.NodeFailureRate = 1.5
	if _, err := New(cfg); err == nil {
		t.Fatal("failure rate 1.5 accepted")
	}
}
