package hybriddtn

// The benchmark harness regenerates the paper's evaluation: one
// Benchmark per figure panel (Figures 2(a)–(e) on the DieselNet-style
// trace, 3(a)–(f) on the NUS-style trace) plus the ablations DESIGN.md
// calls out. Each iteration runs the panel's parameter sweep at reduced
// scale and reports the resulting delivery ratios through b.ReportMetric,
// so `go test -bench . -benchmem` prints the same series the paper plots
// alongside the usual time/op numbers. cmd/experiments produces the
// full-scale tables.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/download"
	"repro/internal/experiment"
)

// benchPanel runs one figure panel per iteration and reports each
// protocol's mean ratios over the sweep.
func benchPanel(b *testing.B, id string, xs []float64) {
	def, err := experiment.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	if xs != nil {
		def.Xs = xs
	}
	var last *experiment.Series
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := experiment.Run(def, experiment.Options{Seed: 1, Small: true})
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	b.StopTimer()
	reportSeries(b, last)
}

// reportSeries attaches per-protocol mean ratios as custom metrics.
func reportSeries(b *testing.B, s *experiment.Series) {
	if s == nil || len(s.Points) == 0 {
		return
	}
	for _, v := range core.Variants() {
		var meta, file float64
		for _, p := range s.Points {
			meta += p.Cells[v].MetadataRatio
			file += p.Cells[v].FileRatio
		}
		n := float64(len(s.Points))
		b.ReportMetric(meta/n, fmt.Sprintf("%s-meta", v))
		b.ReportMetric(file/n, fmt.Sprintf("%s-file", v))
	}
}

// Figure 2: DieselNet-style trace.

func BenchmarkFig2aInternetAccessDiesel(b *testing.B) {
	benchPanel(b, "fig2a", []float64{0.1, 0.5, 0.9})
}

func BenchmarkFig2bNewFilesDiesel(b *testing.B) {
	benchPanel(b, "fig2b", []float64{10, 50, 100})
}

func BenchmarkFig2cTTLDiesel(b *testing.B) {
	benchPanel(b, "fig2c", []float64{1, 3, 5})
}

func BenchmarkFig2dMetadataPerContactDiesel(b *testing.B) {
	benchPanel(b, "fig2d", []float64{1, 5, 10})
}

func BenchmarkFig2eFilesPerContactDiesel(b *testing.B) {
	benchPanel(b, "fig2e", []float64{1, 5, 10})
}

// Figure 3: NUS-style trace.

func BenchmarkFig3aInternetAccessNUS(b *testing.B) {
	benchPanel(b, "fig3a", []float64{0.1, 0.5, 0.9})
}

func BenchmarkFig3bNewFilesNUS(b *testing.B) {
	benchPanel(b, "fig3b", []float64{10, 50, 100})
}

func BenchmarkFig3cTTLNUS(b *testing.B) {
	benchPanel(b, "fig3c", []float64{1, 3, 5})
}

func BenchmarkFig3dMetadataPerContactNUS(b *testing.B) {
	benchPanel(b, "fig3d", []float64{1, 5, 10})
}

func BenchmarkFig3eFilesPerContactNUS(b *testing.B) {
	benchPanel(b, "fig3e", []float64{1, 5, 10})
}

func BenchmarkFig3fAttendanceNUS(b *testing.B) {
	benchPanel(b, "fig3f", []float64{0.5, 0.75, 1.0})
}

// BenchmarkRunAll measures the run-level worker pool on a multi-seed
// -small sweep of every panel: one worker (the serial baseline) vs one
// per CPU. On a multi-core machine the wall-clock ratio is the pool's
// speedup; the per-run seed derivation keeps both outputs byte-identical.
func BenchmarkRunAll(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			opts := experiment.Options{Seed: 1, Seeds: 2, Small: true, Workers: workers}
			for i := 0; i < b.N; i++ {
				series, err := experiment.RunAll(opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(series) != len(experiment.Definitions()) {
					b.Fatalf("panels = %d", len(series))
				}
			}
		})
	}
}

// §V capacity claim: broadcast per-node capacity grows with clique size
// n as (n-1)/n while pair-wise capacity shrinks as 1/n.

func BenchmarkCapacityBroadcastVsPairwise(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for n := 2; n <= 64; n++ {
			sink += download.BroadcastPerNodeCapacity(n)
			sink -= download.PairwisePerNodeCapacity(n)
		}
	}
	b.StopTimer()
	_ = sink
	for _, n := range []int{2, 8, 32} {
		b.ReportMetric(download.BroadcastPerNodeCapacity(n), fmt.Sprintf("bcast-n%d", n))
		b.ReportMetric(download.PairwisePerNodeCapacity(n), fmt.Sprintf("pair-n%d", n))
	}
}

// benchScenario runs one simulation config per iteration and reports its
// ratios. mutate customizes the default small campus scenario.
func benchScenario(b *testing.B, mutate func(*core.Config)) {
	nus := DefaultNUSTrace()
	nus.Students, nus.Classes, nus.Days = 60, 12, 7
	tr, err := NUSTrace(nus)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(tr)
	cfg.Workload.NewFilesPerDay = 20
	cfg.FrequentContactsPerDay = 0.25
	mutate(&cfg)

	var last *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(last.MetadataRatio, "meta-ratio")
		b.ReportMetric(last.FileRatio, "file-ratio")
	}
}

// Ablation: tit-for-tat with free-riders vs cooperative (§IV-B, §V-B).

func BenchmarkAblationTitForTat(b *testing.B) {
	for _, tt := range []struct {
		name   string
		tft    bool
		riders float64
	}{
		{"cooperative", false, 0},
		{"tft-honest", true, 0},
		{"tft-30pct-riders", true, 0.3},
	} {
		b.Run(tt.name, func(b *testing.B) {
			benchScenario(b, func(cfg *core.Config) {
				cfg.TitForTat = tt.tft
				cfg.FreeRiderFraction = tt.riders
			})
		})
	}
}

// Ablation: coordinator schedule vs TFT cyclic order (§V-A vs §V-B).

func BenchmarkAblationScheduler(b *testing.B) {
	for _, tt := range []struct {
		name string
		tft  bool
	}{
		{"coordinator", false},
		{"cyclic-tft", true},
	} {
		b.Run(tt.name, func(b *testing.B) {
			benchScenario(b, func(cfg *core.Config) { cfg.TitForTat = tt.tft })
		})
	}
}

// Ablation: two-phase request-aware ordering vs popularity-only pushes
// (§IV-A phase 1).

func BenchmarkAblationOrdering(b *testing.B) {
	for _, tt := range []struct {
		name    string
		popOnly bool
	}{
		{"two-phase", false},
		{"popularity-only", true},
	} {
		b.Run(tt.name, func(b *testing.B) {
			benchScenario(b, func(cfg *core.Config) {
				cfg.PopularityOnlyOrdering = tt.popOnly
				cfg.MetadataPerContact = 2 // scarcity separates the orderings
			})
		})
	}
}

// Ablation: query distribution on/off at fixed budget (MBT vs MBT-Q is
// the protocol-level version; this isolates the mechanism).

func BenchmarkAblationQueryDistribution(b *testing.B) {
	for _, tt := range []struct {
		name    string
		variant core.Variant
	}{
		{"with-query-distribution", core.MBT},
		{"without", core.MBTQ},
	} {
		b.Run(tt.name, func(b *testing.B) {
			benchScenario(b, func(cfg *core.Config) { cfg.Variant = tt.variant })
		})
	}
}

func BenchmarkAblationChoking(b *testing.B) {
	for _, tt := range []struct {
		name      string
		minCredit float64
	}{
		{"tft-no-choking", 0},
		{"tft-choked", 0.5},
	} {
		b.Run(tt.name, func(b *testing.B) {
			benchScenario(b, func(cfg *core.Config) {
				cfg.TitForTat = true
				cfg.FreeRiderFraction = 0.3
				cfg.ChokeMinCredit = tt.minCredit
				cfg.ChokeOptimisticEvery = 5
			})
		})
	}
}

// Ablation: storage caps vs unlimited stores.

func BenchmarkAblationStorageCaps(b *testing.B) {
	for _, tt := range []struct {
		name           string
		metaCap, cache int
	}{
		{"unlimited", 0, 0},
		{"capped", 60, 4},
	} {
		b.Run(tt.name, func(b *testing.B) {
			benchScenario(b, func(cfg *core.Config) {
				cfg.MetadataCapacity = tt.metaCap
				cfg.PieceCacheCapacity = tt.cache
			})
		})
	}
}

// Ablation: lossy wireless channel.

func BenchmarkAblationLoss(b *testing.B) {
	for _, tt := range []struct {
		name string
		loss float64
	}{
		{"clean", 0},
		{"loss-25pct", 0.25},
		{"loss-50pct", 0.5},
	} {
		b.Run(tt.name, func(b *testing.B) {
			benchScenario(b, func(cfg *core.Config) { cfg.BroadcastLossRate = tt.loss })
		})
	}
}

// Ablation: the paper's truncated-exponential popularity model vs a
// heavy-tailed Zipf catalog.

func BenchmarkAblationPopularityModel(b *testing.B) {
	for _, tt := range []struct {
		name  string
		alpha float64
	}{
		{"exponential-paper", 0},
		{"zipf-0.8", 0.8},
	} {
		b.Run(tt.name, func(b *testing.B) {
			benchScenario(b, func(cfg *core.Config) {
				cfg.Workload.ZipfAlpha = tt.alpha
			})
		})
	}
}
