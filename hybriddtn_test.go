package hybriddtn

import "testing"

func TestFacadeEndToEnd(t *testing.T) {
	nus := DefaultNUSTrace()
	nus.Students, nus.Classes, nus.Days = 40, 8, 5
	tr, err := NUSTrace(nus)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tr)
	cfg.Workload.NewFilesPerDay = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries == 0 {
		t.Fatal("no queries generated through facade")
	}
	if res.MetadataRatio < 0 || res.MetadataRatio > 1 {
		t.Fatalf("metadata ratio %v", res.MetadataRatio)
	}
}

func TestFacadeVariants(t *testing.T) {
	if len(Variants()) != 3 {
		t.Fatalf("variants = %v", Variants())
	}
	v, err := ParseVariant("MBT-QM")
	if err != nil || v != MBTQM {
		t.Fatalf("ParseVariant = %v, %v", v, err)
	}
}

func TestFacadeTraceGenerators(t *testing.T) {
	d := DefaultDieselTrace()
	d.Buses, d.Days = 10, 3
	tr, err := DieselTrace(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	u := DefaultUniformTrace()
	u.Sessions = 10
	tru, err := UniformTrace(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(tru.Sessions) != 10 {
		t.Fatalf("uniform sessions = %d", len(tru.Sessions))
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) != 11 {
		t.Fatalf("experiments = %d, want 11 panels", len(Experiments()))
	}
	def, err := LookupExperiment("fig3f")
	if err != nil {
		t.Fatal(err)
	}
	def.Xs = []float64{0.8}
	s, err := RunExperiment(def, ExperimentOptions{Seed: 1, Small: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 1 || len(s.Points[0].Cells) != 3 {
		t.Fatalf("series = %+v", s)
	}
}

func TestFacadeWaypointTrace(t *testing.T) {
	cfg := DefaultWaypointTrace()
	cfg.Nodes, cfg.Days = 10, 1
	tr, err := WaypointTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
