package experiment

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"frontsim/internal/core"
	"frontsim/internal/obs"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// closeCountingSink is a per-run observer that discards what it observes
// and counts how often it is closed.
type closeCountingSink struct {
	closes atomic.Int64
}

func (s *closeCountingSink) Event(obs.Event)     {}
func (s *closeCountingSink) Sample(obs.Sample)   {}
func (s *closeCountingSink) SampleStride() int64 { return 4096 }
func (s *closeCountingSink) Close() error        { s.closes.Add(1); return nil }

// TestEvaluationSurfaceAudited runs the evaluation surface's entry points
// — all eight ablations, the three extensions and cold single cells —
// once from a cold cache with per-cycle audit and both observability
// hooks on. Audit panics on any violated invariant. The test pins that
// every entry point routes its live cells through the per-run observer
// contract cmd/frontbench's suite_cold relies on to time cells: ObsRun is
// called exactly once per live cell (one call per simulated cache entry),
// and every sink it hands out is closed exactly once. TestConformance
// checks the same contract cell by cell, in every mode, for the matrix's
// cells.
func TestEvaluationSurfaceAudited(t *testing.T) {
	spec := mustLookup(t, "public_srv_60")
	dir := t.TempDir()
	c, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := confParams()[0].p
	p.Cache = c
	p.Audit = true
	p.Obs = &obs.SuiteCollector{}
	var mu sync.Mutex
	var sinks []*closeCountingSink
	p.ObsRun = func(workload, series string) obs.Sink {
		s := &closeCountingSink{}
		mu.Lock()
		sinks = append(sinks, s)
		mu.Unlock()
		return s
	}

	specs := []workload.Spec{spec}
	for _, abl := range []struct {
		name string
		run  func() error
	}{
		{"ftq", func() error { _, err := AblationFTQDepth(specs, []int{2, 8, 24}, p); return err }},
		{"fanout", func() error { _, err := AblationFanout(specs, []float64{0.3, 0.6}, p); return err }},
		{"frontend", func() error { _, err := AblationFrontend(specs, p); return err }},
		{"predictor", func() error { _, err := AblationPredictor(specs, p); return err }},
		{"replacement", func() error { _, err := AblationReplacement(specs, p); return err }},
		{"wrongpath", func() error { _, err := AblationWrongPath(specs, []int{0, 4}, p); return err }},
		{"btb", func() error { _, err := AblationBTB(specs, []int{0, 64}, p); return err }},
		{"mechanism", func() error { _, err := AblationMechanism(specs, p); return err }},
		{"preload", func() error { _, err := ExtensionPreload(specs, p); return err }},
		{"ispy", func() error { _, err := ExtensionISpy(specs, p); return err }},
		{"feedback", func() error { _, err := ExtensionFeedback(specs, p); return err }},
	} {
		if err := abl.run(); err != nil {
			t.Fatalf("%s: %v", abl.name, err)
		}
	}

	// Single cells keep the contract too: a plan-derived cell on a second
	// workload runs its conservative dependency and itself live, and a
	// config-override cell runs live once.
	spec2 := mustLookup(t, "secret_srv12")
	pool := runner.NewPool(2)
	defer pool.Close()
	before := len(sinks)
	if _, err := RunCellCtx(context.Background(), pool, spec2, "asmdb+fdp24", p); err != nil {
		t.Fatal(err)
	}
	ftq12 := core.DefaultConfig()
	ftq12.Name = "ftq12"
	ftq12.Frontend.FTQEntries = 12
	cell, err := ConfigCell(spec, ftq12, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cell.Run(context.Background(), pool); err != nil {
		t.Fatal(err)
	}
	if n := len(sinks) - before; n != 3 {
		t.Errorf("single cells: ObsRun called %d times, want 3 (cons, asmdb+fdp24, ftq12)", n)
	}

	// Each live cell stores exactly one simulation entry, so the cache's
	// sim entries count the live cells of the whole pass.
	if live := simEntries(t, snapshotDir(t, dir)); len(sinks) != live {
		t.Errorf("ObsRun called %d times for %d live cells", len(sinks), live)
	}
	for i, s := range sinks {
		if n := s.closes.Load(); n != 1 {
			t.Errorf("sink %d closed %d times, want 1", i, n)
		}
	}
}
