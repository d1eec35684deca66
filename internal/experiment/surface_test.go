package experiment

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"frontsim/internal/obs"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// closeCountingSink is a per-run observer that discards what it observes
// and counts how often it is closed.
type closeCountingSink struct {
	key    string
	closes atomic.Int64
}

func (s *closeCountingSink) Event(obs.Event)     {}
func (s *closeCountingSink) Sample(obs.Sample)   {}
func (s *closeCountingSink) SampleStride() int64 { return 4096 }
func (s *closeCountingSink) Close() error        { s.closes.Add(1); return nil }

// TestEvaluationSurfaceAudited runs the whole evaluation surface — the
// ten-series matrix and all eight ablations — once from a cold cache with
// per-cycle audit and both observability hooks on. Audit panics on any
// violated invariant. The test pins the per-run observer contract that
// cmd/frontbench's suite_cold relies on to time cells: ObsRun is called
// exactly once per live cell (one call per simulated cache entry, and
// one per matrix series), and every sink it hands out is closed exactly
// once.
func TestEvaluationSurfaceAudited(t *testing.T) {
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("suite workload missing")
	}
	dir := t.TempDir()
	c, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := harnessParams()
	p.Cache = c
	p.Audit = true
	p.Obs = &obs.SuiteCollector{}
	var mu sync.Mutex
	var sinks []*closeCountingSink
	p.ObsRun = func(workload, series string) obs.Sink {
		s := &closeCountingSink{key: workload + "/" + series}
		mu.Lock()
		sinks = append(sinks, s)
		mu.Unlock()
		return s
	}

	if _, err := RunMatrix(spec, 1, p); err != nil {
		t.Fatal(err)
	}
	// Every series of a cold matrix is live: one observer each.
	perSeries := map[string]int{}
	for _, s := range sinks {
		perSeries[s.key]++
	}
	for _, label := range SeriesLabels() {
		if n := perSeries[spec.Name+"/"+label]; n != 1 {
			t.Errorf("matrix series %s: ObsRun called %d times, want 1", label, n)
		}
	}
	if len(sinks) != int(numSeries) {
		t.Errorf("matrix: ObsRun called %d times, want %d", len(sinks), numSeries)
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
	} {
		if err := abl.run(); err != nil {
			t.Fatalf("%s: %v", abl.name, err)
		}
	}

	// Each live cell stores exactly one simulation entry, so the cache's
	// sim entries count the live cells of the whole pass.
	live := 0
	for rel, b := range snapshotDir(t, dir) {
		var e struct {
			Key struct {
				Kind string `json:"kind"`
			} `json:"key"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("cache entry %s: %v", rel, err)
		}
		if e.Key.Kind == "sim" {
			live++
		}
	}
	if len(sinks) != live {
		t.Errorf("ObsRun called %d times for %d live cells", len(sinks), live)
	}
	for _, s := range sinks {
		if n := s.closes.Load(); n != 1 {
			t.Errorf("sink %s closed %d times, want 1", s.key, n)
		}
	}
}
