package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"frontsim/internal/asmdb"
	"frontsim/internal/core"
	"frontsim/internal/runner"
	"frontsim/internal/stats"
	"frontsim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// cannedMatrix is a hand-written Matrix with every layer populated —
// independent of the simulator, so the golden file below only changes when
// the serialized shape of Matrix/Stats/Plan changes.
func cannedMatrix() *Matrix {
	m := &Matrix{
		Spec:        workload.Spec{Name: "golden_wl", Seed: 42, Funcs: 3, Levels: 2, BlocksPerFunc: 4, BodyLenMean: 6.5},
		Index:       1,
		StaticBloat: 0.0125,
		Plan: &asmdb.Plan{
			Insertions: []asmdb.Insertion{
				{Site: 0x1000, Target: 0x4040, Distance: 37, Prob: 0.875, TargetMisses: 1200},
				{Site: 0x2080, Target: 0x4040, Distance: 61, Prob: 0.5, TargetMisses: 1200},
			},
			MinDistance:    27,
			TargetsCovered: 1,
			MissesCovered:  1200,
			TotalMisses:    1500,
		},
	}
	fill := func(st *core.Stats, name string, cycles int64) {
		st.Config = name
		st.Cycles = cycles
		st.Instructions = 2 * cycles
		st.SwPrefetchInstrs = cycles / 100
		st.FTQ.HeadStallCycles = cycles / 10
		st.L1I.Accesses = cycles * 3
		st.L1I.Misses = cycles / 50
		st.BPU.CondBranches = cycles / 5
		st.BPU.CondMispredicts = cycles / 500
		st.DRAMQueueing = 7
	}
	for id := seriesID(0); id < numSeries; id++ {
		fill(m.seriesPtr(id), seriesTable[id].label, 100_000+int64(id)*10_000)
	}
	// One sampled series pins the optional SamplingStats block's shape in
	// the golden alongside the exact (nil) ones.
	m.FDP.Sampling = &core.SamplingStats{
		Windows:          12,
		TruncatedWindows: 1,
		FunctionalInstrs: 90_000,
		WarmDetailInstrs: 24_000,
		DrainInstrs:      600,
		CPI:              stats.Estimate{N: 12, Mean: 0.5, M2: 0.02},
	}
	return m
}

// TestCacheGoldenRoundTrip pushes a canned Matrix through the runner
// cache's serialized form and back, comparing field by field, and pins the
// canonical encoding to a golden file so schema drift (renamed, removed,
// re-typed fields) fails loudly instead of silently invalidating caches.
// Refresh with: go test ./internal/experiment -run Golden -update
func TestCacheGoldenRoundTrip(t *testing.T) {
	m := cannedMatrix()
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')

	golden := filepath.Join("testdata", "matrix_cache_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("Matrix encoding drifted from golden file (run with -update after bumping cacheSchema):\n got: %s\nwant: %s", enc, want)
	}

	// The golden bytes must decode strictly: an unknown field in the file
	// means a Go field was removed or renamed — cached entries from older
	// binaries would silently lose data instead of missing.
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.DisallowUnknownFields()
	var fromGolden Matrix
	if err := dec.Decode(&fromGolden); err != nil {
		t.Fatalf("golden no longer decodes strictly: %v", err)
	}

	// Round trip through the real cache: per-series Stats entries plus the
	// plan entry, exactly as runMatrixPooled stores them.
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Cache = c
	plan := p.matrixPlan(m.Spec)
	cells := make([]*Cell, numSeries)
	for id := seriesID(0); id < numSeries; id++ {
		cell, err := resolveSeries(m.Spec, id, p, plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(cell.key, *m.seriesPtr(id)); err != nil {
			t.Fatal(err)
		}
		cells[id] = cell
	}
	if err := c.Put(plan, planEntry{Plan: m.Plan, StaticBloat: m.StaticBloat}); err != nil {
		t.Fatal(err)
	}

	got := &Matrix{Spec: m.Spec, Index: m.Index}
	for id, cell := range cells {
		st, ok, err := cell.Probe()
		if err != nil || !ok {
			t.Fatalf("series %s: ok=%v err=%v", cell.series, ok, err)
		}
		*got.seriesPtr(seriesID(id)) = st
	}
	var pe planEntry
	if ok, err := c.Get(plan, &pe); err != nil || !ok {
		t.Fatalf("plan: ok=%v err=%v", ok, err)
	}
	got.Plan, got.StaticBloat = pe.Plan, pe.StaticBloat

	wantV, gotV := reflect.ValueOf(*m), reflect.ValueOf(*got)
	for i := 0; i < wantV.NumField(); i++ {
		name := wantV.Type().Field(i).Name
		if !reflect.DeepEqual(gotV.Field(i).Interface(), wantV.Field(i).Interface()) {
			t.Errorf("field %s drifted through the cache:\n got %+v\nwant %+v",
				name, gotV.Field(i).Interface(), wantV.Field(i).Interface())
		}
	}
}

// TestMatrixWarmCacheByteIdentical runs one workload cold, then again
// against the warm cache, and requires (a) the warm run to be pure cache
// hits — it must not simulate, build, or profile anything — and (b) every
// derived artifact, from canonical stats JSON to rendered figure tables,
// to be byte-identical between the two.
func TestMatrixWarmCacheByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("workload missing")
	}
	p := tinyParams()

	cold1, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.Cache = cold1
	cold, err := RunMatrix(spec, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if m := cold1.Metrics(); m.Hits != 0 || m.Puts != int64(numSeries)+1 {
		t.Fatalf("cold run metrics %+v", m)
	}

	warm1, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.Cache = warm1
	warm, err := RunMatrix(spec, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if m := warm1.Metrics(); m.Misses != 0 || m.Puts != 0 || m.Hits != int64(numSeries)+1 {
		t.Fatalf("warm run was not pure cache hits: %+v", m)
	}

	for id := seriesID(0); id < numSeries; id++ {
		a, err := cold.seriesPtr(id).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := warm.seriesPtr(id).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("series %s differs warm vs cold:\n cold %s\n warm %s", seriesTable[id].label, a, b)
		}
	}
	ca, wa := []*Matrix{cold}, []*Matrix{warm}
	if Figure1(ca).String() != Figure1(wa).String() {
		t.Error("Figure 1 differs warm vs cold")
	}
	if Figure9(ca).String() != Figure9(wa).String() {
		t.Error("Figure 9 differs warm vs cold")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("matrices differ warm vs cold:\n cold %+v\n warm %+v", cold, warm)
	}
}

// TestAblationCacheReuse checks that the ablation path shares the suite's
// cache identity scheme: a sweep cell that matches a prior run (same
// config fingerprint, program, seed) is a hit, not a re-simulation.
func TestAblationCacheReuse(t *testing.T) {
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := workload.All()[:1]
	p := tinyParams()
	p.Cache = c
	if _, err := AblationPredictor(specs, p); err != nil {
		t.Fatal(err)
	}
	first := c.Metrics()
	if first.Puts != 2 {
		t.Fatalf("cold sweep metrics %+v", first)
	}
	// The predictor sweep's tournament cell is exactly DefaultConfig at
	// these budgets, and so is AblationFrontend's {pfc,ghr}={true,true}
	// combo — the second sweep must reuse that run.
	if _, err := AblationFrontend(specs, p); err != nil {
		t.Fatal(err)
	}
	second := c.Metrics()
	if second.Hits-first.Hits < 1 {
		t.Fatalf("ablations did not share cache entries: %+v -> %+v", first, second)
	}
}

func matrixCanonical(t *testing.T, m *Matrix) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStaleSchemaEntryRejected pins the cache-key schema bump: an entry
// written under the pre-sampling key layout (schema 5) must miss, not be
// silently reused, when the current binary probes the same simulation.
// Before cacheSchema moved to 6 this test failed — the stale entry's key
// was byte-identical to the live one.
func TestStaleSchemaEntryRejected(t *testing.T) {
	if cacheSchema != core.FingerprintSchema {
		t.Fatalf("cacheSchema %d and core.FingerprintSchema %d moved apart; bump them in lockstep", cacheSchema, core.FingerprintSchema)
	}
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := tinyParams()
	p.Cache = c
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("suite workload missing")
	}
	fdp, err := SeriesCell(spec, "fdp24", p)
	if err != nil {
		t.Fatal(err)
	}

	// Write the FDP cell exactly as a schema-5 binary would have keyed it.
	stale := fdp.key
	stale.Schema = 5
	if err := c.Put(stale, core.Stats{Config: "stale-schema-5"}); err != nil {
		t.Fatal(err)
	}

	var got core.Stats
	hit, err := c.Get(fdp.key, &got)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatalf("stale schema-5 cache entry silently reused: %+v", got)
	}

	// The stale entry is still addressable under its own (old) key — the
	// bump retires it from current lookups without corrupting the store.
	hit, err = c.Get(stale, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || got.Config != "stale-schema-5" {
		t.Fatal("stale entry unexpectedly unreadable under its own key")
	}
}
