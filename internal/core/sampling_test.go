package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"frontsim/internal/stats"
	"frontsim/internal/trace"
)

// sampledConfig returns the test machine in sampled mode: 150k-instruction
// coverage budget sampled with 10k-instruction units (1k detailed warm-up,
// 2k measured window).
func sampledConfig(name string) Config {
	c := smallConfig(name, false)
	c.Sampling = SamplingConfig{IntervalInstrs: 10_000, DetailInstrs: 2_000, WarmInstrs: 1_000}
	return c
}

func TestSamplingConfigValidate(t *testing.T) {
	good := sampledConfig("s")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []SamplingConfig{
		{DetailInstrs: 100},                                        // fields without an interval
		{IntervalInstrs: 1000},                                     // no window
		{IntervalInstrs: 1000, DetailInstrs: -1},                   // negative window
		{IntervalInstrs: 1000, DetailInstrs: 100, WarmInstrs: -1},  // negative warm
		{IntervalInstrs: 1000, DetailInstrs: 800, WarmInstrs: 300}, // window exceeds interval
		{IntervalInstrs: -5, DetailInstrs: 100},                    // negative interval
	}
	for _, sc := range cases {
		c := smallConfig("bad", false)
		c.Sampling = sc
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted sampling config %+v", sc)
		}
	}
	if (SamplingConfig{}).Enabled() {
		t.Fatal("zero sampling config reports enabled")
	}
}

// TestSampledRunDeterminism pins byte-stability: two sampled runs over
// fresh sources of the same workload produce identical canonical JSON,
// including the estimate block.
func TestSampledRunDeterminism(t *testing.T) {
	cfg := sampledConfig("det")
	var snaps [][]byte
	for i := 0; i < 2; i++ {
		st, err := RunSource(cfg, source(t, "secret_crypto52"))
		if err != nil {
			t.Fatal(err)
		}
		if st.Sampling == nil {
			t.Fatal("sampled run returned no Sampling block")
		}
		b, err := st.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, b)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("sampled run is not byte-stable:\n%s\n%s", snaps[0], snaps[1])
	}
}

// TestSampledRunShape checks the coverage accounting: the expected window
// count for the budget/interval geometry, coverage summing to at least the
// budget, and a decodable snapshot (run-cache value round trip).
func TestSampledRunShape(t *testing.T) {
	cfg := sampledConfig("shape")
	st, err := RunSource(cfg, source(t, "secret_crypto52"))
	if err != nil {
		t.Fatal(err)
	}
	sp := st.Sampling
	if sp == nil {
		t.Fatal("no sampling block")
	}
	wantWindows := cfg.MaxInstrs / cfg.Sampling.IntervalInstrs // 15
	if sp.Windows < wantWindows-1 || sp.Windows > wantWindows+1 {
		t.Fatalf("windows = %d, want ~%d", sp.Windows, wantWindows)
	}
	if sp.CPI.N != sp.Windows {
		t.Fatalf("estimate over %d samples for %d windows", sp.CPI.N, sp.Windows)
	}
	// Coverage: everything after the functional warm-up counts toward the
	// budget. The warm-up itself is also in FunctionalInstrs.
	covered := sp.FunctionalInstrs - cfg.WarmupInstrs + sp.WarmDetailInstrs + st.Instructions + sp.DrainInstrs
	if covered < cfg.MaxInstrs {
		t.Fatalf("covered %d < budget %d", covered, cfg.MaxInstrs)
	}
	if covered > cfg.MaxInstrs+cfg.Sampling.IntervalInstrs {
		t.Fatalf("covered %d overshoots budget %d by more than one unit", covered, cfg.MaxInstrs)
	}
	if st.Instructions < sp.Windows*cfg.Sampling.DetailInstrs {
		t.Fatalf("measured %d instructions over %d windows", st.Instructions, sp.Windows)
	}
	if st.Cycles <= 0 || st.IPC() <= 0 {
		t.Fatalf("empty aggregate: %+v", st)
	}
	b, err := st.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := StatsFromJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sampling == nil || *got.Sampling != *sp {
		t.Fatalf("sampling block lost in round trip: %+v != %+v", got.Sampling, sp)
	}
}

// TestSampledEstimateTracksExact runs the same machine exactly and
// sampled: the sampled estimate must land near the exact IPC. The bound is
// deliberately loose (sampling error is what the CI quantifies); the
// experiment-level validation sweep measures the real distribution.
func TestSampledEstimateTracksExact(t *testing.T) {
	exact, err := RunSource(smallConfig("exact", false), source(t, "secret_crypto52"))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RunSource(sampledConfig("sampled"), source(t, "secret_crypto52"))
	if err != nil {
		t.Fatal(err)
	}
	sp := sampled.Sampling
	mean := sp.IPCMean()
	if relErr := math.Abs(mean-exact.IPC()) / exact.IPC(); relErr > 0.25 {
		t.Fatalf("sampled estimate %.4f vs exact %.4f: %.1f%% error", mean, exact.IPC(), 100*relErr)
	}
	if sp.CPI.CI95() <= 0 {
		t.Fatal("multi-window run reports no confidence interval")
	}
	if !sp.ContainsIPC(exact.IPC()) {
		lo, hi := sp.IPCInterval()
		t.Fatalf("exact IPC %.4f outside the sampled 95%% interval [%.4f, %.4f]", exact.IPC(), lo, hi)
	}
	// The ratio estimate (aggregate IPC over all windows) must agree with
	// the CPI-derived point estimate to within the interval's own scale.
	lo, hi := sp.IPCInterval()
	if sampled.IPC() < lo-0.05 || sampled.IPC() > hi+0.05 {
		t.Fatalf("ratio estimate %.4f far from interval [%.4f, %.4f]", sampled.IPC(), lo, hi)
	}
}

// TestSampledFastForwardEquivalence pins the conformance contract: the
// event-driven fast path must produce byte-identical sampled results, with
// audit on for good measure.
func TestSampledFastForwardEquivalence(t *testing.T) {
	var snaps [][]byte
	for _, ff := range []bool{false, true} {
		cfg := sampledConfig("ff")
		cfg.FastForward = ff
		cfg.Audit = true
		st, err := RunSource(cfg, source(t, "secret_srv12"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := st.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, b)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("sampled fast-forward diverged:\n%s\n%s", snaps[0], snaps[1])
	}
}

// TestSampledSourceDrainMidWindow: a source that drains inside a detailed
// window must discard the partial window (TruncatedWindows) and terminate
// cleanly, never averaging a short window into the estimate.
func TestSampledSourceDrainMidWindow(t *testing.T) {
	cfg := sampledConfig("short")
	// Enough stream for the warm-up and a few units, then dry.
	limit := cfg.WarmupInstrs + 3*cfg.Sampling.IntervalInstrs + cfg.Sampling.WarmInstrs + cfg.Sampling.DetailInstrs/2
	st, err := RunSource(cfg, trace.NewLimit(source(t, "secret_crypto52"), limit))
	if err != nil {
		t.Fatal(err)
	}
	sp := st.Sampling
	if sp == nil {
		t.Fatal("no sampling block")
	}
	if sp.Windows+sp.TruncatedWindows == 0 {
		t.Fatal("run saw no windows at all")
	}
	if sp.CPI.N != sp.Windows {
		t.Fatalf("truncated window leaked into the estimate: N=%d windows=%d", sp.CPI.N, sp.Windows)
	}
}

// TestSampledSourceDrainDuringWarmup: the stream ending inside the initial
// functional warm-up yields a clean zero-window result.
func TestSampledSourceDrainDuringWarmup(t *testing.T) {
	cfg := sampledConfig("tiny")
	st, err := RunSource(cfg, trace.NewLimit(source(t, "secret_crypto52"), cfg.WarmupInstrs/2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sampling == nil || st.Sampling.Windows != 0 {
		t.Fatalf("expected a zero-window sampled result, got %+v", st.Sampling)
	}
	if st.Cycles != 0 || st.Instructions != 0 {
		t.Fatalf("zero-window run reports measured work: %+v", st)
	}
}

// TestSampledAuditClean: a sampled run under per-cycle invariant auditing
// completes without violations (the fill gate and window resets must not
// break cycle conservation).
func TestSampledAuditClean(t *testing.T) {
	cfg := sampledConfig("audited")
	cfg.Audit = true
	if _, err := RunSource(cfg, source(t, "secret_crypto52")); err != nil {
		t.Fatal(err)
	}
}

// TestSamplingFingerprintDistinct: sampled and exact configs of the same
// machine, and sampled configs with different geometry, must all
// fingerprint differently — they may never share run-cache entries.
func TestSamplingFingerprintDistinct(t *testing.T) {
	exact := smallConfig("m", false)
	sampled := exact
	sampled.Sampling = SamplingConfig{IntervalInstrs: 10_000, DetailInstrs: 2_000, WarmInstrs: 1_000}
	other := sampled
	other.Sampling.DetailInstrs = 2_001
	fps := map[string]string{
		"exact":   exact.Fingerprint(),
		"sampled": sampled.Fingerprint(),
		"other":   other.Fingerprint(),
	}
	seen := map[string]string{}
	for name, fp := range fps {
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s and %s share fingerprint %s", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestAddStatsCoversStats sets every int64 leaf of Stats to 1 via
// reflection and accumulates it twice: every leaf must read 2, proving the
// aggregator reaches every counter (a new field of an unexpected kind
// panics inside addStatsInto instead of being silently dropped).
func TestAddStatsCoversStats(t *testing.T) {
	var unit Stats
	setOnes(reflect.ValueOf(&unit).Elem())
	var agg Stats
	addStatsInto(&agg, &unit)
	addStatsInto(&agg, &unit)
	checkTwos(t, reflect.ValueOf(agg), "Stats")
}

func setOnes(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(1)
		case reflect.Struct:
			setOnes(f)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetInt(1)
			}
		}
	}
}

func checkTwos(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		name := path + "." + v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			if f.Int() != 2 {
				t.Errorf("%s = %d after two accumulations, want 2", name, f.Int())
			}
		case reflect.Struct:
			checkTwos(t, f, name)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				if f.Index(j).Int() != 2 {
					t.Errorf("%s[%d] = %d after two accumulations, want 2", name, j, f.Index(j).Int())
				}
			}
		}
	}
}

// TestSamplingStatsViews pins the derived IPC views on edge cases: the
// empty estimate, a healthy interval, and a CPI interval reaching zero,
// which must map to an unbounded IPC limit rather than a fabricated
// finite one.
func TestSamplingStatsViews(t *testing.T) {
	empty := &SamplingStats{}
	if got := empty.IPCMean(); got != 0 {
		t.Errorf("empty IPCMean = %v", got)
	}

	healthy := &SamplingStats{CPI: stats.Estimate{N: 16, Mean: 2.0, M2: 0.15}}
	lo, hi := healthy.IPCInterval()
	if !(0 < lo && lo < 0.5 && 0.5 < hi) || math.IsInf(hi, 1) {
		t.Errorf("healthy interval [%v, %v] does not bracket 0.5", lo, hi)
	}
	if hw := healthy.IPCCI95(); hw <= 0 || hw != (hi-lo)/2 {
		t.Errorf("IPCCI95 = %v, want half of [%v, %v]", hw, lo, hi)
	}
	if !healthy.ContainsIPC(0.5) || healthy.ContainsIPC(hi*2) {
		t.Error("ContainsIPC disagrees with IPCInterval")
	}

	// Variance so large the CPI interval crosses zero: unbounded IPC.
	wild := &SamplingStats{CPI: stats.Estimate{N: 2, Mean: 1.0, M2: 50}}
	if _, hi := wild.IPCInterval(); !math.IsInf(hi, 1) {
		t.Errorf("degenerate CPI interval produced finite IPC limit %v", hi)
	}
	if hw := wild.IPCCI95(); !math.IsInf(hw, 1) {
		t.Errorf("degenerate IPCCI95 = %v, want +Inf", hw)
	}
}
