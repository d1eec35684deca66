package experiment

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"frontsim/internal/core"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// sampledParams is tinyParams with SMARTS sampling on: ~10 windows across
// the 250k budget, enough for a t-interval while keeping the test quick.
func sampledParams() Params {
	p := tinyParams()
	p.Sampling = core.SamplingConfig{IntervalInstrs: 25_000, DetailInstrs: 2_500, WarmInstrs: 5_000}
	return p
}

// TestSamplingCacheDisjoint pins the tentpole cache-isolation contract at
// the experiment layer: a sampled suite run and an exact one over the same
// workload must address entirely disjoint run-cache entries, and the
// second run must therefore be all misses against the first one's cache.
func TestSamplingCacheDisjoint(t *testing.T) {
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("workload missing")
	}
	exact, sampled := tinyParams(), sampledParams()
	ke, err := newMatrixKeys(spec, exact)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := newMatrixKeys(spec, sampled)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for id := seriesID(0); id < numSeries; id++ {
		fe, err := runner.Fingerprint(ke.series[id])
		if err != nil {
			t.Fatal(err)
		}
		fs, err := runner.Fingerprint(ks.series[id])
		if err != nil {
			t.Fatal(err)
		}
		if fe == fs {
			t.Fatalf("series %s: sampled and exact cells share cache address %s", seriesLabels[id], fe)
		}
		if seen[fe] || seen[fs] {
			t.Fatalf("series %s: duplicate cache address", seriesLabels[id])
		}
		seen[fe], seen[fs] = true, true
	}

	// End to end: warm the cache exactly, then run sampled — every sampled
	// cell must miss and re-simulate.
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exact.Cache = c
	if _, err := RunMatrix(spec, 1, exact); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics()
	sampled.Cache = c
	m, err := RunMatrix(spec, 1, sampled)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Metrics()
	// numSeries fresh cells plus one fresh plan: the plan's provenance key
	// embeds the profiling config's fingerprint, which sampling changes.
	if got := after.Puts - before.Puts; got != int64(numSeries)+1 {
		t.Fatalf("sampled run stored %d new entries, want %d (cache sharing with exact?)", got, numSeries+1)
	}
	if m.FDP.Sampling == nil || m.FDP.Sampling.Windows == 0 {
		t.Fatalf("sampled matrix cell lacks sampling stats: %+v", m.FDP.Sampling)
	}
}

// TestSamplingConformance crosses the sampled run mode with the suite's
// result-neutral toggles — fast-forward and audit — and requires
// byte-identical matrices from every combination. Each run uses a cold
// cache so nothing is served across combinations.
func TestSamplingConformance(t *testing.T) {
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("workload missing")
	}
	type combo struct {
		name      string
		ff, audit bool
	}
	combos := []combo{
		{"ff", true, false},
		{"plain", false, false},
		{"audit", false, true},
	}
	var ref *Matrix
	for _, cb := range combos {
		p := sampledParams()
		p.FastForward, p.Audit = cb.ff, cb.audit
		c, err := runner.OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		p.Cache = c
		m, err := RunMatrix(spec, 1, p)
		if err != nil {
			t.Fatalf("%s: %v", cb.name, err)
		}
		if ref == nil {
			ref = m
			continue
		}
		for id := seriesID(0); id < numSeries; id++ {
			a, err := ref.seriesPtr(id).CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.seriesPtr(id).CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s: series %s differs from %s:\n %s\n %s",
					cb.name, seriesLabels[id], combos[0].name, b, a)
			}
		}
		if !reflect.DeepEqual(ref.Plan, m.Plan) {
			t.Errorf("%s: plan differs", cb.name)
		}
	}
}

// TestSamplingTableCI checks the rendered ablation tables carry ± columns
// exactly when sampling is on: the A8 mechanism table gets confidence
// half-widths on IPC and speedup cells under sampledParams and plain
// values under tinyParams.
func TestSamplingTableCI(t *testing.T) {
	specs := []workload.Spec{mustLookup(t, "public_srv_60")}
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := sampledParams()
	p.Cache = c
	tbl, err := AblationMechanism(specs, p)
	if err != nil {
		t.Fatal(err)
	}
	if s := tbl.String(); !strings.Contains(s, "±") {
		t.Fatalf("sampled A8 table lacks confidence intervals:\n%s", s)
	}
	pe := tinyParams()
	pe.Cache = c
	tbl, err = AblationMechanism(specs, pe)
	if err != nil {
		t.Fatal(err)
	}
	if s := tbl.String(); strings.Contains(s, "±") {
		t.Fatalf("exact A8 table unexpectedly shows confidence intervals:\n%s", s)
	}
}

func mustLookup(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, ok := workload.Lookup(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	return spec
}

// TestLongTierSampledRun is the executable contract behind
// workload.LongBudgetInstrs: a long-tier workload, sampled with the
// validated long-tier geometry at a coverage budget of at least 100M
// instructions (reduced under the race detector), completes and reports a
// finite confidence interval whose coverage bookkeeping accounts for the
// whole budget. EXPERIMENTS.md carries the measured wall-time and
// accuracy numbers for the full 200M budget.
func TestLongTierSampledRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long-tier run simulates a multi-million-instruction budget")
	}
	spec := mustLookup(t, "long_srv_584")
	p := DefaultParams()
	p.WarmupInstrs = 1_000_000
	p.MeasureInstrs = longTierTestInstrs
	p.ProfileInstrs = 2_000_000
	p.Sampling = core.SamplingConfig{IntervalInstrs: 1_000_000, DetailInstrs: 10_000, WarmInstrs: 50_000}
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p.Cache = c
	pool := runner.NewPool(2)
	defer pool.Close()
	res, err := RunConfigCellCtx(context.Background(), pool, spec, p.fdpConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Stats.Sampling
	if sp == nil {
		t.Fatal("long-tier sampled run reported no sampling stats")
	}
	wantWindows := longTierTestInstrs / p.Sampling.IntervalInstrs
	if sp.Windows < wantWindows-1 || sp.Windows > wantWindows+1 {
		t.Errorf("measured %d windows, want ~%d", sp.Windows, wantWindows)
	}
	lo, hi := sp.IPCInterval()
	if !(lo > 0 && hi > lo) || math.IsInf(hi, 1) {
		t.Errorf("degenerate IPC interval [%v, %v]", lo, hi)
	}
	if est := sp.IPCMean(); est < lo || est > hi {
		t.Errorf("IPC point estimate %v outside its own interval [%v, %v]", est, lo, hi)
	}
	covered := sp.FunctionalInstrs + sp.WarmDetailInstrs + res.Stats.Instructions + sp.DrainInstrs
	if covered < longTierTestInstrs || covered > longTierTestInstrs+2*p.Sampling.IntervalInstrs {
		t.Errorf("coverage bookkeeping %d instrs does not account for the %d budget", covered, longTierTestInstrs)
	}
}

// TestSampledMatrixSingleProc runs the pinned sampled mode's cells with
// one P and with the default count. Functional warming runs as two
// goroutines; with one P they interleave through the chunk hand-off
// instead of overlapping, and every cell must come out byte-identical
// (and must come out at all: a hand-off that needs both stages running at
// once would deadlock here).
func TestSampledMatrixSingleProc(t *testing.T) {
	spec, ok := workload.Lookup(digestWorkloads[0])
	if !ok {
		t.Fatal("workload missing")
	}
	p := digestModes()[1].p
	run := func(procs int) *Matrix {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		done := make(chan *Matrix, 1)
		go func() {
			m, err := RunMatrix(spec, 1, p)
			if err != nil {
				t.Error(err)
			}
			done <- m
		}()
		select {
		case m := <-done:
			return m
		case <-time.After(2 * time.Minute):
			t.Fatalf("sampled matrix with GOMAXPROCS(%d) did not finish", procs)
			return nil
		}
	}
	one, all := run(1), run(runtime.GOMAXPROCS(0))
	if one == nil || all == nil {
		t.FailNow()
	}
	for id, label := range SeriesLabels() {
		a, err := one.seriesPtr(seriesID(id)).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := all.seriesPtr(seriesID(id)).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: GOMAXPROCS(1) stats differ:\n %s\n %s", label, a, b)
		}
	}
}
