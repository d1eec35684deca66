package experiment

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"frontsim/internal/obs"
	"frontsim/internal/workload"
)

// tinyParams keeps integration runs fast.
func tinyParams() Params {
	p := DefaultParams()
	p.WarmupInstrs = 100_000
	p.MeasureInstrs = 250_000
	p.ProfileInstrs = 300_000
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.MeasureInstrs = 0
	if err := p.Validate(); err == nil {
		t.Fatal("accepted zero measure")
	}
	p = DefaultParams()
	p.AsmDB.Window = 0
	if err := p.Validate(); err == nil {
		t.Fatal("accepted bad asmdb options")
	}
}

func runOne(t *testing.T) *Matrix {
	t.Helper()
	spec, _ := workload.Lookup("public_srv_60")
	m, err := RunMatrix(spec, 1, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunMatrixProducesAllSeries(t *testing.T) {
	m := runOne(t)
	for name, st := range map[string]float64{
		"cons":        m.Cons.IPC(),
		"asmdb":       m.AsmdbCons.IPC(),
		"asmdb-ideal": m.AsmdbConsIdeal.IPC(),
		"fdp":         m.FDP.IPC(),
		"asmdb+fdp":   m.AsmdbFDP.IPC(),
		"ideal+fdp":   m.AsmdbFDPIdeal.IPC(),
		"eip+fdp":     m.EIPFDP.IPC(),
	} {
		if st <= 0 {
			t.Errorf("series %s has IPC %v", name, st)
		}
	}
	if m.Plan == nil || len(m.Plan.Insertions) == 0 {
		t.Fatal("no AsmDB plan")
	}
	if m.StaticBloat <= 0 {
		t.Fatal("no static bloat")
	}
	// Paper-shape invariants on a server workload, even at tiny scale:
	// the deep FTQ beats the conservative baseline, and the inserted
	// prefetches show up as dynamic bloat only in the overhead runs.
	if m.Speedup(m.FDP) <= 1.0 {
		t.Fatalf("FDP speedup %v", m.Speedup(m.FDP))
	}
	if m.AsmdbFDP.DynamicBloat() <= 0 {
		t.Fatal("overhead run has no dynamic bloat")
	}
	if m.AsmdbFDPIdeal.DynamicBloat() != 0 {
		t.Fatal("ideal run has dynamic bloat")
	}
}

func TestFigureTablesWellFormed(t *testing.T) {
	m := runOne(t)
	ms := []*Matrix{m}
	figs := map[string]interface{ String() string }{
		"fig1":      Figure1(ms),
		"fig7":      Figure7(ms),
		"fig8":      Figure8(ms),
		"fig9":      Figure9(ms),
		"fig10":     Figure10(ms),
		"fig11":     Figure11(ms),
		"meth":      Methodology(ms),
		"tab1":      TableI(),
		"headstall": HeadStallBreakdown(ms),
	}
	for name, f := range figs {
		s := f.String()
		if s == "" {
			t.Errorf("%s renders empty", name)
		}
		if name != "tab1" && !strings.Contains(s, "public_srv_60") {
			t.Errorf("%s missing workload row:\n%s", name, s)
		}
	}
	// Figure 1 has a geomean row; with one workload it equals the row.
	f1 := Figure1(ms)
	last := f1.Rows[len(f1.Rows)-1]
	if last[1] != "geomean" {
		t.Fatalf("last row %v", last)
	}
}

func TestRunSuiteParallelMatchesOrder(t *testing.T) {
	specs := workload.All()[:3]
	p := tinyParams()
	p.Parallelism = 3
	var lines []string
	ms, err := RunSuite(specs, p, func(s string) { lines = append(lines, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("matrices = %d", len(ms))
	}
	for i, m := range ms {
		if m.Spec.Name != specs[i].Name || m.Index != i+1 {
			t.Fatalf("order broken at %d: %s", i, m.Spec.Name)
		}
	}
	if len(lines) != 3 {
		t.Fatalf("progress lines = %d", len(lines))
	}
}

// TestEachSpecFirstErrorInSpecOrder pins eachSpec's error contract on a
// sweep and on an extension: over [bad_a, good, bad_b], where a bad spec
// cannot build its program, every run reports bad_a by its position,
// whichever of the two failed first.
func TestEachSpecFirstErrorInSpecOrder(t *testing.T) {
	good := mustLookup(t, "public_srv_60")
	badA, badB := good, good
	badA.Name, badA.Funcs = "bad_a", 0
	badB.Name, badB.Funcs = "bad_b", 0
	specs := []workload.Spec{badA, good, badB}
	p := confParams()[0].p
	for _, run := range []struct {
		name string
		fn   func() error
	}{
		{"A1", func() error { _, err := AblationFTQDepth(specs, []int{2, 24}, p); return err }},
		{"X3", func() error { _, err := ExtensionISpy(specs, p); return err }},
	} {
		for i := 0; i < 20; i++ {
			if err := run.fn(); err == nil || !strings.Contains(err.Error(), "workload 1 (bad_a)") {
				t.Fatalf("%s, run %d: error %v, want one naming workload 1 (bad_a)", run.name, i, err)
			}
		}
	}
}

// closeFuncSink is a per-run observer that discards what it observes and
// calls itself when closed.
type closeFuncSink func()

func (closeFuncSink) Event(obs.Event)     {}
func (closeFuncSink) Sample(obs.Sample)   {}
func (closeFuncSink) SampleStride() int64 { return 4096 }
func (f closeFuncSink) Close() error      { f(); return nil }

// TestSuiteWorkloadsInFlight pins how many workloads a suite holds at
// once. A join runs its own group's queued tasks, so besides the pool's
// Parallelism workers the goroutine that calls RunSuite runs a whole
// workload. Counted through ObsRun, the workloads with a live cell must
// never exceed Parallelism+1: the suite's peak memory follows this bound.
func TestSuiteWorkloadsInFlight(t *testing.T) {
	specs := workload.All()[:6]
	for _, par := range []int{1, 2} {
		var mu sync.Mutex
		live := map[string]int{} // live cells per workload
		most := 0
		p := confParams()[0].p
		p.Parallelism = par
		p.ObsRun = func(name, _ string) obs.Sink {
			mu.Lock()
			defer mu.Unlock()
			live[name]++
			most = max(most, len(live))
			return closeFuncSink(func() {
				mu.Lock()
				defer mu.Unlock()
				if live[name]--; live[name] == 0 {
					delete(live, name)
				}
			})
		}
		if _, err := RunSuite(specs, p, nil); err != nil {
			t.Fatal(err)
		}
		t.Logf("Parallelism %d: at most %d workloads with a live cell", par, most)
		if most > par+1 {
			t.Errorf("Parallelism %d: %d workloads had a live cell at once, want at most %d", par, most, par+1)
		}
	}
}

// TestRunSuiteDeterminismAcrossParallelism is the regression test the
// run cache's soundness rests on: the full per-workload measurement —
// every series, every counter, serialized canonically — must be
// byte-identical whether jobs run serially (Parallelism=1), spread over a
// work-stealing pool (8), or repeated at 8 (no run-to-run jitter).
func TestRunSuiteDeterminismAcrossParallelism(t *testing.T) {
	specs := workload.All()[:2]
	run := func(par int) []*Matrix {
		t.Helper()
		p := tinyParams()
		p.Parallelism = par
		ms, err := RunSuite(specs, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	serial := run(1)
	par8a := run(8)
	par8b := run(8)
	for i := range serial {
		a := matrixCanonical(t, serial[i])
		b := matrixCanonical(t, par8a[i])
		c := matrixCanonical(t, par8b[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("parallelism changed results for %s:\n par1 %s\n par8 %s", serial[i].Spec.Name, a, b)
		}
		if !bytes.Equal(b, c) {
			t.Fatalf("repeated par-8 runs differ for %s:\n first  %s\n second %s", serial[i].Spec.Name, b, c)
		}
		for id := seriesID(0); id < numSeries; id++ {
			sa, err := serial[i].seriesPtr(id).CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			sb, err := par8a[i].seriesPtr(id).CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sa, sb) {
				t.Fatalf("series %s of %s differs across parallelism", seriesTable[id].label, serial[i].Spec.Name)
			}
		}
	}
}

func TestAblationFTQDepth(t *testing.T) {
	specs := workload.All()[:1]
	tab, err := AblationFTQDepth(specs, []int{2, 24}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // workload + geomean
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][1] != "1.000" {
		t.Fatalf("depth-2 column must be the baseline: %v", tab.Rows[0])
	}
}

func TestAblationFrontend(t *testing.T) {
	specs := workload.All()[:1]
	tab, err := AblationFrontend(specs, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 5 {
		t.Fatalf("columns = %d", len(tab.Columns))
	}
}

func TestAblationFanout(t *testing.T) {
	specs := workload.All()[:1]
	tab, err := AblationFanout(specs, []float64{0.3, 0.7}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || len(tab.Columns) != 5 {
		t.Fatalf("shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
}
