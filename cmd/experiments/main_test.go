package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"frontsim/internal/core"

	"frontsim/internal/experiment"
	"frontsim/internal/obs"
)

func tinyParams() experiment.Params {
	p := experiment.DefaultParams()
	p.WarmupInstrs = 50_000
	p.MeasureInstrs = 150_000
	p.ProfileInstrs = 200_000
	return p
}

func TestRunTable1(t *testing.T) {
	if err := run(0, 1, "", "", 1, tinyParams(), "", true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigure1WithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run(1, 0, "", "", 1, tinyParams(), dir, true, false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "figure1.csv")); err != nil {
		t.Fatal("figure1.csv not written")
	}
}

// TestRunUnknownFigure also requires that an unknown figure is rejected
// before the suite simulates anything: no cell may reach ObsRun.
func TestRunUnknownFigure(t *testing.T) {
	p := tinyParams()
	var live atomic.Int64
	p.ObsRun = func(string, string) obs.Sink { live.Add(1); return nil }
	if err := run(99, 0, "", "", 1, p, "", true, false); err == nil {
		t.Fatal("accepted unknown figure")
	}
	if n := live.Load(); n != 0 {
		t.Fatalf("simulated %d cells before rejecting the figure", n)
	}
}

func TestRunUnknownTable(t *testing.T) {
	if err := run(0, 9, "", "", 1, tinyParams(), "", true, false); err == nil {
		t.Fatal("accepted unknown table")
	}
}

func TestRunUnknownAblation(t *testing.T) {
	if err := run(0, 0, "nope", "", 1, tinyParams(), "", true, false); err == nil {
		t.Fatal("accepted unknown ablation")
	}
}

func TestRunUnknownExtension(t *testing.T) {
	if err := run(0, 0, "", "nope", 1, tinyParams(), "", true, false); err == nil {
		t.Fatal("accepted unknown extension")
	}
}

func TestRunWithObsCollectsAndExports(t *testing.T) {
	dir := t.TempDir()
	p := tinyParams()
	col := &obs.SuiteCollector{}
	p.Obs = col
	p.ObsRun = fileObsFactory(dir, 64)
	if err := run(1, 0, "", "", 1, p, "", true, false); err != nil {
		t.Fatal(err)
	}
	if col.Len() == 0 {
		t.Fatal("suite collector recorded no runs")
	}
	if err := writeObsExports(dir, col); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics.json", "metrics.prom"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing export %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("export %s is empty", name)
		}
	}
	bundles, err := filepath.Glob(filepath.Join(dir, "*.samples.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) == 0 {
		t.Fatal("no per-run sample bundles written")
	}
}

func TestRunAblationFTQ(t *testing.T) {
	if err := run(0, 0, "ftq", "", 1, tinyParams(), "", true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunExtensionISpy(t *testing.T) {
	if err := run(0, 0, "", "ispy", 1, tinyParams(), "", true, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunSamplingValidate(t *testing.T) {
	p := tinyParams()
	p.Sampling = core.SamplingConfig{IntervalInstrs: 25_000, DetailInstrs: 2_500, WarmInstrs: 5_000}
	// One tiny suite of this size still runs every mechanism twice; the
	// coverage contract itself is only meaningful at full scale, so a
	// failure here must be the hard error for sub-90% coverage or nothing.
	err := run(0, 0, "", "", 1, p, "", true, true)
	if err != nil && !strings.Contains(err.Error(), "below the 90% contract") {
		t.Fatal(err)
	}
	p.Sampling = core.SamplingConfig{}
	if err := run(0, 0, "", "", 1, p, "", true, true); err == nil {
		t.Fatal("sampling-validate accepted a disabled sampling config")
	}
}
