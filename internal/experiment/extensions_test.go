package experiment

import (
	"encoding/json"
	"fmt"
	"testing"

	"frontsim/internal/stats"
	"frontsim/internal/workload"
)

func extSpecs() []workload.Spec {
	s, _ := workload.Lookup("secret_crypto52")
	return []workload.Spec{s}
}

// extensionTables are the extensions' entry points, for tests that run
// each of them.
var extensionTables = []struct {
	name string
	run  func([]workload.Spec, Params) (*stats.Table, error)
}{{"preload", ExtensionPreload}, {"ispy", ExtensionISpy}, {"feedback", ExtensionFeedback}}

// simEntries counts the simulation entries in a run-cache snapshot
// (snapshotDir): one per live cell.
func simEntries(t *testing.T, files map[string][]byte) int {
	t.Helper()
	n := 0
	for rel, b := range files {
		var e struct {
			Key struct {
				Kind string `json:"kind"`
			} `json:"key"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("cache entry %s: %v", rel, err)
		}
		if e.Key.Kind == "sim" {
			n++
		}
	}
	return n
}

// extensionOnMatrix runs an extension on public_srv_60 after RunMatrix
// filled a fresh cache: it must store wantSims simulation entries, and a
// second pass must render the same table from pure cache hits.
func extensionOnMatrix(t *testing.T, run func([]workload.Spec, Params) (*stats.Table, error), wantSims int) (*Matrix, []string, Params) {
	t.Helper()
	dir := t.TempDir()
	p := cellParams(t, dir)
	spec := mustLookup(t, "public_srv_60")
	m, err := RunMatrix(spec, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	before := simEntries(t, snapshotDir(t, dir))
	cold, err := run([]workload.Spec{spec}, p)
	if err != nil {
		t.Fatal(err)
	}
	if n := simEntries(t, snapshotDir(t, dir)) - before; n != wantSims {
		t.Errorf("cold pass stored %d sim entries, want %d", n, wantSims)
	}
	warm := cellParams(t, dir)
	wt, err := run([]workload.Spec{spec}, warm)
	if err != nil {
		t.Fatal(err)
	}
	if mt := warm.Cache.Metrics(); mt.Misses != 0 || mt.Puts != 0 {
		t.Errorf("warm pass was not pure cache hits: %+v", mt)
	}
	if cold.String() != wt.String() {
		t.Errorf("warm table differs from cold:\n%s\n%s", cold, wt)
	}
	return m, cold.Rows[0], warm
}

// TestExtensionPreloadTable: X1's inserted-AsmDB column is the matrix's
// asmdb+fdp24 over fdp24, and only the preloader cell is new.
func TestExtensionPreloadTable(t *testing.T) {
	m, row, _ := extensionOnMatrix(t, ExtensionPreload, 1)
	if want := fmt.Sprintf("%.3f", m.AsmdbFDP.IPC()/m.FDP.IPC()); row[1] != want {
		t.Errorf("asmdb-inserted = %s, matrix ratio %s", row[1], want)
	}
	if row[3] == "0.00" || row[4] == "0" {
		t.Errorf("preloader row %v lacks metadata misses or store entries", row)
	}
}

// TestExtensionISpyTable: X3's AsmDB column is the matrix's
// asmdb-ideal+fdp24 over fdp24, and only the I-SPY cell is new.
func TestExtensionISpyTable(t *testing.T) {
	m, row, _ := extensionOnMatrix(t, ExtensionISpy, 1)
	if want := fmt.Sprintf("%.3f", m.AsmdbFDPIdeal.IPC()/m.FDP.IPC()); row[1] != want {
		t.Errorf("asmdb = %s, matrix ratio %s", row[1], want)
	}
}

// TestExtensionFeedbackTable: X2 measures its whole grid, five new
// candidate cells; its baseline and its p.AsmDB point are the matrix's
// fdp24 and asmdb+fdp24 cells.
func TestExtensionFeedbackTable(t *testing.T) {
	m, row, p := extensionOnMatrix(t, ExtensionFeedback, 5)
	if want := fmt.Sprintf("%.3f", m.FDP.IPC()); row[1] != want {
		t.Errorf("baseline-ipc = %s, matrix fdp24 %s", row[1], want)
	}
	res, err := FeedbackSearch(m.Spec, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 6 || res.BaselineIPC != m.FDP.IPC() || res.Best.IPC < res.BaselineIPC {
		t.Fatalf("search %+v", res)
	}
	for _, c := range res.Candidates {
		if c.IPC <= 0 || c.Insertions <= 0 {
			t.Errorf("degenerate candidate %+v", c)
		}
		if c.Fanout == p.AsmDB.FanoutThreshold && c.SitesPerTarget == p.AsmDB.MaxSitesPerTarget &&
			(c.IPC != m.AsmdbFDP.IPC() || c.Insertions != len(m.Plan.Insertions)) {
			t.Errorf("p.AsmDB's point %+v is not the matrix's asmdb+fdp24 cell", c)
		}
	}
	if mt := p.Cache.Metrics(); mt.Misses != 0 {
		t.Errorf("FeedbackSearch on a warm cache missed: %+v", mt)
	}
}

func TestAblationWrongPathTable(t *testing.T) {
	tab, err := AblationWrongPath(extSpecs(), []int{0, 4}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Columns) != 5 {
		t.Fatalf("columns = %d", len(tab.Columns))
	}
}

func TestAblationReplacementTable(t *testing.T) {
	tab, err := AblationReplacement(extSpecs(), tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || len(tab.Columns) != 7 {
		t.Fatalf("shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
}

func TestAblationPredictorTable(t *testing.T) {
	tab, err := AblationPredictor(extSpecs(), tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // workload + geomean
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}
