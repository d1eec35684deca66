package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"frontsim/internal/core"
	"frontsim/internal/workload"
)

// statsDigestGolden is the on-disk form of the simulator-output pin: the
// sha256 of every cell's canonical stats, keyed "workload/mode/series".
type statsDigestGolden struct {
	Schema int               `json:"schema"`
	Cells  map[string]string `json:"cells"`
}

// digestWorkloads are the pinned suite workloads: one server, one integer.
var digestWorkloads = []string{"public_srv_60", "secret_int_44"}

// digestModes are the pinned run modes at small budgets. The sampled
// geometry covers the measured region with several windows, so functional
// warming runs at warm-up and between every pair of windows.
func digestModes() []struct {
	name string
	p    Params
} {
	exact := DefaultParams()
	exact.WarmupInstrs = 20_000
	exact.MeasureInstrs = 60_000
	exact.ProfileInstrs = 80_000
	sampled := exact
	sampled.MeasureInstrs = 100_000
	sampled.Sampling = core.SamplingConfig{IntervalInstrs: 20_000, DetailInstrs: 2_000, WarmInstrs: 4_000}
	return []struct {
		name string
		p    Params
	}{{"exact", exact}, {"sampled", sampled}}
}

// TestStatsDigestGolden pins simulator output across commits: every series
// of SeriesLabels() on one server and one integer workload, exact and
// sampled, must hash to the checked-in canonical-stats digest. The
// equivalence tests only compare run modes with each other; this test
// compares the simulator with its own past, so a performance change that
// claims byte-identical results is checked against the commit before it.
//
// -update rewrites the file only when cacheSchema has moved past the
// golden's schema: within one schema, cached results and these digests
// are the same contract, and a drift is a bug, not a refresh.
//
// The digests are amd64-only: elsewhere Go may fuse the Welford update in
// stats.Estimate into an FMA, which changes the M2 bits of sampled cells.
func TestStatsDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse float ops differently", runtime.GOARCH)
	}
	got := statsDigestGolden{Schema: cacheSchema, Cells: map[string]string{}}
	for _, mode := range digestModes() {
		for i, name := range digestWorkloads {
			spec, ok := workload.Lookup(name)
			if !ok {
				t.Fatalf("workload %s missing", name)
			}
			m, err := RunMatrix(spec, i+1, mode.p)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode.name, err)
			}
			for id, label := range SeriesLabels() {
				b, err := m.seriesPtr(seriesID(id)).CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				got.Cells[name+"/"+mode.name+"/"+label] = hex.EncodeToString(sum[:])
			}
		}
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')

	golden := filepath.Join("testdata", "stats_digest_golden.json")
	raw, err := os.ReadFile(golden)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	var want statsDigestGolden
	if err == nil {
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", golden, err)
		}
	}
	if *updateGolden && (raw == nil || want.Schema < cacheSchema) {
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if raw == nil {
		t.Fatalf("%s missing (generate it with -update)", golden)
	}
	if want.Schema != cacheSchema {
		t.Fatalf("%s pins schema %d, cacheSchema is %d: regenerate with -update", golden, want.Schema, cacheSchema)
	}
	if bytes.Equal(enc, raw) {
		return
	}
	for key, sum := range want.Cells {
		if got.Cells[key] != sum {
			t.Errorf("%s: stats digest %s, golden %s", key, got.Cells[key], sum)
		}
	}
	for key := range got.Cells {
		if _, ok := want.Cells[key]; !ok {
			t.Errorf("%s: cell missing from the golden", key)
		}
	}
	if !t.Failed() {
		t.Fatalf("%s differs in layout only; got:\n%s", golden, enc)
	}
}
