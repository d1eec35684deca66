package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"frontsim/internal/asmdb"
	"frontsim/internal/cfg"
	"frontsim/internal/core"
	"frontsim/internal/hwpf"
	"frontsim/internal/isa"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/stats"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// goldenPin is the on-disk form of a cross-commit pin: a string map
// stamped with the cache schema it was written under. The stats digest
// maps "workload/mode/series" to the sha256 of that cell's canonical
// stats; the address pin maps each run-cache content address to its
// key's kind and the series that wrote it.
type goldenPin struct {
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
// The digests are amd64-only: elsewhere Go may fuse the Welford update in
// stats.Estimate into an FMA, which changes the M2 bits of sampled cells.
func TestStatsDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse float ops differently", runtime.GOARCH)
	}
	got := map[string]string{}
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
				got[name+"/"+mode.name+"/"+label] = hex.EncodeToString(sum[:])
			}
		}
	}
	checkPin(t, "stats_digest_golden.json", got)
}

// TestTableGolden pins the text of every ablation and extension table
// across commits, over digestWorkloads in each of digestModes. The stats
// digest pins what the cells compute; this pins how the tables render
// them, so a change to a table's code must print the same bytes. The
// sampled tables carry both bounded and unbounded ± cells. X1–X3 always
// run exact, so they are pinned in the exact mode only. amd64-only, as
// TestStatsDigestGolden is.
func TestTableGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("tables are pinned on amd64; %s may fuse float ops differently", runtime.GOARCH)
	}
	var specs []workload.Spec
	for _, name := range digestWorkloads {
		specs = append(specs, mustLookup(t, name))
	}
	tables := []struct {
		name      string
		exactOnly bool
		run       func(Params) (*stats.Table, error)
	}{
		{"A1", false, func(p Params) (*stats.Table, error) { return AblationFTQDepth(specs, []int{2, 8, 24}, p) }},
		{"A2", false, func(p Params) (*stats.Table, error) { return AblationFanout(specs, []float64{0.3, 0.5}, p) }},
		{"A3", false, func(p Params) (*stats.Table, error) { return AblationFrontend(specs, p) }},
		{"A4", false, func(p Params) (*stats.Table, error) { return AblationPredictor(specs, p) }},
		{"A5", false, func(p Params) (*stats.Table, error) { return AblationReplacement(specs, p) }},
		{"A6", false, func(p Params) (*stats.Table, error) { return AblationWrongPath(specs, []int{0, 4}, p) }},
		{"A7", false, func(p Params) (*stats.Table, error) { return AblationBTB(specs, []int{0, 1024}, p) }},
		{"A8", false, func(p Params) (*stats.Table, error) { return AblationMechanism(specs, p) }},
		{"X1", true, func(p Params) (*stats.Table, error) { return ExtensionPreload(specs, p) }},
		{"X2", true, func(p Params) (*stats.Table, error) { return ExtensionFeedback(specs, p) }},
		{"X3", true, func(p Params) (*stats.Table, error) { return ExtensionISpy(specs, p) }},
	}
	got := map[string]string{}
	for _, mode := range digestModes() {
		for _, tab := range tables {
			if tab.exactOnly && mode.p.Sampling.Enabled() {
				continue
			}
			tb, err := tab.run(mode.p)
			if err != nil {
				t.Fatalf("%s/%s: %v", mode.name, tab.name, err)
			}
			got[mode.name+"/"+tab.name] = tb.String()
		}
	}
	checkPin(t, "table_golden.json", got)
}

// checkPin compares cells with the golden pin file under testdata.
// -update rewrites the file only when cacheSchema has moved past the
// pin's schema: within one schema, cached results, their keys and these
// pins are the same contract, and a drift is a bug, not a refresh.
func checkPin(t *testing.T, file string, cells map[string]string) {
	t.Helper()
	enc, err := json.MarshalIndent(goldenPin{Schema: cacheSchema, Cells: cells}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')

	golden := filepath.Join("testdata", file)
	raw, err := os.ReadFile(golden)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	var want goldenPin
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
	for key, v := range want.Cells {
		if cells[key] != v {
			t.Errorf("%s: got %q, golden %q", key, cells[key], v)
		}
	}
	for key, v := range cells {
		if _, ok := want.Cells[key]; !ok {
			t.Errorf("%s (%s): missing from the golden", key, v)
		}
	}
	if !t.Failed() {
		t.Fatalf("%s differs in layout only; got:\n%s", golden, enc)
	}
}

// TestCacheAddressGolden pins run-cache keys across commits: a cold pass
// over both modes of digestModes' matrix, A1 at FTQ depths {2, 4} and A2
// at fanout 0.30 must write exactly the checked-in entries, each labelled
// with its key's kind and the pass and series that wrote it. The stats
// digest pins what a cell computes; this pins where it is stored, so a
// change to how cells are keyed misses every warm cache even when its
// stats are unchanged. Addresses never depend on stats, so the budgets
// are tiny.
func TestCacheAddressGolden(t *testing.T) {
	spec, ok := workload.Lookup(digestWorkloads[0])
	if !ok {
		t.Fatal("workload missing")
	}
	exact := addressParams(t)
	sampled := exact
	sampled.Sampling = core.SamplingConfig{IntervalInstrs: 5_000, DetailInstrs: 500, WarmInstrs: 1_000}

	got := map[string]string{}
	specs := []workload.Spec{spec}
	addressPass(t, spec, got, "exact", exact, func() error { _, err := RunMatrix(spec, 1, exact); return err })
	addressPass(t, spec, got, "sampled", sampled, func() error { _, err := RunMatrix(spec, 1, sampled); return err })
	addressPass(t, spec, got, "ftq", exact, func() error { _, err := AblationFTQDepth(specs, []int{2, 4}, exact); return err })
	addressPass(t, spec, got, "fanout", exact, func() error { _, err := AblationFanout(specs, []float64{0.30}, exact); return err })
	checkPin(t, "cache_address_golden.json", got)
}

// TestPrefetcherAddressGolden pins the run-cache addresses of the
// prefetcher cells outside the matrix, at TestCacheAddressGolden's
// budgets: the next-line override cell as the serving layer builds it
// (internal/serve TestPrepare ties the two), and every entry a cold X1
// pass (the metadata preloader) and a cold X3 pass (I-SPY's trigger
// table) write. A prefetcher reaches its cell's address only through its
// fingerprint string, so a changed string fails here.
func TestPrefetcherAddressGolden(t *testing.T) {
	spec, ok := workload.Lookup(digestWorkloads[0])
	if !ok {
		t.Fatal("workload missing")
	}
	got := map[string]string{}
	nextLine := core.DefaultConfig()
	nextLine.Name += "+nextline"
	nextLine.Frontend.Prefetcher = hwpf.NextLineConfig{Degree: 2}
	cell, err := ConfigCell(spec, nextLine, addressParams(t))
	if err != nil {
		t.Fatal(err)
	}
	got[cell.Address()] = "sim override/" + nextLine.Name
	specs := []workload.Spec{spec}
	preload := addressParams(t)
	addressPass(t, spec, got, "preload", preload, func() error { _, err := ExtensionPreload(specs, preload); return err })
	ispy := addressParams(t)
	addressPass(t, spec, got, "ispy", ispy, func() error { _, err := ExtensionISpy(specs, ispy); return err })
	checkPin(t, "prefetcher_address_golden.json", got)
}

// addressParams returns the address pins' exact budgets over a fresh run
// cache.
func addressParams(t *testing.T) Params {
	t.Helper()
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.WarmupInstrs = 5_000
	p.MeasureInstrs = 20_000
	p.ProfileInstrs = 30_000
	p.Cache = c
	return p
}

// addressPass runs one pass against p.Cache and adds to got every entry
// in it that got lacks, labelled with its key's kind and the pass and
// series that wrote it: the matrix's through the addresses ProbeCell
// reports for its series, the others by the series name their cells carry
// (the config name; A2's threshold).
func addressPass(t *testing.T, spec workload.Spec, got map[string]string, name string, p Params, run func() error) {
	t.Helper()
	if err := run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	series := map[string]string{}
	for _, label := range SeriesLabels() {
		if _, addr, _, err := ProbeCell(spec, label, p); err != nil {
			t.Fatal(err)
		} else {
			series[addr] = label
		}
	}
	for rel, b := range snapshotDir(t, p.Cache.Dir()) {
		addr := strings.TrimSuffix(path.Base(rel), ".json")
		if _, old := got[addr]; old {
			continue
		}
		var e struct {
			Key struct {
				Kind  string         `json:"kind"`
				AsmDB *asmdb.Options `json:"asmdb"`
			} `json:"key"`
			Value struct{ Config string } `json:"value"`
		}
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatalf("cache entry %s: %v", rel, err)
		}
		label, ok := series[addr]
		switch {
		case ok:
		case e.Key.Kind == "plan":
			label = "plan"
		case e.Key.AsmDB != nil:
			label = fmt.Sprintf("fanout%.2f", e.Key.AsmDB.FanoutThreshold)
		default:
			label = e.Value.Config
		}
		got[addr] = e.Key.Kind + " " + name + "/" + label
	}
}

// streamWindows are the starts of the pinned stream windows, each
// streamWindow instructions long: the entry path, and a window far enough
// in to have left the dispatcher's first callees.
var streamWindows = []int{0, 500_000}

const (
	streamWindow = 20_000
	streamSeed   = 1
)

// streamAsmdbWorkloads get their AsmDB-rewritten stream pinned too: one
// per category.
var streamAsmdbWorkloads = []string{"secret_crypto52", "secret_int_44", "public_srv_60"}

// TestStreamDigestGolden pins every workload's generated program across
// commits, below the simulator: its static size, and the sha256 of two
// windows of its executor stream at a fixed seed. For one workload per
// category it pins the same windows of the AsmDB-rewritten program, planned
// from a short profile. The stats digest only sees the streams through two
// workloads' simulated stats; this sees every program, instruction by
// instruction, so a change to how programs are represented, generated or
// rewritten must keep each of them byte-identical.
func TestStreamDigestGolden(t *testing.T) {
	got := map[string]string{}
	pin := func(name string, prog *program.Program) {
		got[name+"/static"] = fmt.Sprintf("%d instrs, %d bytes", prog.NumInstrs(), prog.StaticBytes())
		for i, d := range streamDigests(t, prog) {
			got[fmt.Sprintf("%s/stream@%d", name, streamWindows[i])] = d
		}
	}
	for _, name := range append(workload.Names(), workload.LongNames()...) {
		spec, ok := workload.Lookup(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		prog, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		pin(name, prog)
	}
	for _, name := range streamAsmdbWorkloads {
		spec, _ := workload.Lookup(name)
		prog, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		graph, err := cfg.Profile(trace.NewLimit(program.NewExecutor(prog, streamSeed), 200_000), cfg.Options{IPC: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := asmdb.Build(graph, asmdb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rw, applied, err := asmdb.Apply(prog, plan)
		if err != nil {
			t.Fatal(err)
		}
		if applied == 0 {
			t.Fatalf("%s: the plan inserted no prefetch", name)
		}
		pin(name+"/asmdb", rw)
	}
	checkPin(t, "stream_digest_golden.json", got)
}

// streamDigests hashes each of streamWindows' windows of prog's executor
// stream, every instruction as its five fields in little-endian order.
func streamDigests(t *testing.T, prog *program.Program) []string {
	t.Helper()
	src := program.NewExecutor(prog, streamSeed)
	var buf []isa.Instr
	var rec [26]byte
	pos := 0
	out := make([]string, 0, len(streamWindows))
	for _, start := range streamWindows {
		h := sha256.New()
		for pos < start+streamWindow {
			var err error
			if buf, err = src.NextBlock(buf[:0], 4096); err != nil {
				t.Fatal(err)
			}
			for _, in := range buf {
				if pos >= start && pos < start+streamWindow {
					binary.LittleEndian.PutUint64(rec[0:], uint64(in.PC))
					rec[8] = byte(in.Class)
					rec[9] = 0
					if in.Taken {
						rec[9] = 1
					}
					binary.LittleEndian.PutUint64(rec[10:], uint64(in.Target))
					binary.LittleEndian.PutUint64(rec[18:], uint64(in.DataAddr))
					h.Write(rec[:])
				}
				pos++
			}
		}
		out = append(out, hex.EncodeToString(h.Sum(nil)))
	}
	return out
}
