package experiment

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"frontsim/internal/asmdb"
	"frontsim/internal/cache"
	"frontsim/internal/core"
	"frontsim/internal/feedback"
	"frontsim/internal/ispy"
	"frontsim/internal/obs"
	"frontsim/internal/preload"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
	"frontsim/internal/xrand"
)

// This file is the conformance matrix: one table of resolved cells, run
// under every combination of the result-neutral execution modes
// (fast-forward, observation, audit), exact and sampled, each compared
// with the reference mode in one way. A mode that changes a cell's stats,
// its run-cache bytes or its config fingerprint fails here, whatever
// mechanism the cell simulates.

// confRow is one row of the conformance table. cell resolves it for spec
// under p; plan is the pass's matrix plan, read only by rows with
// usesPlan. Under the obs axis the row's runs are observed at stride: 1,
// the odd 7, or 64.
type confRow struct {
	name     string
	usesPlan bool
	stride   int64
	cell     func(spec workload.Spec, p Params, plan *asmdb.Plan) (*Cell, error)
}

// seriesRow is the matrix series label.
func seriesRow(label string, stride int64) confRow {
	return confRow{name: label, stride: stride, cell: func(spec workload.Spec, p Params, _ *asmdb.Plan) (*Cell, error) {
		return SeriesCell(spec, label, p)
	}}
}

// machineRow is the config cell of the FDP-24 machine mod derives, as
// the ablation sweeps resolve theirs.
func machineRow(name string, stride int64, mod func(*core.Config)) confRow {
	return confRow{name: name, stride: stride, cell: func(spec workload.Spec, p Params, _ *asmdb.Plan) (*Cell, error) {
		c := core.DefaultConfig()
		mod(&c)
		return ConfigCell(spec, c, p)
	}}
}

// planRow is the config cell of the FDP-24 machine mod derives from the
// matrix plan, as the extensions resolve theirs.
func planRow(name string, stride int64, mod func(*core.Config, *asmdb.Plan) error) confRow {
	return confRow{name: name, usesPlan: true, stride: stride, cell: func(spec workload.Spec, p Params, plan *asmdb.Plan) (*Cell, error) {
		c := core.DefaultConfig()
		c.Name = name
		if err := mod(&c, plan); err != nil {
			return nil, err
		}
		return ConfigCell(spec, c, p)
	}}
}

// confRows is the table: the ten series, one config cell per machine the
// ablation sweeps add to them, X2's first grid point, and the preloader
// and I-SPY cells. The cons row comes first: it calibrates every plan.
var confRows = []confRow{
	seriesRow("cons", 1),
	seriesRow("fdp24", 7),
	seriesRow("eip+fdp24", 1),
	seriesRow("asmdb+cons", 7),
	seriesRow("asmdb-ideal+cons", 7),
	seriesRow("asmdb+fdp24", 1),
	seriesRow("asmdb-ideal+fdp24", 7),
	seriesRow("mana+fdp24", 1),
	seriesRow("shadow+fdp24", 7),
	seriesRow("itlb+fdp24", 64),
	machineRow("ftq2", 7, func(c *core.Config) { c.Name, c.Frontend.FTQEntries = "ftq2", 2 }),
	machineRow("ftq8", 1, func(c *core.Config) { c.Name, c.Frontend.FTQEntries = "ftq8", 8 }),
	machineRow("neither", 7, func(c *core.Config) { c.Frontend.EnablePFC, c.Frontend.BPU.FilterGHR = false, false }),
	machineRow("pfc-only", 7, func(c *core.Config) { c.Frontend.EnablePFC, c.Frontend.BPU.FilterGHR = true, false }),
	machineRow("ghr-filter-only", 1, func(c *core.Config) { c.Frontend.EnablePFC, c.Frontend.BPU.FilterGHR = false, true }),
	machineRow("tage", 7, func(c *core.Config) { c.Frontend.BPU.UseTAGE = true }),
	machineRow("srrip", 7, func(c *core.Config) { c.Memory.L1I.Repl = cache.ReplSRRIP }),
	machineRow("random", 1, func(c *core.Config) { c.Memory.L1I.Repl = cache.ReplRandom }),
	machineRow("wp4", 7, func(c *core.Config) { c.Frontend.WrongPathDepth = 4 }),
	machineRow("l1btb64", 64, func(c *core.Config) { c.Frontend.BPU.L1BTBEntries = 64 }),
	{name: "x2", stride: 1, cell: func(spec workload.Spec, p Params, _ *asmdb.Plan) (*Cell, error) {
		o := feedback.DefaultOptions(p.AsmDB).Points()[0]
		key := p.planKey(spec, o, p.matrixPlan(spec).ProfileConfig)
		label := fmt.Sprintf("asmdb-f%.2f-s%d+fdp24", o.FanoutThreshold, o.MaxSitesPerTarget)
		return newCell(spec, label, core.DefaultConfig(), progAsmdb, &key, p)
	}},
	planRow("preload+fdp24", 7, func(c *core.Config, plan *asmdb.Plan) error {
		store, err := preload.Compile(preload.DefaultConfig(), plan)
		c.Frontend.Prefetcher = store
		return err
	}),
	planRow("ispy+fdp24", 1, func(c *core.Config, plan *asmdb.Plan) error {
		iplan, err := ispy.Transform(plan, ispy.DefaultOptions())
		if err == nil {
			c.Triggers = iplan.Triggers(nil)
		}
		return err
	}),
}

// confMode is one corner of the mode cube, set on each resolved cell's
// config.
type confMode struct{ ff, obs, audit bool }

func (m confMode) String() string {
	return fmt.Sprintf("ff=%v,obs=%v,audit=%v", m.ff, m.obs, m.audit)
}

// confModes lists the cube, the reference mode first and all-on last.
// The exact all-on pass runs its cells one at a time through Cell.Run,
// the serving layer's path, under a live, never-cancelled context, so
// the run loop polls it; every other pass runs in the suite's waves
// under a context that is never polled.
var confModes = []confMode{
	{true, false, false},
	{false, false, false},
	{true, true, false},
	{false, true, false},
	{true, false, true},
	{false, false, true},
	{false, true, true},
	{true, true, true},
}

// confSink is the obs axis's observer: a real obs.Observer with its event
// stream on, counting its Close calls.
type confSink struct {
	*obs.Observer
	row    int
	closes atomic.Int64
}

func (s *confSink) Close() error {
	s.closes.Add(1)
	return s.Flush()
}

// confPass is what one pass produced.
type confPass struct {
	stats   [][]byte          // canonical stats, per row
	fps     []string          // config fingerprints after the flip, per row
	cache   map[string][]byte // the run-cache directory
	export  []byte            // the SuiteCollector export
	metrics runner.Metrics
	live    int // simulation entries in the cache: the live cells
	sinks   []*confSink
}

// runConfPass produces the rows of spec under base in mode m against the
// run cache at dir. rows must start with the cons row. prog, when not
// nil, is spec's program, built once for the passes that share it.
func runConfPass(t *testing.T, spec workload.Spec, prog *program.Program, base Params, rows []int, m confMode, dir string) confPass {
	t.Helper()
	c, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.Cache, p.Obs = c, &obs.SuiteCollector{}
	pool := runner.NewPool(2)
	defer pool.Close()
	ctx := uncancelled()
	cellRun := m == confModes[len(confModes)-1] && !base.Sampling.Enabled()
	if cellRun {
		live, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = live
	}

	var mu sync.Mutex
	var pass confPass
	out := make([]core.Stats, len(rows))
	pass.fps = make([]string, len(rows))
	resolve := func(i int, plan *asmdb.Plan) *Cell {
		row := confRows[rows[i]]
		cell, err := row.cell(spec, p, plan)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		cell.cfg.FastForward, cell.cfg.Audit = m.ff, m.audit
		fp := cell.cfg
		if m.obs {
			cell.p.ObsRun = func(string, string) obs.Sink {
				s := &confSink{Observer: obs.NewObserver(obs.Options{Stride: row.stride, SampleCap: 64, Events: io.Discard, MaxEvents: 256}), row: rows[i]}
				mu.Lock()
				pass.sinks = append(pass.sinks, s)
				mu.Unlock()
				return s
			}
			fp.Obs = obs.NewObserver(obs.Options{})
		}
		pass.fps[i] = fp.Fingerprint()
		cell.out = &out[i]
		return cell
	}
	in := &inputs{spec: spec, prog: prog}
	plans := p.plan(ctx, pool, in, &out[0])
	run := func(cells []*Cell) {
		if !cellRun {
			if _, err := runWaves(ctx, pool, in, cells, nil, plans); err != nil {
				t.Fatal(err)
			}
			return
		}
		for _, cell := range cells {
			res, err := cell.Run(ctx, pool)
			if err != nil {
				t.Fatal(err)
			}
			*cell.out = res.Stats
		}
	}

	var first, second []*Cell
	var derived []int
	for i, r := range rows {
		if confRows[r].usesPlan {
			derived = append(derived, i)
		} else {
			first = append(first, resolve(i, nil))
		}
	}
	run(first)
	if len(derived) > 0 {
		pe, err := plans(p.matrixPlan(spec))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range derived {
			second = append(second, resolve(i, pe.Plan))
		}
		run(second)
	}

	for i := range rows {
		b, err := out[i].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		pass.stats = append(pass.stats, b)
	}
	var buf bytes.Buffer
	if err := p.Obs.Export().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	pass.export, pass.metrics, pass.cache = buf.Bytes(), c.Metrics(), snapshotDir(t, dir)
	pass.live = simEntries(t, pass.cache)
	return pass
}

// compare checks got, a cold pass of mode m, against ref, the reference
// mode's cold pass over the same rows: the same stats, fingerprints and
// run-cache bytes, and under obs one observer per live cell, closed once,
// that received samples.
func (ref confPass) compare(t *testing.T, rows []int, m confMode, got confPass) {
	t.Helper()
	for i, r := range rows {
		name := confRows[r].name
		if !bytes.Equal(got.stats[i], ref.stats[i]) {
			t.Errorf("%s %s: stats differ from the reference mode:\n%s\n%s", m, name, got.stats[i], ref.stats[i])
		}
		if got.fps[i] != ref.fps[i] {
			t.Errorf("%s %s: config fingerprint %s, reference %s", m, name, got.fps[i], ref.fps[i])
		}
	}
	for rel, want := range ref.cache {
		if b, ok := got.cache[rel]; !ok {
			t.Errorf("%s: cache entry %s missing", m, rel)
		} else if !bytes.Equal(b, want) {
			t.Errorf("%s: cache entry %s differs from the reference mode's", m, rel)
		}
	}
	for rel := range got.cache {
		if _, ok := ref.cache[rel]; !ok {
			t.Errorf("%s: cache entry %s only written in this mode", m, rel)
		}
	}
	if !m.obs {
		return
	}
	perRow := map[int]int{}
	for _, s := range got.sinks {
		perRow[s.row]++
		if n := s.closes.Load(); n != 1 {
			t.Errorf("%s %s: observer closed %d times, want 1", m, confRows[s.row].name, n)
		}
		if s.TotalSamples() == 0 {
			t.Errorf("%s %s: observer received no samples", m, confRows[s.row].name)
		}
	}
	if len(got.sinks) != got.live {
		t.Errorf("%s: ObsRun called %d times for %d live cells", m, len(got.sinks), got.live)
	}
	for _, r := range rows {
		if perRow[r] != 1 {
			t.Errorf("%s %s: ObsRun called %d times, want 1", m, confRows[r].name, perRow[r])
		}
	}
}

// checkWarm runs the rows in the all-on mode against a copy of ref's run
// cache: every cell must be served from it, with no miss, no put and no
// ObsRun call, and give the reference's stats and SuiteCollector export.
func (ref confPass) checkWarm(t *testing.T, spec workload.Spec, base Params, rows []int) {
	t.Helper()
	dir := t.TempDir()
	for rel, b := range ref.cache {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	all := confModes[len(confModes)-1]
	warm := runConfPass(t, spec, nil, base, rows, all, dir)
	if warm.metrics.Misses != 0 || warm.metrics.Puts != 0 {
		t.Errorf("warm %s pass missed %d times and stored %d entries", all, warm.metrics.Misses, warm.metrics.Puts)
	}
	if n := len(warm.sinks); n != 0 {
		t.Errorf("warm %s pass called ObsRun %d times", all, n)
	}
	for i, r := range rows {
		if !bytes.Equal(warm.stats[i], ref.stats[i]) {
			t.Errorf("warm %s: stats differ from the cold reference pass", confRows[r].name)
		}
	}
	if !bytes.Equal(warm.export, ref.export) {
		t.Errorf("warm suite metrics differ from the cold reference pass:\n cold %s\n warm %s", ref.export, warm.export)
	}
}

// TestConformance runs the table exact and sampled (confParams) in every
// mode of the cube, against a fresh run cache per pass; compares each
// pass with the reference mode's over the same rows (confSelect); and
// serves the table warm from the reference's cache in the all-on mode.
func TestConformance(t *testing.T) {
	spec := mustLookup(t, "public_srv_60")
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for si, mode := range confParams() {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			refs := map[string]confPass{}
			refFor := func(rows []int) confPass {
				k := fmt.Sprint(rows)
				if _, ok := refs[k]; !ok {
					refs[k] = runConfPass(t, spec, prog, mode.p, rows, confModes[0], t.TempDir())
				}
				return refs[k]
			}
			for mi, m := range confModes[1:] {
				rows := confSelect(si, mi+1)
				ref := refFor(rows)
				t.Run(m.String(), func(t *testing.T) {
					t.Parallel()
					ref.compare(t, rows, m, runConfPass(t, spec, prog, mode.p, rows, m, t.TempDir()))
				})
			}
			rows := confSelect(si, len(confModes)-1)
			ref := refFor(rows)
			t.Run("warm", func(t *testing.T) {
				t.Parallel()
				ref.checkWarm(t, spec, mode.p, rows)
			})
		})
	}
}

// confParams are the table's run modes: digestModes' exact and sampled
// budgets halved, which keeps the cube's sixteen passes quick and still
// gives a sampled run three windows and the plans insertions.
func confParams() []struct {
	name string
	p    Params
} {
	modes := digestModes()
	for i := range modes {
		modes[i].p.WarmupInstrs /= 2
		modes[i].p.MeasureInstrs /= 2
		modes[i].p.ProfileInstrs /= 2
	}
	return modes
}

// confSelect selects the rows sampling mode si runs in mode mi: all of
// them, or under the race detector the cons row and every fourth row,
// from an offset set by si and by the half of the cube mi lies in. So a
// raced run still runs every row, in four modes, and every mode.
func confSelect(si, mi int) []int {
	rows := []int{0}
	for r := 1; r < len(confRows); r++ {
		if !raceDetector || r%4 == 2*si+2*mi/len(confModes) {
			rows = append(rows, r)
		}
	}
	return rows
}

// fuzzSpec derives a randomized workload from a fuzz seed: a suite spec
// with its structural seed replaced, so program shape, branch outcomes and
// memory behaviour all vary with the input.
func fuzzSpec(t *testing.T, raw uint64) workload.Spec {
	sm := xrand.NewSplitMix64(raw)
	names := []string{"public_srv_60", "secret_crypto52", "secret_int_44"}
	spec := mustLookup(t, names[sm.Next()%uint64(len(names))])
	spec.Seed = sm.Next()
	return spec
}

// FuzzConformance draws a workload seed, a row of the table, a mode and
// exact or sampled, and compares the row (with the cons row it is
// calibrated on) in that mode with the reference mode.
func FuzzConformance(f *testing.F) {
	f.Add(uint64(1), uint8(21), uint8(7), false)
	f.Add(uint64(0x5eed), uint8(7), uint8(3), true)
	f.Add(uint64(0xdeadbeef), uint8(20), uint8(5), true)
	f.Fuzz(func(t *testing.T, raw uint64, row, mode uint8, sampled bool) {
		spec := fuzzSpec(t, raw)
		p := confParams()[0].p
		if sampled {
			p = confParams()[1].p
		}
		rows := []int{0}
		if r := int(row) % len(confRows); r != 0 {
			rows = append(rows, r)
		}
		m := confModes[int(mode)%len(confModes)]
		ref := runConfPass(t, spec, nil, p, rows, confModes[0], t.TempDir())
		ref.compare(t, rows, m, runConfPass(t, spec, nil, p, rows, m, t.TempDir()))
	})
}

// snapshotDir reads every file under dir keyed by slash-separated
// relative path, for byte-level directory comparison.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
