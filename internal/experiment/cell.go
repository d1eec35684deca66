package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"frontsim/internal/asmdb"
	"frontsim/internal/cfg"
	"frontsim/internal/core"
	"frontsim/internal/isa"
	"frontsim/internal/obs"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// This file is the one cell path of the experiment harness. Every
// simulation — a matrix series, an ablation-sweep cell, a single cell
// served over HTTP (internal/serve) — is a resolved Cell: addressable
// before it runs, probed against the run cache, and on a miss simulated
// by the one cold-cell runner, so the same cell produced by any caller is
// byte-identical and shares one run-cache entry.

// Cell is one resolved simulation cell: a machine configuration stamped
// with the run's budgets and modes, the program variant it runs, and the
// run-cache key and content address that follow from them.
type Cell struct {
	spec   workload.Spec
	series string // labels the cell for obs and progress
	cfg    core.Config
	key    simKey
	// entry is key marshaled and hashed once: the cell's content address
	// and the form every lookup reads the run cache with.
	entry runner.Key
	p     Params
	// plan identifies the plan a plan-derived variant runs (nil for the
	// base program); rewritten is that plan's program once applied.
	plan      *planKey
	rewritten *program.Program

	// out receives the cell's stats from probe or run; progress, when set,
	// gets one line per produced cell; cached reports which produced it.
	out      *core.Stats
	progress *runner.Progress
	cached   bool
}

// CellResult is one completed simulation cell.
type CellResult struct {
	// Stats is the cell's statistics snapshot, identical to what the
	// suite path would cache for the same key.
	Stats core.Stats
	// Fingerprint is the cell's content address: the run-cache address of
	// its full input identity (config fingerprint, workload, seed,
	// budgets, plan provenance). Equal fingerprints mean byte-identical
	// results.
	Fingerprint string
	// Cached reports whether the result came from the run cache without
	// simulating.
	Cached bool
}

// newCell resolves one cell of spec under p: machine stamped with p's
// budgets and modes, run against program variant prog. Plan-derived
// variants carry the provenance of their plan in the key, because
// planning is a deterministic function of it.
func newCell(spec workload.Spec, series string, machine core.Config, prog string, plan *planKey, p Params) (*Cell, error) {
	c := &Cell{spec: spec, series: series, cfg: p.stamp(machine), p: p}
	c.key = simKey{Schema: cacheSchema, Kind: "sim", Workload: spec, Program: prog,
		Config: c.cfg.Fingerprint(), ExecSeed: spec.Seed ^ p.ExecSeedSalt}
	if plan != nil {
		k := *plan
		c.plan = &k
		c.key.AsmDB, c.key.ProfileInstrs, c.key.ProfileConfig = &k.AsmDB, k.ProfileInstrs, k.ProfileConfig
	}
	var err error
	c.entry, err = runner.NewKey(c.key)
	return c, err
}

// resolveSeries resolves the matrix series id of spec under p. plan is the
// identity of the matrix's AsmDB plan (Params.matrixPlan), which
// plan-derived series carry in their keys; base-program series ignore it.
func resolveSeries(spec workload.Spec, id seriesID, p Params, plan planKey) (*Cell, error) {
	row := seriesTable[id]
	if row.program == progBase {
		return newCell(spec, row.label, row.machine, progBase, nil, p)
	}
	return newCell(spec, row.label, row.machine, row.program, &plan, p)
}

// SeriesCell resolves the (workload, series) cell under p; series is one
// of SeriesLabels.
func SeriesCell(spec workload.Spec, series string, p Params) (*Cell, error) {
	for id, row := range seriesTable {
		if row.label != series {
			continue
		}
		var plan planKey
		if row.program != progBase {
			plan = p.matrixPlan(spec)
		}
		return resolveSeries(spec, seriesID(id), p, plan)
	}
	return nil, fmt.Errorf("experiment: unknown series %q (valid: %v)", series, SeriesLabels())
}

// ConfigCell resolves a run of the machine configuration c against spec's
// unmodified program under p, labelled c.Name. The ablation sweeps resolve
// their cells the same way, so a served config-override cell and the
// sweep's cell for the same machine share one cache entry.
func ConfigCell(spec workload.Spec, c core.Config, p Params) (*Cell, error) {
	return newCell(spec, c.Name, c, progBase, nil, p)
}

// SeriesLabels returns the ten per-workload series names, in suite
// order: cons, fdp24, eip+fdp24, asmdb+cons, asmdb-ideal+cons,
// asmdb+fdp24, asmdb-ideal+fdp24, mana+fdp24, shadow+fdp24, itlb+fdp24.
func SeriesLabels() []string {
	out := make([]string, 0, numSeries)
	for _, row := range seriesTable {
		out = append(out, row.label)
	}
	return out
}

// Address returns the cell's run-cache content address: the coalescing
// and cache-lookup key of the serving layer.
func (c *Cell) Address() string { return c.entry.Address() }

// Probe looks the cell up in the run cache without executing anything.
func (c *Cell) Probe() (core.Stats, bool, error) {
	var st core.Stats
	ok := c.Lookup(func(b []byte) error { return json.Unmarshal(b, &st) })
	return st, ok, nil
}

// Lookup is Probe on the run cache's raw read path (runner.Cache.Lookup):
// on a hit it hands decode the stored stats bytes, which are the stats'
// CanonicalJSON, and the cell is warm only if decode accepts them.
func (c *Cell) Lookup(decode func(stats []byte) error) bool {
	return c.p.Cache.Lookup(c.entry, decode)
}

// record reports a produced cell, cached or live, to the suite collector
// and the progress tracker.
func (c *Cell) record(cached bool) {
	c.cached = cached
	if c.p.Obs != nil {
		c.p.Obs.Record(c.out.MetricSet(
			obs.Label{Key: "workload", Value: c.spec.Name},
			obs.Label{Key: "series", Value: c.series},
		))
	}
	c.progress.JobDone(c.spec.Name+"/"+c.series, cached)
}

// inputs is what a workload's cold cells simulate: the generated program,
// built on first use, and the profile its plans share.
type inputs struct {
	spec  workload.Spec
	prog  *program.Program
	graph *cfg.Graph
}

// program returns the workload's generated program.
func (in *inputs) program() (*program.Program, error) {
	if in.prog == nil {
		prog, err := in.spec.Build()
		if err != nil {
			return nil, err
		}
		in.prog = prog
	}
	return in.prog, nil
}

// profile returns the workload's profile over instrs instructions of the
// executor seeded with seed, calibrated with the IPC ipc reports, made on
// the first call only: all plans of one pass share one profiling setup.
func (in *inputs) profile(ctx context.Context, seed uint64, instrs int64, ipc func() (float64, error)) (*cfg.Graph, error) {
	if in.graph != nil {
		return in.graph, nil
	}
	prog, err := in.program()
	if err != nil {
		return nil, err
	}
	v, err := ipc()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s profile: %w", in.spec.Name, err)
	}
	if in.graph, err = cfg.Profile(trace.NewLimit(program.NewExecutor(prog, seed), instrs), cfg.Options{IPC: v}); err != nil {
		return nil, fmt.Errorf("%s profile: %w", in.spec.Name, err)
	}
	return in.graph, nil
}

// applyPlan derives from plan, identified by key, the inputs of the cells
// that run it: the rewritten program or the trigger table.
func (in *inputs) applyPlan(key planKey, plan *asmdb.Plan, cells []*Cell) error {
	var rw *program.Program
	var triggers map[isa.Addr][]isa.Addr
	for _, c := range cells {
		if c.plan == nil || *c.plan != key {
			continue
		}
		prog, err := in.program()
		if err != nil {
			return err
		}
		switch c.key.Program {
		case progAsmdb:
			if rw == nil {
				if rw, _, err = asmdb.Apply(prog, plan); err != nil {
					return fmt.Errorf("%s apply: %w", in.spec.Name, err)
				}
			}
			c.rewritten = rw
		case progTriggers:
			if triggers == nil {
				triggers = asmdb.Triggers(prog, plan)
			}
			c.cfg.Triggers = triggers
		}
	}
	return nil
}

// run is the single cold-cell runner: it attaches the ObsRun observer,
// simulates the cell over its program under ctx, closes the observer as
// soon as the run ends, then caches and records the result. A failed or
// cancelled run is never cached.
func (c *Cell) run(ctx context.Context, in *inputs) error {
	cfg, prog := c.cfg, in.prog
	if c.rewritten != nil {
		prog = c.rewritten
	}
	if c.p.ObsRun != nil {
		cfg.Obs = c.p.ObsRun(c.spec.Name, c.series)
	}
	st, err := core.RunSourceCtx(ctx, cfg, program.NewExecutor(prog, c.key.ExecSeed))
	if cl, ok := cfg.Obs.(io.Closer); ok {
		if cerr := cl.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing observer: %w", cerr)
		}
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", c.spec.Name, c.series, err)
	}
	if err := c.p.Cache.Put(c.key, st); err != nil {
		return err
	}
	*c.out = st
	c.record(false)
	return nil
}

// probe fills *c.out for each cell the run cache holds, recording the
// hit, and returns the misses.
func probe(cells []*Cell) ([]*Cell, error) {
	var cold []*Cell
	for _, c := range cells {
		st, ok, err := c.Probe()
		if err != nil {
			return nil, err
		} else if !ok {
			cold = append(cold, c)
			continue
		}
		*c.out = st
		c.record(true)
	}
	return cold, nil
}

// runCells runs each cold cell as its own stealable job on pool, joined
// with ctx (runner.Group.WaitCtx) while every run polls the same ctx, so
// an abandoned join stops its simulations instead of stranding them on
// workers.
func runCells(ctx context.Context, pool *runner.Pool, in *inputs, cells []*Cell) error {
	if len(cells) == 0 {
		return nil
	}
	if _, err := in.program(); err != nil {
		return err
	}
	g := pool.NewGroup()
	for _, c := range cells {
		g.Go(func() error { return c.run(ctx, in) })
	}
	return g.WaitCtx(ctx)
}

// uncancelled is the context of the ctx-less entry points (RunMatrix,
// RunSuite, the ablation sweeps and the extensions): their cells always
// run to completion.
func uncancelled() context.Context {
	return context.Background() //lint:allow ctx-less entry points run every cell to completion; single cells take the caller's ctx
}

// planner materializes the plan under a key for runWaves.
type planner func(planKey) (planEntry, error)

// plan is the planner of the matrix's plan family: a key's cached entry,
// or a plan built with key.AsmDB from the pass's profile (inputs.profile)
// and cached. The profile is calibrated on the conservative series: cons
// when the caller produced it, else loaded or run.
func (p Params) plan(ctx context.Context, pool *runner.Pool, in *inputs, cons *core.Stats) planner {
	consIPC := func() (float64, error) {
		if cons != nil {
			return cons.IPC(), nil
		}
		c, err := resolveSeries(in.spec, serCons, p, planKey{})
		if err != nil {
			return 0, err
		}
		var st core.Stats
		c.out = &st
		_, err = runWaves(ctx, pool, in, []*Cell{c}, nil, nil)
		return st.IPC(), err
	}
	return func(key planKey) (planEntry, error) {
		var pe planEntry
		if ok, err := p.Cache.Get(key, &pe); err != nil || ok {
			return pe, err
		}
		graph, err := in.profile(ctx, key.ExecSeed, key.ProfileInstrs, consIPC)
		if err != nil {
			return pe, err
		}
		if pe.Plan, err = asmdb.Build(graph, key.AsmDB); err != nil {
			return pe, fmt.Errorf("%s plan: %w", in.spec.Name, err)
		}
		pe.StaticBloat = pe.Plan.StaticBloat(in.prog)
		return pe, p.Cache.Put(key, pe)
	}
}

// runWaves produces cells of in's workload in the matrix waves: probe
// them, run the base-program misses, materialize with plan the plans the
// caller reads and each plan-derived miss's own, apply them, and run the
// plan-derived misses. It returns the entries of plans, in order. A pass
// whose cells and plans are all cached builds and profiles nothing.
func runWaves(ctx context.Context, pool *runner.Pool, in *inputs, cells []*Cell, plans []planKey, plan planner) ([]planEntry, error) {
	cold, err := probe(cells)
	if err != nil {
		return nil, err
	}
	keys := slices.Clone(plans)
	var base, planned []*Cell
	for _, c := range cold {
		if c.plan == nil {
			base = append(base, c)
			continue
		}
		planned = append(planned, c)
		if !slices.Contains(keys, *c.plan) {
			keys = append(keys, *c.plan)
		}
	}
	if err := runCells(ctx, pool, in, base); err != nil {
		return nil, err
	}
	pes := make([]planEntry, len(keys))
	for i, key := range keys {
		if pes[i], err = plan(key); err != nil {
			return nil, err
		}
		if err := in.applyPlan(key, pes[i].Plan, planned); err != nil {
			return nil, err
		}
	}
	return pes[:len(plans)], runCells(ctx, pool, in, planned)
}

// Run produces the cell: from the run cache when warm, otherwise by
// simulating it on pool with ctx plumbed through the scheduler join and
// the cycle loop. A plan-derived cell first materializes its AsmDB plan
// through the same cache (and, to profile on a miss, the conservative
// baseline), so a cold cell leaves behind the entries the suite path
// would. On cancellation the returned error wraps ctx.Err(), and nothing
// cancelled is cached. A cell may run any number of times, concurrently
// too: Run works on a copy, and the cell's machine is plain data from
// which each run builds its own prefetcher.
func (c *Cell) Run(ctx context.Context, pool *runner.Pool) (CellResult, error) {
	cell, in := *c, &inputs{spec: c.spec}
	res := CellResult{Fingerprint: c.Address()}
	cell.out = &res.Stats
	if _, err := runWaves(ctx, pool, in, []*Cell{&cell}, nil, c.p.plan(ctx, pool, in, nil)); err != nil {
		return CellResult{}, err
	}
	res.Cached = cell.cached
	return res, nil
}

// RunCellCtx produces one (workload, series) cell under p with Run.
func RunCellCtx(ctx context.Context, pool *runner.Pool, spec workload.Spec, series string, p Params) (CellResult, error) {
	if err := p.Validate(); err != nil {
		return CellResult{}, err
	}
	c, err := SeriesCell(spec, series, p)
	if err != nil {
		return CellResult{}, err
	}
	return c.Run(ctx, pool)
}

// ProbeCell looks a (workload, series) cell up in the cache without
// executing anything. It returns the cell's content address in either
// case.
func ProbeCell(spec workload.Spec, series string, p Params) (core.Stats, string, bool, error) {
	c, err := SeriesCell(spec, series, p)
	if err != nil {
		return core.Stats{}, "", false, err
	}
	st, ok, err := c.Probe()
	return st, c.Address(), ok, err
}
