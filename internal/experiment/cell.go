package experiment

import (
	"context"
	"fmt"
	"io"

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
	addr   string
	p      Params

	// out receives the cell's stats from load or run; progress, when set,
	// gets one line per produced cell.
	out      *core.Stats
	progress *runner.Progress
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
		opts := plan.AsmDB
		c.key.AsmDB, c.key.ProfileInstrs, c.key.ProfileConfig = &opts, plan.ProfileInstrs, plan.ProfileConfig
	}
	var err error
	c.addr, err = runner.Fingerprint(c.key)
	return c, err
}

// resolveSeries resolves the matrix series id of spec under p. plan is the
// identity of the matrix's AsmDB plan (Params.matrixPlan), which
// plan-derived series carry in their keys; base-program series ignore it.
func resolveSeries(spec workload.Spec, id seriesID, p Params, plan planKey) (*Cell, error) {
	row := seriesTable[id]
	machine, err := row.machine()
	if err != nil {
		return nil, err
	}
	if row.program == progBase {
		return newCell(spec, row.label, machine, progBase, nil, p)
	}
	return newCell(spec, row.label, machine, row.program, &plan, p)
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
func (c *Cell) Address() string { return c.addr }

// Probe looks the cell up in the run cache without executing anything.
func (c *Cell) Probe() (core.Stats, bool, error) {
	var st core.Stats
	ok, err := c.p.Cache.Get(c.key, &st)
	return st, ok, err
}

// load fills *c.out from the run cache and records the hit; false on a
// miss.
func (c *Cell) load() (bool, error) {
	st, ok, err := c.Probe()
	if ok {
		*c.out = st
		c.record(true)
	}
	return ok, err
}

// record reports a produced cell, cached or live, to the suite collector
// and the progress tracker.
func (c *Cell) record(cached bool) {
	if c.p.Obs != nil {
		c.p.Obs.Record(c.out.MetricSet(
			obs.Label{Key: "workload", Value: c.spec.Name},
			obs.Label{Key: "series", Value: c.series},
		))
	}
	c.progress.JobDone(c.spec.Name+"/"+c.series, cached)
}

// inputs is what a workload's cold cells simulate: the generated program
// and, for plan-derived variants, the rewritten program or the trigger
// table.
type inputs struct {
	prog, rewritten *program.Program
	triggers        map[isa.Addr][]isa.Addr
}

// applyPlan derives from plan the variant inputs cells need.
func (in *inputs) applyPlan(spec workload.Spec, plan *asmdb.Plan, cells []*Cell) error {
	for _, c := range cells {
		switch {
		case c.key.Program == progAsmdb && in.rewritten == nil:
			rw, _, err := asmdb.Apply(in.prog, plan)
			if err != nil {
				return fmt.Errorf("%s apply: %w", spec.Name, err)
			}
			in.rewritten = rw
		case c.key.Program == progTriggers && in.triggers == nil:
			in.triggers = asmdb.Triggers(in.prog, plan)
		}
	}
	return nil
}

// run is the single cold-cell runner: it attaches the ObsRun observer,
// simulates the cell over in under ctx, closes the observer as soon as
// the run ends, then caches and records the result. A failed or cancelled
// run is never cached.
func (c *Cell) run(ctx context.Context, in *inputs) error {
	cfg, prog := c.cfg, in.prog
	switch c.key.Program {
	case progAsmdb:
		prog = in.rewritten
	case progTriggers:
		cfg.Triggers = in.triggers
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

// runCells runs each cold cell as its own stealable job on pool, joined
// with ctx (runner.Group.WaitCtx) while every run polls the same ctx, so
// an abandoned join stops its simulations instead of stranding them on
// workers.
func runCells(ctx context.Context, pool *runner.Pool, in *inputs, cells []*Cell) error {
	if len(cells) == 0 {
		return nil
	}
	g := pool.NewGroup()
	for _, c := range cells {
		g.Go(func() error { return c.run(ctx, in) })
	}
	return g.WaitCtx(ctx)
}

// uncancelled is the context of the ctx-less entry points (RunMatrix,
// RunSuite and the ablation sweeps): their cells always run to completion.
func uncancelled() context.Context {
	return context.Background() //lint:allow ctx-less entry points run every cell to completion; single cells take the caller's ctx
}

// plan materializes the matrix's AsmDB plan under key
// (Params.matrixPlan): the cached entry, or a profile of in.prog seeded
// with the conservative baseline's IPC, built and cached. consIPC is
// called on a miss only.
func (p Params) plan(ctx context.Context, spec workload.Spec, key planKey, in *inputs, consIPC func() (float64, error)) (planEntry, error) {
	var pe planEntry
	if ok, err := p.Cache.Get(key, &pe); err != nil || ok {
		return pe, err
	}
	if in.prog == nil {
		prog, err := spec.Build()
		if err != nil {
			return pe, err
		}
		in.prog = prog
	}
	ipc, err := consIPC()
	if err != nil {
		return pe, err
	}
	if err := ctx.Err(); err != nil {
		return pe, fmt.Errorf("%s plan: %w", spec.Name, err)
	}
	graph, err := cfg.Profile(trace.NewLimit(program.NewExecutor(in.prog, key.ExecSeed), p.ProfileInstrs),
		cfg.Options{IPC: ipc})
	if err != nil {
		return pe, fmt.Errorf("%s profile: %w", spec.Name, err)
	}
	if pe.Plan, err = asmdb.Build(graph, p.AsmDB); err != nil {
		return pe, fmt.Errorf("%s plan: %w", spec.Name, err)
	}
	pe.StaticBloat = pe.Plan.StaticBloat(in.prog)
	return pe, p.Cache.Put(key, pe)
}

// Run produces the cell: from the run cache when warm, otherwise by
// simulating it on pool with ctx plumbed through the scheduler join and
// the cycle loop. A plan-derived cell first materializes the AsmDB plan
// through the same cache (and, to profile on a miss, the conservative
// baseline), so a cold cell leaves behind the entries the suite path
// would. On cancellation the returned error wraps ctx.Err(), and nothing
// cancelled is cached.
func (c *Cell) Run(ctx context.Context, pool *runner.Pool) (CellResult, error) {
	res := CellResult{Fingerprint: c.addr}
	cell := *c
	cell.out = &res.Stats
	if ok, err := cell.load(); err != nil {
		return CellResult{}, err
	} else if ok {
		res.Cached = true
		return res, nil
	}
	prog, err := c.spec.Build()
	if err != nil {
		return CellResult{}, err
	}
	in := &inputs{prog: prog}
	if c.key.Program != progBase {
		pe, err := c.p.plan(ctx, c.spec, c.p.matrixPlan(c.spec), in, func() (float64, error) {
			cons, err := resolveSeries(c.spec, serCons, c.p, planKey{})
			if err != nil {
				return 0, err
			}
			var st core.Stats
			cons.out = &st
			if ok, err := cons.load(); err != nil || ok {
				return st.IPC(), err
			}
			err = runCells(ctx, pool, in, []*Cell{cons})
			return st.IPC(), err
		})
		if err != nil {
			return CellResult{}, err
		}
		if err := in.applyPlan(c.spec, pe.Plan, []*Cell{&cell}); err != nil {
			return CellResult{}, err
		}
	}
	if err := runCells(ctx, pool, in, []*Cell{&cell}); err != nil {
		return CellResult{}, err
	}
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
	return st, c.addr, ok, err
}
