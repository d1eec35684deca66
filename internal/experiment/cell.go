package experiment

import (
	"context"
	"fmt"

	"frontsim/internal/asmdb"
	"frontsim/internal/cfg"
	"frontsim/internal/core"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// This file is the single-cell surface of the experiment harness: one
// (workload, series) simulation, addressable before it runs, executable
// with cooperative cancellation, and cached under exactly the same keys
// the suite path uses — so a cell served over HTTP (internal/serve) and
// the same cell produced by cmd/experiments are byte-identical, sharing
// one run-cache entry.

// SeriesLabels returns the ten per-workload series names, in suite
// order: cons, fdp24, eip+fdp24, asmdb+cons, asmdb-ideal+cons,
// asmdb+fdp24, asmdb-ideal+fdp24, mana+fdp24, shadow+fdp24, itlb+fdp24.
func SeriesLabels() []string {
	out := make([]string, numSeries)
	copy(out, seriesLabels[:])
	return out
}

// seriesByLabel resolves a series name to its internal id.
func seriesByLabel(label string) (seriesID, error) {
	for id := seriesID(0); id < numSeries; id++ {
		if seriesLabels[id] == label {
			return id, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown series %q (valid: %v)", label, SeriesLabels())
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

// CellAddress returns the content address of the (workload, series) cell
// under p without running anything — the coalescing and cache-lookup key
// of the serving layer.
func CellAddress(spec workload.Spec, series string, p Params) (string, error) {
	id, err := seriesByLabel(series)
	if err != nil {
		return "", err
	}
	keys, err := newMatrixKeys(spec, p)
	if err != nil {
		return "", err
	}
	return runner.Fingerprint(keys.series[id])
}

// RunCellCtx produces one (workload, series) cell: from the run cache
// when warm, otherwise by simulating on pool with ctx plumbed through the
// scheduler join (runner.Group.WaitCtx) and the cycle loop (core.RunCtx).
// Plan-derived series (asmdb*, asmdb-ideal*) first materialize their
// dependencies — the conservative profiling baseline and the AsmDB plan —
// through the same cache, so a cold cell performs exactly the work the
// suite path would and leaves the same entries behind.
//
// A cancelled cell is never written to the cache: cancellation aborts the
// simulation before a result exists, and dependency results are cached
// only when their own runs complete. On cancellation the returned error
// wraps ctx.Err().
func RunCellCtx(ctx context.Context, pool *runner.Pool, spec workload.Spec, series string, p Params) (CellResult, error) {
	if err := p.Validate(); err != nil {
		return CellResult{}, err
	}
	id, err := seriesByLabel(series)
	if err != nil {
		return CellResult{}, err
	}
	keys, err := newMatrixKeys(spec, p)
	if err != nil {
		return CellResult{}, err
	}
	addr, err := runner.Fingerprint(keys.series[id])
	if err != nil {
		return CellResult{}, err
	}
	res := CellResult{Fingerprint: addr}
	if ok, err := p.Cache.Get(keys.series[id], &res.Stats); err != nil {
		return CellResult{}, err
	} else if ok {
		res.Cached = true
		p.obsRecord(&res.Stats, spec.Name, series)
		return res, nil
	}

	prog, err := spec.Build()
	if err != nil {
		return CellResult{}, err
	}
	execSeed := spec.Seed ^ p.ExecSeedSalt

	// runOne simulates cfg over target on the pool, joining with ctx, and
	// caches the result under key.
	runOne := func(cfgc core.Config, target *program.Program, key simKey) (core.Stats, error) {
		return runCellSim(ctx, pool, p, spec, cfgc, target, key)
	}

	switch id {
	case serCons, serFDP, serEIP, serMANAFDP, serShadowFDP, serITLBFDP:
		var cfgc core.Config
		switch id {
		case serCons:
			cfgc = p.consConfig()
		case serFDP:
			cfgc = p.fdpConfig()
		case serMANAFDP:
			if cfgc, err = p.manaConfig(); err != nil {
				return CellResult{}, err
			}
		case serShadowFDP:
			cfgc = p.shadowConfig()
		case serITLBFDP:
			cfgc = p.itlbConfig()
		default:
			if cfgc, err = p.eipConfig(); err != nil {
				return CellResult{}, err
			}
		}
		st, err := runOne(cfgc, prog, keys.series[id])
		if err != nil {
			return CellResult{}, err
		}
		res.Stats = st
		p.obsRecord(&res.Stats, spec.Name, series)
		return res, nil
	}

	// Plan-derived series: materialize the conservative baseline (the
	// profiling IPC source) and the plan, cache-first.
	var cons core.Stats
	if ok, err := p.Cache.Get(keys.series[serCons], &cons); err != nil {
		return CellResult{}, err
	} else if !ok {
		if cons, err = runOne(p.consConfig(), prog, keys.series[serCons]); err != nil {
			return CellResult{}, err
		}
	}
	var pe planEntry
	if ok, err := p.Cache.Get(keys.plan, &pe); err != nil {
		return CellResult{}, err
	} else if !ok {
		if err := ctx.Err(); err != nil {
			return CellResult{}, fmt.Errorf("%s plan: %w", spec.Name, err)
		}
		graph, err := cfg.Profile(trace.NewLimit(program.NewExecutor(prog, execSeed), p.ProfileInstrs),
			cfg.Options{IPC: cons.IPC()})
		if err != nil {
			return CellResult{}, fmt.Errorf("%s profile: %w", spec.Name, err)
		}
		if pe.Plan, err = asmdb.Build(graph, p.AsmDB); err != nil {
			return CellResult{}, fmt.Errorf("%s plan: %w", spec.Name, err)
		}
		pe.StaticBloat = pe.Plan.StaticBloat(prog)
		if err := p.Cache.Put(keys.plan, pe); err != nil {
			return CellResult{}, err
		}
	}

	cfgc := p.consConfig()
	if id == serAsmdbFDP || id == serAsmdbFDPIdeal {
		cfgc = p.fdpConfig()
	}
	target := prog
	switch id {
	case serAsmdbCons, serAsmdbFDP:
		if target, _, err = asmdb.Apply(prog, pe.Plan); err != nil {
			return CellResult{}, fmt.Errorf("%s apply: %w", spec.Name, err)
		}
	case serAsmdbConsIdeal, serAsmdbFDPIdeal:
		cfgc.Triggers = asmdb.Triggers(prog, pe.Plan)
	}
	st, err := runOne(cfgc, target, keys.series[id])
	if err != nil {
		return CellResult{}, err
	}
	res.Stats = st
	p.obsRecord(&res.Stats, spec.Name, series)
	return res, nil
}

// runCellSim executes one configuration against target on the pool,
// joining with ctx (runner.Group.WaitCtx) while the task itself polls the
// same ctx (core.RunSourceCtx) — so an abandoned join stops the
// simulation instead of stranding it on a worker — and caches the result
// under key only when the run completes.
func runCellSim(ctx context.Context, pool *runner.Pool, p Params, spec workload.Spec, cfgc core.Config, target *program.Program, key simKey) (core.Stats, error) {
	var st core.Stats
	g := pool.NewGroup()
	g.Go(func() error {
		s, err := core.RunSourceCtx(ctx, cfgc, program.NewExecutor(target, key.ExecSeed))
		if err != nil {
			return err
		}
		st = s
		return p.Cache.Put(key, s)
	})
	if err := g.WaitCtx(ctx); err != nil {
		return core.Stats{}, fmt.Errorf("%s %s: %w", spec.Name, cfgc.Name, err)
	}
	return st, nil
}

// ProbeCell looks a (workload, series) cell up in the cache without
// executing anything: the serving layer's hot path. It returns the cell's
// content address in either case.
func ProbeCell(spec workload.Spec, series string, p Params) (core.Stats, string, bool, error) {
	id, err := seriesByLabel(series)
	if err != nil {
		return core.Stats{}, "", false, err
	}
	keys, err := newMatrixKeys(spec, p)
	if err != nil {
		return core.Stats{}, "", false, err
	}
	addr, err := runner.Fingerprint(keys.series[id])
	if err != nil {
		return core.Stats{}, "", false, err
	}
	var st core.Stats
	ok, err := p.Cache.Get(keys.series[id], &st)
	return st, addr, ok, err
}

// ConfigCellAddress returns the content address of a run of c against
// spec's unmodified program under p — the identity ablation sweeps use
// for the same configuration.
func ConfigCellAddress(spec workload.Spec, c core.Config, p Params) (string, error) {
	return runner.Fingerprint(baseSimKey(spec, p, c))
}

// ProbeConfigCell is ProbeCell for an arbitrary configuration against the
// workload's unmodified program.
func ProbeConfigCell(spec workload.Spec, c core.Config, p Params) (core.Stats, string, bool, error) {
	key := baseSimKey(spec, p, c)
	addr, err := runner.Fingerprint(key)
	if err != nil {
		return core.Stats{}, "", false, err
	}
	var st core.Stats
	ok, err := p.Cache.Get(key, &st)
	return st, addr, ok, err
}

// RunConfigCellCtx runs an arbitrary whole-machine configuration against
// the workload's unmodified program — the serving layer's config-override
// and ablation cells — cached under exactly the key an ablation sweep of
// the same configuration would use, so served and swept cells share
// entries.
func RunConfigCellCtx(ctx context.Context, pool *runner.Pool, spec workload.Spec, c core.Config, p Params) (CellResult, error) {
	if err := p.Validate(); err != nil {
		return CellResult{}, err
	}
	if err := c.Validate(); err != nil {
		return CellResult{}, err
	}
	key := baseSimKey(spec, p, c)
	addr, err := runner.Fingerprint(key)
	if err != nil {
		return CellResult{}, err
	}
	res := CellResult{Fingerprint: addr}
	if ok, err := p.Cache.Get(key, &res.Stats); err != nil {
		return CellResult{}, err
	} else if ok {
		res.Cached = true
		p.obsRecord(&res.Stats, spec.Name, c.Name)
		return res, nil
	}
	prog, err := spec.Build()
	if err != nil {
		return CellResult{}, err
	}
	st, err := runCellSim(ctx, pool, p, spec, c, prog, key)
	if err != nil {
		return CellResult{}, err
	}
	res.Stats = st
	p.obsRecord(&res.Stats, spec.Name, c.Name)
	return res, nil
}
