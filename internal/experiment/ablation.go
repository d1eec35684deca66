package experiment

import (
	"fmt"
	"math"

	"frontsim/internal/asmdb"
	"frontsim/internal/cache"
	"frontsim/internal/cfg"
	"frontsim/internal/core"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/stats"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// baseSimKey is the cache identity of a run of cfg against the workload's
// unmodified program.
func baseSimKey(spec workload.Spec, p Params, c core.Config) simKey {
	return simKey{Schema: cacheSchema, Kind: "sim", Workload: spec,
		Program: progBase, Config: c.Fingerprint(), ExecSeed: spec.Seed ^ p.ExecSeedSalt}
}

// runCachedSim executes one configuration against prog, consulting and
// filling p.Cache under key.
func runCachedSim(p Params, key simKey, c core.Config, prog *program.Program) (core.Stats, error) {
	var st core.Stats
	if ok, err := p.Cache.Get(key, &st); err != nil {
		return st, err
	} else if ok {
		p.obsRecord(&st, key.Workload.Name, c.Name)
		return st, nil
	}
	return runLiveSim(p, key, c, prog, c.Name)
}

// runLiveSim simulates a cache-missed configuration through runColdCell,
// the path every matrix and sweep cell takes, and caches it under key;
// series keys the obs hooks.
func runLiveSim(p Params, key simKey, c core.Config, prog *program.Program, series string) (core.Stats, error) {
	var st core.Stats
	err := runColdCell(p, prog, key.ExecSeed, coldCell{
		cfg: c,
		wl:  key.Workload.Name, series: series,
		label: key.Workload.Name + " " + series,
		commit: func(s core.Stats) error {
			st = s
			if err := p.Cache.Put(key, s); err != nil {
				return err
			}
			p.obsRecord(&s, key.Workload.Name, series)
			return nil
		},
	})
	return st, err
}

// ipcCell renders a table IPC cell. Exact runs print the plain value;
// sampled runs append the 95% confidence half-width on the IPC estimate,
// so every ablation table carries its uncertainty when sampling is on.
func ipcCell(st core.Stats) string {
	if sp := st.Sampling; sp != nil {
		return fmt.Sprintf("%.3f±%.3f", st.IPC(), sp.IPCCI95())
	}
	return fmt.Sprintf("%.3f", st.IPC())
}

// speedupCell renders st's IPC normalized to base. For sampled runs the
// two estimates' relative confidence half-widths combine in quadrature
// (first-order error propagation through the ratio; the CPI and IPC
// relative widths agree to the same order), so speedup columns carry a ±
// too.
func speedupCell(st, base core.Stats) string {
	sp := 0.0
	if base.Cycles > 0 && base.Instructions > 0 {
		sp = st.IPC() / base.IPC()
	}
	if st.Sampling == nil || base.Sampling == nil {
		return fmt.Sprintf("%.3f", sp)
	}
	rs, rb := st.Sampling.CPI.RelCI95(), base.Sampling.CPI.RelCI95()
	return fmt.Sprintf("%.3f±%.3f", sp, sp*math.Sqrt(rs*rs+rb*rb))
}

// sweep runs one configuration grid — cells[si][ci] for spec si and
// configuration ci — through the runner pool. Each spec's cells are
// probed against the cache first (warm cells are recorded immediately; a
// fully warm spec skips even building its program); the cold remainder
// runs as one stealable job per cell.
// mkCfg must be pure: it is called once per cell on an arbitrary worker.
func sweep(specs []workload.Spec, nCfg int, p Params, mkCfg func(spec workload.Spec, ci int) core.Config) ([][]core.Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pool := runner.NewPool(p.Parallelism)
	defer pool.Close()
	out := make([][]core.Stats, len(specs))
	g := pool.NewGroup()
	for si, spec := range specs {
		si, spec := si, spec
		out[si] = make([]core.Stats, nCfg)
		g.Go(func() error {
			var cells []coldCell
			for ci := 0; ci < nCfg; ci++ {
				ci := ci
				c := mkCfg(spec, ci)
				c.Audit = p.Audit
				c.FastForward = p.FastForward
				c.Sampling = p.Sampling
				key := baseSimKey(spec, p, c)
				var st core.Stats
				if ok, err := p.Cache.Get(key, &st); err != nil {
					return err
				} else if ok {
					p.obsRecord(&st, spec.Name, c.Name)
					out[si][ci] = st
					continue
				}
				cells = append(cells, coldCell{
					cfg: c,
					wl:  spec.Name, series: c.Name,
					label: fmt.Sprintf("%s cell %d", spec.Name, ci),
					commit: func(st core.Stats) error {
						out[si][ci] = st
						if err := p.Cache.Put(key, st); err != nil {
							return err
						}
						p.obsRecord(&st, spec.Name, c.Name)
						return nil
					},
				})
			}
			if len(cells) == 0 {
				return nil
			}
			prog, err := spec.Build()
			if err != nil {
				return err
			}
			execSeed := spec.Seed ^ p.ExecSeedSalt
			sub := pool.NewGroup()
			dispatchCells(sub, p, prog, execSeed, cells)
			return sub.Wait()
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// AblationFTQDepth sweeps the FTQ depth between the paper's conservative
// and industry-standard endpoints and beyond, reporting IPC speedup over
// depth 2 for each workload.
func AblationFTQDepth(specs []workload.Spec, depths []int, p Params) (*stats.Table, error) {
	res, err := sweep(specs, len(depths), p, func(spec workload.Spec, ci int) core.Config {
		c := core.DefaultConfig()
		c.Name = fmt.Sprintf("ftq%d", depths[ci])
		c.Frontend.FTQEntries = depths[ci]
		c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
		return c
	})
	if err != nil {
		return nil, err
	}
	cols := []string{"workload"}
	for _, d := range depths {
		cols = append(cols, fmt.Sprintf("ftq=%d", d))
	}
	t := stats.NewTable("Ablation A1: IPC speedup vs FTQ depth (over depth 2)", cols...)
	geo := make([][]float64, len(depths))
	for si, spec := range specs {
		base := res[si][0].IPC()
		row := []string{spec.Name}
		for di := range depths {
			sp := 0.0
			if base > 0 {
				sp = res[si][di].IPC() / base
			}
			geo[di] = append(geo[di], sp)
			row = append(row, speedupCell(res[si][di], res[si][0]))
		}
		t.AddRow(row...)
	}
	gm := []string{"geomean"}
	for di := range depths {
		gm = append(gm, fmt.Sprintf("%.3f", stats.Geomean(geo[di])))
	}
	t.AddRow(gm...)
	return t, nil
}

// AblationFanout sweeps AsmDB's fanout threshold on the industry-standard
// front-end: lower thresholds raise coverage (and bloat) at lower accuracy
// (paper §II-B2). Each workload profiles once; the per-threshold plan,
// rewrite, and run then fan out as jobs.
func AblationFanout(specs []workload.Spec, thresholds []float64, p Params) (*stats.Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	type cell struct {
		speedup string // rendered by speedupCell (carries ± when sampled)
		bloat   float64
	}
	res := make([][]cell, len(specs))
	pool := runner.NewPool(p.Parallelism)
	defer pool.Close()
	g := pool.NewGroup()
	for si, spec := range specs {
		si, spec := si, spec
		res[si] = make([]cell, len(thresholds))
		g.Go(func() error {
			prog, err := spec.Build()
			if err != nil {
				return err
			}
			mk := func() core.Config {
				c := core.DefaultConfig()
				c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
				c.Audit = p.Audit
				c.FastForward = p.FastForward
				c.Sampling = p.Sampling
				return c
			}
			base, err := runCachedSim(p, baseSimKey(spec, p, mk()), mk(), prog)
			if err != nil {
				return err
			}
			seed := spec.Seed ^ p.ExecSeedSalt
			graph, err := cfg.Profile(trace.NewLimit(program.NewExecutor(prog, seed), p.ProfileInstrs), cfg.Options{IPC: base.IPC()})
			if err != nil {
				return err
			}
			fdpFP := mk().Fingerprint()
			sub := pool.NewGroup()
			for ti, th := range thresholds {
				ti, th := ti, th
				sub.Go(func() error {
					opts := p.AsmDB
					opts.FanoutThreshold = th
					key := baseSimKey(spec, p, mk())
					key.Program = progAsmdb
					key.AsmDB = &opts
					key.ProfileInstrs = p.ProfileInstrs
					key.ProfileConfig = fdpFP
					series := fmt.Sprintf("fanout%.2f", th)
					var st core.Stats
					if ok, err := p.Cache.Get(key, &st); err != nil {
						return err
					} else if ok {
						p.obsRecord(&st, spec.Name, series)
					} else {
						plan, err := asmdb.Build(graph, opts)
						if err != nil {
							return err
						}
						rw, _, err := asmdb.Apply(prog, plan)
						if err != nil {
							return err
						}
						if st, err = runLiveSim(p, key, mk(), rw, series); err != nil {
							return err
						}
					}
					res[si][ti] = cell{speedup: speedupCell(st, base), bloat: 100 * st.DynamicBloat()}
					return nil
				})
			}
			return sub.Wait()
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	cols := []string{"workload"}
	for _, th := range thresholds {
		cols = append(cols, fmt.Sprintf("fan=%.2f", th), fmt.Sprintf("bloat@%.2f%%", th))
	}
	t := stats.NewTable("Ablation A2: AsmDB fanout threshold on FDP-24 (speedup over FDP-24, dynamic bloat)", cols...)
	for si, spec := range specs {
		row := []string{spec.Name}
		for ti := range thresholds {
			row = append(row, res[si][ti].speedup, fmt.Sprintf("%.1f", res[si][ti].bloat))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationBTB compares the single-level BTB against the Ishii-style
// two-level organization (small zero-penalty L1 backed by the full table
// with a promotion bubble) on the industry front-end.
func AblationBTB(specs []workload.Spec, l1Entries []int, p Params) (*stats.Table, error) {
	res, err := sweep(specs, len(l1Entries), p, func(spec workload.Spec, ci int) core.Config {
		c := core.DefaultConfig()
		c.Frontend.BPU.L1BTBEntries = l1Entries[ci]
		c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
		return c
	})
	if err != nil {
		return nil, err
	}
	cols := []string{"workload"}
	for _, e := range l1Entries {
		label := "single"
		if e > 0 {
			label = fmt.Sprintf("l1=%d", e)
		}
		cols = append(cols, label+"-ipc", label+"-bubbles/Ki")
	}
	t := stats.NewTable("Ablation A7: BTB organization on FDP-24", cols...)
	for si, spec := range specs {
		row := []string{spec.Name}
		for ci := range l1Entries {
			st := res[si][ci]
			perKi := float64(st.Frontend.BTBL2FillBubbles) / float64(st.Instructions) * 1000
			row = append(row, ipcCell(st), fmt.Sprintf("%.2f", perKi))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationWrongPath sweeps the wrong-path sequential-fetch depth on the
// industry front-end: 0 (the calibrated default, no wrong-path traffic)
// against shallow and deep not-taken-assumption streaming. Positive
// depths trade L1-I pollution and bandwidth against incidental next-line
// coverage.
func AblationWrongPath(specs []workload.Spec, depths []int, p Params) (*stats.Table, error) {
	res, err := sweep(specs, len(depths), p, func(spec workload.Spec, ci int) core.Config {
		c := core.DefaultConfig()
		c.Frontend.WrongPathDepth = depths[ci]
		c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
		return c
	})
	if err != nil {
		return nil, err
	}
	cols := []string{"workload"}
	for _, d := range depths {
		cols = append(cols, fmt.Sprintf("wp=%d-ipc", d), fmt.Sprintf("wp=%d-mpki", d))
	}
	t := stats.NewTable("Ablation A6: wrong-path sequential fetch depth on FDP-24", cols...)
	for si, spec := range specs {
		row := []string{spec.Name}
		for ci := range depths {
			st := res[si][ci]
			row = append(row, ipcCell(st), fmt.Sprintf("%.1f", st.L1IMPKI()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationReplacement sweeps the L1-I replacement policy on the
// industry-standard front-end: instruction streams are loop- and
// sequence-heavy, so recency (LRU) versus re-reference prediction (SRRIP)
// versus random quantifies how much of the paper's L1-I miss profile is
// policy-sensitive.
func AblationReplacement(specs []workload.Spec, p Params) (*stats.Table, error) {
	policies := []cache.ReplKind{cache.ReplLRU, cache.ReplSRRIP, cache.ReplRandom}
	res, err := sweep(specs, len(policies), p, func(spec workload.Spec, ci int) core.Config {
		c := core.DefaultConfig()
		c.Memory.L1I.Repl = policies[ci]
		c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
		return c
	})
	if err != nil {
		return nil, err
	}
	cols := []string{"workload"}
	for _, pol := range policies {
		cols = append(cols, pol.String()+"-ipc", pol.String()+"-mpki")
	}
	t := stats.NewTable("Ablation A5: L1-I replacement policy on FDP-24", cols...)
	for si, spec := range specs {
		row := []string{spec.Name}
		for ci := range policies {
			st := res[si][ci]
			row = append(row, ipcCell(st), fmt.Sprintf("%.1f", st.L1IMPKI()))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationPredictor compares the tournament (bimodal+gshare) direction
// predictor against TAGE-lite on the industry-standard front-end: better
// direction prediction lengthens run-ahead epochs and lifts the FDP
// baseline — quantifying how sensitive the paper's FDP numbers are to
// predictor quality.
func AblationPredictor(specs []workload.Spec, p Params) (*stats.Table, error) {
	res, err := sweep(specs, 2, p, func(spec workload.Spec, ci int) core.Config {
		c := core.DefaultConfig()
		c.Frontend.BPU.UseTAGE = ci == 1
		c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
		return c
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Ablation A4: direction predictor on FDP-24 (IPC, accuracy)",
		"workload", "tournament-ipc", "tage-ipc", "tage/tournament", "tournament-acc", "tage-acc")
	var ratios []float64
	for si, spec := range specs {
		tour, tage := res[si][0], res[si][1]
		ratio := 0.0
		if tour.IPC() > 0 {
			ratio = tage.IPC() / tour.IPC()
		}
		ratios = append(ratios, ratio)
		t.AddRow(spec.Name,
			ipcCell(tour),
			ipcCell(tage),
			speedupCell(tage, tour),
			fmt.Sprintf("%.4f", tour.BPU.CondAccuracy()),
			fmt.Sprintf("%.4f", tage.BPU.CondAccuracy()))
	}
	t.AddRow("geomean", "", "", fmt.Sprintf("%.3f", stats.Geomean(ratios)), "", "")
	return t, nil
}

// AblationFrontend toggles the two FDP refinements the paper's §II-A
// baseline includes — post-fetch correction and GHR filtering — on the
// industry-standard front-end.
func AblationFrontend(specs []workload.Spec, p Params) (*stats.Table, error) {
	combos := []struct {
		pfc, ghr bool
	}{{false, false}, {true, false}, {false, true}, {true, true}}
	res, err := sweep(specs, len(combos), p, func(spec workload.Spec, ci int) core.Config {
		c := core.DefaultConfig()
		c.Frontend.EnablePFC = combos[ci].pfc
		c.Frontend.BPU.FilterGHR = combos[ci].ghr
		c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
		return c
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Ablation A3: FDP refinements (IPC speedup over both disabled)",
		"workload", "neither", "pfc-only", "ghr-filter-only", "both")
	geo := make([][]float64, len(combos))
	for si, spec := range specs {
		base := res[si][0].IPC()
		row := []string{spec.Name}
		for ci := range combos {
			sp := 0.0
			if base > 0 {
				sp = res[si][ci].IPC() / base
			}
			geo[ci] = append(geo[ci], sp)
			row = append(row, speedupCell(res[si][ci], res[si][0]))
		}
		t.AddRow(row...)
	}
	gm := []string{"geomean"}
	for ci := range combos {
		gm = append(gm, fmt.Sprintf("%.3f", stats.Geomean(geo[ci])))
	}
	t.AddRow(gm...)
	return t, nil
}
