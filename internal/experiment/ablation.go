package experiment

import (
	"fmt"
	"math"

	"frontsim/internal/asmdb"
	"frontsim/internal/cache"
	"frontsim/internal/core"
	"frontsim/internal/runner"
	"frontsim/internal/stats"
	"frontsim/internal/workload"
)

// ipcCell renders a table IPC cell. Exact runs print the plain value;
// sampled runs append the 95% confidence half-width on the IPC estimate,
// so every ablation table carries its uncertainty when sampling is on. A
// CPI interval that reaches zero leaves the IPC interval unbounded, which
// the cell says in words.
func ipcCell(st core.Stats) string {
	sp := st.Sampling
	switch {
	case sp == nil:
		return fmt.Sprintf("%.3f", st.IPC())
	case math.IsInf(sp.IPCCI95(), 1):
		return fmt.Sprintf("%.3f±unbounded", st.IPC())
	}
	return fmt.Sprintf("%.3f±%.3f", st.IPC(), sp.IPCCI95())
}

// speedupCell renders st's IPC normalized to base. For sampled runs the
// two estimates' relative confidence half-widths combine in quadrature
// (first-order error propagation through the ratio; the CPI and IPC
// relative widths agree to the same order), so speedup columns carry a ±
// too. That holds only while both widths are below 1, where both IPC
// intervals are bounded; when either is not, neither is the speedup's.
func speedupCell(st, base core.Stats) string {
	sp := 0.0
	if base.Cycles > 0 && base.Instructions > 0 {
		sp = st.IPC() / base.IPC()
	}
	switch {
	case st.Sampling == nil || base.Sampling == nil:
		return fmt.Sprintf("%.3f", sp)
	case math.IsInf(st.Sampling.IPCCI95(), 1) || math.IsInf(base.Sampling.IPCCI95(), 1):
		return fmt.Sprintf("%.3f±unbounded", sp)
	}
	rs, rb := st.Sampling.CPI.RelCI95(), base.Sampling.CPI.RelCI95()
	return fmt.Sprintf("%.3f±%.3f", sp, sp*math.Sqrt(rs*rs+rb*rb))
}

// sweep runs one configuration grid — cells[si][ci] for spec si and
// machine configuration ci — through the runner pool, each spec's cells in
// the matrix waves (runWaves): warm cells are recorded immediately, a
// fully warm spec skips even building its program, and the cold remainder
// runs as one stealable job per cell.
// mkCfg must be pure: it is called once per cell on an arbitrary worker.
func sweep(specs []workload.Spec, nCfg int, p Params, mkCfg func(spec workload.Spec, ci int) core.Config) ([][]core.Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ctx := uncancelled()
	pool := runner.NewPool(p.Parallelism)
	defer pool.Close()
	out := make([][]core.Stats, len(specs))
	g := pool.NewGroup()
	for si, spec := range specs {
		out[si] = make([]core.Stats, nCfg)
		g.Go(func() error {
			cells := make([]*Cell, nCfg)
			for ci := range cells {
				c, err := ConfigCell(spec, mkCfg(spec, ci), p)
				if err != nil {
					return err
				}
				c.out, cells[ci] = &out[si][ci], c
			}
			_, err := runWaves(ctx, pool, &inputs{spec: spec}, cells, nil, nil)
			return err
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
// (paper §II-B2). Each workload profiles once, and only when a threshold
// cell misses the cache; the missing cells then run as jobs.
func AblationFanout(specs []workload.Spec, thresholds []float64, p Params) (*stats.Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	type point struct {
		speedup string // rendered by speedupCell (carries ± when sampled)
		bloat   float64
	}
	res := make([][]point, len(specs))
	ctx := uncancelled()
	pool := runner.NewPool(p.Parallelism)
	defer pool.Close()
	g := pool.NewGroup()
	for si, spec := range specs {
		res[si] = make([]point, len(thresholds))
		g.Go(func() error {
			in := &inputs{spec: spec}
			base, err := ConfigCell(spec, core.DefaultConfig(), p)
			if err != nil {
				return err
			}
			var baseSt core.Stats
			base.out = &baseSt
			cells := make([]*Cell, len(thresholds))
			sts := make([]core.Stats, len(thresholds))
			for ti, th := range thresholds {
				opts := p.AsmDB
				opts.FanoutThreshold = th
				src := p.planKey(spec, opts, base.key.Config)
				if cells[ti], err = newCell(spec, fmt.Sprintf("fanout%.2f", th), core.DefaultConfig(), progAsmdb, &src, p); err != nil {
					return err
				}
				cells[ti].out = &sts[ti]
			}
			// A threshold's plan is built per pass from a profile calibrated
			// on the base cell, and never cached: only its cell is.
			_, err = runWaves(ctx, pool, in, append([]*Cell{base}, cells...), nil, func(key planKey) (planEntry, error) {
				graph, err := in.profile(ctx, key.ExecSeed, key.ProfileInstrs, func() (float64, error) { return baseSt.IPC(), nil })
				if err != nil {
					return planEntry{}, err
				}
				plan, err := asmdb.Build(graph, key.AsmDB)
				return planEntry{Plan: plan}, err
			})
			if err != nil {
				return err
			}
			for ti := range thresholds {
				res[si][ti] = point{speedup: speedupCell(sts[ti], baseSt), bloat: 100 * sts[ti].DynamicBloat()}
			}
			return nil
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
