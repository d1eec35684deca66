package experiment

import (
	"context"
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
	sp := speedup(st, base)
	switch {
	case st.Sampling == nil || base.Sampling == nil:
		return fmt.Sprintf("%.3f", sp)
	case math.IsInf(st.Sampling.IPCCI95(), 1) || math.IsInf(base.Sampling.IPCCI95(), 1):
		return fmt.Sprintf("%.3f±unbounded", sp)
	}
	rs, rb := st.Sampling.CPI.RelCI95(), base.Sampling.CPI.RelCI95()
	return fmt.Sprintf("%.3f±%.3f", sp, sp*math.Sqrt(rs*rs+rb*rb))
}

// mpkiCell renders a table L1-I MPKI cell.
func mpkiCell(st core.Stats) string { return fmt.Sprintf("%.1f", st.L1IMPKI()) }

// sweep runs every machine on every spec and returns res[si][ci], the
// stats of spec si on machine ci. Each spec's cells run in the matrix
// waves (runWaves):
// warm cells are recorded immediately, a fully warm spec skips even
// building its program, and the cold remainder runs as one stealable job
// per cell. ConfigCell stamps p onto every machine, so one machine list
// may serve runs under different Params.
func sweep(specs []workload.Spec, machines []core.Config, p Params) ([][]core.Stats, error) {
	return eachSpec(specs, p, func(ctx context.Context, pool *runner.Pool, _ int, spec workload.Spec) ([]core.Stats, error) {
		out := make([]core.Stats, len(machines))
		cells := make([]*Cell, len(machines))
		for ci, m := range machines {
			c, err := ConfigCell(spec, m, p)
			if err != nil {
				return nil, err
			}
			c.out, cells[ci] = &out[ci], c
		}
		_, err := runWaves(ctx, pool, &inputs{spec: spec}, cells, nil, nil)
		return out, err
	})
}

// fdpVariants returns n copies of the industry-standard machine, the i-th
// changed by mod.
func fdpVariants(n int, mod func(i int, c *core.Config)) []core.Config {
	out := make([]core.Config, n)
	for i := range out {
		out[i] = core.DefaultConfig()
		mod(i, &out[i])
	}
	return out
}

// speedupTable renders a sweep's results, one row per spec, as each
// machine's speedup over machine 0 (column cols[ci] for machine ci), then
// a geomean row.
func speedupTable(title string, specs []workload.Spec, cols []string, res [][]core.Stats) *stats.Table {
	t := stats.NewTable(title, append([]string{"workload"}, cols...)...)
	geo := make([][]float64, len(cols))
	for si, spec := range specs {
		row := []string{spec.Name}
		for ci, st := range res[si] {
			geo[ci] = append(geo[ci], speedup(st, res[si][0]))
			row = append(row, speedupCell(st, res[si][0]))
		}
		t.AddRow(row...)
	}
	gm := []string{"geomean"}
	for _, g := range geo {
		gm = append(gm, fmt.Sprintf("%.3f", stats.Geomean(g)))
	}
	t.AddRow(gm...)
	return t
}

// ipcTable renders a sweep's results, one row per spec, as each machine's
// IPC and one more metric, rendered by cell: columns <label>-ipc and
// <label>-<metric> for machine ci, labelled labels[ci].
func ipcTable(title string, specs []workload.Spec, labels []string, metric string, cell func(core.Stats) string, res [][]core.Stats) *stats.Table {
	cols := []string{"workload"}
	for _, l := range labels {
		cols = append(cols, l+"-ipc", l+"-"+metric)
	}
	t := stats.NewTable(title, cols...)
	for si, spec := range specs {
		row := []string{spec.Name}
		for _, st := range res[si] {
			row = append(row, ipcCell(st), cell(st))
		}
		t.AddRow(row...)
	}
	return t
}

// AblationFTQDepth sweeps the FTQ depth between the paper's conservative
// and industry-standard endpoints and beyond, reporting IPC speedup over
// depth 2 for each workload.
func AblationFTQDepth(specs []workload.Spec, depths []int, p Params) (*stats.Table, error) {
	res, err := sweep(specs, fdpVariants(len(depths), func(i int, c *core.Config) {
		c.Name = fmt.Sprintf("ftq%d", depths[i])
		c.Frontend.FTQEntries = depths[i]
	}), p)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(depths))
	for i, d := range depths {
		cols[i] = fmt.Sprintf("ftq=%d", d)
	}
	return speedupTable("Ablation A1: IPC speedup vs FTQ depth (over depth 2)", specs, cols, res), nil
}

// AblationFanout sweeps AsmDB's fanout threshold on the industry-standard
// front-end: lower thresholds raise coverage (and bloat) at lower accuracy
// (paper §II-B2). Each workload profiles once, and only when a threshold
// cell misses the cache; the missing cells then run as jobs.
func AblationFanout(specs []workload.Spec, thresholds []float64, p Params) (*stats.Table, error) {
	rows, err := eachSpec(specs, p, func(ctx context.Context, pool *runner.Pool, _ int, spec workload.Spec) ([]string, error) {
		in := &inputs{spec: spec}
		base, err := ConfigCell(spec, core.DefaultConfig(), p)
		if err != nil {
			return nil, err
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
				return nil, err
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
			return nil, err
		}
		row := []string{spec.Name}
		for ti := range thresholds {
			row = append(row, speedupCell(sts[ti], baseSt), fmt.Sprintf("%.1f", 100*sts[ti].DynamicBloat()))
		}
		return row, nil
	})
	cols := []string{"workload"}
	for _, th := range thresholds {
		cols = append(cols, fmt.Sprintf("fan=%.2f", th), fmt.Sprintf("bloat@%.2f%%", th))
	}
	t := stats.NewTable("Ablation A2: AsmDB fanout threshold on FDP-24 (speedup over FDP-24, dynamic bloat)", cols...)
	return addRows(t, rows, err)
}

// AblationBTB compares the single-level BTB against the Ishii-style
// two-level organization (small zero-penalty L1 backed by the full table
// with a promotion bubble) on the industry front-end.
func AblationBTB(specs []workload.Spec, l1Entries []int, p Params) (*stats.Table, error) {
	res, err := sweep(specs, fdpVariants(len(l1Entries), func(i int, c *core.Config) {
		c.Frontend.BPU.L1BTBEntries = l1Entries[i]
	}), p)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(l1Entries))
	for i, e := range l1Entries {
		labels[i] = "single"
		if e > 0 {
			labels[i] = fmt.Sprintf("l1=%d", e)
		}
	}
	return ipcTable("Ablation A7: BTB organization on FDP-24", specs, labels, "bubbles/Ki", func(st core.Stats) string {
		return fmt.Sprintf("%.2f", float64(st.Frontend.BTBL2FillBubbles)/float64(st.Instructions)*1000)
	}, res), nil
}

// AblationWrongPath sweeps the wrong-path sequential-fetch depth on the
// industry front-end: 0 (the calibrated default, no wrong-path traffic)
// against shallow and deep not-taken-assumption streaming. Positive
// depths trade L1-I pollution and bandwidth against incidental next-line
// coverage.
func AblationWrongPath(specs []workload.Spec, depths []int, p Params) (*stats.Table, error) {
	res, err := sweep(specs, fdpVariants(len(depths), func(i int, c *core.Config) {
		c.Frontend.WrongPathDepth = depths[i]
	}), p)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(depths))
	for i, d := range depths {
		labels[i] = fmt.Sprintf("wp=%d", d)
	}
	return ipcTable("Ablation A6: wrong-path sequential fetch depth on FDP-24", specs, labels, "mpki", mpkiCell, res), nil
}

// AblationReplacement sweeps the L1-I replacement policy on the
// industry-standard front-end: instruction streams are loop- and
// sequence-heavy, so recency (LRU) versus re-reference prediction (SRRIP)
// versus random quantifies how much of the paper's L1-I miss profile is
// policy-sensitive.
func AblationReplacement(specs []workload.Spec, p Params) (*stats.Table, error) {
	policies := []cache.ReplKind{cache.ReplLRU, cache.ReplSRRIP, cache.ReplRandom}
	res, err := sweep(specs, fdpVariants(len(policies), func(i int, c *core.Config) {
		c.Memory.L1I.Repl = policies[i]
	}), p)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(policies))
	for i, pol := range policies {
		labels[i] = pol.String()
	}
	return ipcTable("Ablation A5: L1-I replacement policy on FDP-24", specs, labels, "mpki", mpkiCell, res), nil
}

// AblationPredictor compares the tournament (bimodal+gshare) direction
// predictor against TAGE-lite on the industry-standard front-end: better
// direction prediction lengthens run-ahead epochs and lifts the FDP
// baseline — quantifying how sensitive the paper's FDP numbers are to
// predictor quality.
func AblationPredictor(specs []workload.Spec, p Params) (*stats.Table, error) {
	res, err := sweep(specs, fdpVariants(2, func(i int, c *core.Config) {
		c.Frontend.BPU.UseTAGE = i == 1
	}), p)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Ablation A4: direction predictor on FDP-24 (IPC, accuracy)",
		"workload", "tournament-ipc", "tage-ipc", "tage/tournament", "tournament-acc", "tage-acc")
	var ratios []float64
	for si, spec := range specs {
		tour, tage := res[si][0], res[si][1]
		ratios = append(ratios, speedup(tage, tour))
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
	res, err := sweep(specs, fdpVariants(len(combos), func(i int, c *core.Config) {
		c.Frontend.EnablePFC = combos[i].pfc
		c.Frontend.BPU.FilterGHR = combos[i].ghr
	}), p)
	if err != nil {
		return nil, err
	}
	return speedupTable("Ablation A3: FDP refinements (IPC speedup over both disabled)",
		specs, []string{"neither", "pfc-only", "ghr-filter-only", "both"}, res), nil
}
