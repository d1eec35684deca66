package experiment

import (
	"context"
	"fmt"

	"frontsim/internal/asmdb"
	"frontsim/internal/core"
	"frontsim/internal/feedback"
	"frontsim/internal/ispy"
	"frontsim/internal/preload"
	"frontsim/internal/runner"
	"frontsim/internal/stats"
	"frontsim/internal/workload"
)

// extension is eachSpec for X1–X3, which always run exact: fn gets p with
// its Sampling cleared.
func extension[T any](specs []workload.Spec, p Params, fn func(ctx context.Context, pool *runner.Pool, spec workload.Spec, p Params) (T, error)) ([]T, error) {
	exact := p
	exact.Sampling = core.SamplingConfig{}
	return eachSpec(specs, p, func(ctx context.Context, pool *runner.Pool, _ int, spec workload.Spec) (T, error) {
		return fn(ctx, pool, spec, exact)
	})
}

// addRows fills t with the rows eachSpec computed.
func addRows(t *stats.Table, rows [][]string, err error) (*stats.Table, error) {
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t, nil
}

// planDerived produces spec's matrix cells fdp24 and series, then an
// FDP-24 config cell named name that mod derives from the matrix plan. It
// returns the derived cell's stats and its table row's leading columns:
// the workload and the series' and derived cell's speedups over fdp24.
func planDerived(ctx context.Context, pool *runner.Pool, spec workload.Spec, p Params, series, name string, mod func(*core.Config, *asmdb.Plan) error) ([]string, core.Stats, error) {
	var st [3]core.Stats
	var cells []*Cell
	for i, label := range []string{"fdp24", series} {
		c, err := SeriesCell(spec, label, p)
		if err != nil {
			return nil, core.Stats{}, err
		}
		c.out, cells = &st[i], append(cells, c)
	}
	in := &inputs{spec: spec}
	pes, err := runWaves(ctx, pool, in, cells, []planKey{p.matrixPlan(spec)}, p.plan(ctx, pool, in, nil))
	if err != nil {
		return nil, core.Stats{}, err
	}
	c := core.DefaultConfig()
	c.Name = name
	if err := mod(&c, pes[0].Plan); err != nil {
		return nil, core.Stats{}, err
	}
	cell, err := ConfigCell(spec, c, p)
	if err != nil {
		return nil, core.Stats{}, err
	}
	cell.out = &st[2]
	_, err = runWaves(ctx, pool, in, []*Cell{cell}, nil, nil)
	return []string{spec.Name, speedupCell(st[1], st[0]), speedupCell(st[2], st[0])}, st[2], err
}

// ExtensionPreload compares the §VI metadata-preloading prototype, compiled
// from the matrix plan, against plain FDP and inserted-instruction AsmDB
// (the matrix's fdp24 and asmdb+fdp24 cells) on the industry front-end.
func ExtensionPreload(specs []workload.Spec, p Params) (*stats.Table, error) {
	rows, err := extension(specs, p, func(ctx context.Context, pool *runner.Pool, spec workload.Spec, p Params) ([]string, error) {
		var store *preload.Store
		row, pre, err := planDerived(ctx, pool, spec, p, "asmdb+fdp24", "preload+fdp24", func(c *core.Config, plan *asmdb.Plan) (err error) {
			store, err = preload.Compile(preload.DefaultConfig(), plan)
			c.Frontend.Prefetcher = store
			return err
		})
		if err != nil {
			return nil, err
		}
		missPct := 0.0
		if ls := pre.Prefetcher; ls != nil && ls.Lookups > 0 {
			missPct = 100 * float64(ls.MetadataMisses) / float64(ls.Lookups)
		}
		return append(row, fmt.Sprintf("%.2f", missPct), fmt.Sprint(store.Entries())), nil
	})
	t := stats.NewTable(
		"Extension X1: metadata preloading on FDP-24 (IPC speedup over FDP-24)",
		"workload", "asmdb-inserted", "preload", "preload-mdmiss%", "store-entries")
	return addRows(t, rows, err)
}

// ExtensionISpy compares I-SPY's coalesced/conditional prefetching, derived
// from the matrix plan, against AsmDB on the industry front-end — both in
// trigger form (AsmDB's is the matrix's asmdb-ideal+fdp24 cell),
// isolating the targeting policies from insertion overhead.
func ExtensionISpy(specs []workload.Spec, p Params) (*stats.Table, error) {
	rows, err := extension(specs, p, func(ctx context.Context, pool *runner.Pool, spec workload.Spec, p Params) ([]string, error) {
		var iplan *ispy.Plan
		row, _, err := planDerived(ctx, pool, spec, p, "asmdb-ideal+fdp24", "ispy+fdp24", func(c *core.Config, plan *asmdb.Plan) (err error) {
			iplan, err = ispy.Transform(plan, ispy.DefaultOptions())
			if err == nil {
				c.Triggers = iplan.Triggers(nil)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		return append(row, fmt.Sprintf("%.1f", 100*iplan.CoalescingSavings()), fmt.Sprint(iplan.Conditionals)), nil
	})
	t := stats.NewTable(
		"Extension X3: I-SPY vs AsmDB triggers on FDP-24 (IPC speedup over FDP-24)",
		"workload", "asmdb", "ispy", "coalesce-savings%", "conditionals")
	return addRows(t, rows, err)
}

// ExtensionFeedback runs the §VI feedback-directed search per workload and
// reports the chosen operating point.
func ExtensionFeedback(specs []workload.Spec, p Params) (*stats.Table, error) {
	res, err := extension(specs, p, feedbackSearch)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Extension X2: feedback-directed software prefetching on FDP-24",
		"workload", "baseline-ipc", "best-ipc", "speedup", "chosen-fanout", "chosen-sites", "insertions")
	for i, r := range res {
		t.AddRow(specs[i].Name,
			fmt.Sprintf("%.3f", r.BaselineIPC),
			fmt.Sprintf("%.3f", r.Best.IPC),
			fmt.Sprintf("%.3f", r.Best.Speedup),
			fmt.Sprintf("%.2f", r.Best.Fanout),
			fmt.Sprint(r.Best.SitesPerTarget),
			fmt.Sprint(r.Best.Insertions))
	}
	return t, nil
}

// FeedbackSearch runs X2's search on one workload: every candidate of the
// grid around p.AsmDB measured on FDP-24, and the point the never-regress
// rule chooses against the matrix's fdp24 cell.
func FeedbackSearch(spec workload.Spec, p Params) (*feedback.Result, error) {
	res, err := extension([]workload.Spec{spec}, p, feedbackSearch)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// feedbackSearch measures each grid point as a rewritten-program cell in
// the matrix's plan family: profiled on the conservative baseline, built
// with the point's options. p.AsmDB's own point is the matrix's
// asmdb+fdp24 cell.
func feedbackSearch(ctx context.Context, pool *runner.Pool, spec workload.Spec, p Params) (*feedback.Result, error) {
	var base core.Stats
	fdp, err := SeriesCell(spec, "fdp24", p)
	if err != nil {
		return nil, err
	}
	fdp.out = &base
	points := feedback.DefaultOptions(p.AsmDB).Points()
	keys := make([]planKey, len(points))
	sts := make([]core.Stats, len(points))
	cells, profiled := []*Cell{fdp}, p.matrixPlan(spec).ProfileConfig
	for i, o := range points {
		keys[i] = p.planKey(spec, o, profiled)
		label := fmt.Sprintf("asmdb-f%.2f-s%d+fdp24", o.FanoutThreshold, o.MaxSitesPerTarget)
		c, err := newCell(spec, label, core.DefaultConfig(), progAsmdb, &keys[i], p)
		if err != nil {
			return nil, err
		}
		c.out, cells = &sts[i], append(cells, c)
	}
	in := &inputs{spec: spec}
	pes, err := runWaves(ctx, pool, in, cells, keys, p.plan(ctx, pool, in, nil))
	if err != nil {
		return nil, err
	}
	cands := make([]feedback.Candidate, len(points))
	for i, o := range points {
		cands[i] = feedback.Candidate{Fanout: o.FanoutThreshold, SitesPerTarget: o.MaxSitesPerTarget,
			Insertions: len(pes[i].Plan.Insertions), IPC: sts[i].IPC()}
	}
	return feedback.Select(base.IPC(), cands)
}
