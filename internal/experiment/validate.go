package experiment

import (
	"fmt"
	"math"

	"frontsim/internal/core"
	"frontsim/internal/stats"
	"frontsim/internal/workload"
)

// SamplingValidation runs every prefetch mechanism over specs twice — once
// exact and once with p.Sampling — and reports how well the sampled
// estimator tracks ground truth: the signed and absolute IPC error
// distribution per mechanism, and the fraction of cells whose 95%
// confidence interval contains the exact IPC (the estimator's headline
// contract: EXPERIMENTS.md requires >= 90% coverage). p.Sampling must be
// enabled; the exact leg reuses p with the sampling block cleared, so both
// legs share budgets, cache, and execution strategy.
//
// The summary table is returned along with the overall CI coverage
// fraction across all cells.
func SamplingValidation(specs []workload.Spec, p Params) (*stats.Table, float64, error) {
	if !p.Sampling.Enabled() {
		return nil, 0, fmt.Errorf("experiment: SamplingValidation needs p.Sampling enabled")
	}
	mechs := Mechanisms()
	machines := mechanismMachines(mechs, p)
	exact := p
	exact.Sampling = core.SamplingConfig{}
	ground, err := sweep(specs, machines, exact)
	if err != nil {
		return nil, 0, err
	}
	sampled, err := sweep(specs, machines, p)
	if err != nil {
		return nil, 0, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Sampling validation: |IPC error| and 95%%-CI coverage (interval=%d detail=%d warm=%d)",
			p.Sampling.IntervalInstrs, p.Sampling.DetailInstrs, p.Sampling.WarmInstrs),
		"mechanism", "cells", "mean-err%", "mean|err|%", "p50|err|%", "p90|err|%", "max|err|%", "ci-cover%")
	var allAbs []float64
	covered, total := 0, 0
	for ci, m := range mechs {
		var signed, abs []float64
		cov := 0
		for si := range specs {
			g, s := ground[si][ci], sampled[si][ci]
			if s.Sampling == nil {
				return nil, 0, fmt.Errorf("cell %s/%s: sampled run lacks sampling stats", specs[si].Name, m.Label)
			}
			e := 100 * (s.Sampling.IPCMean() - g.IPC()) / g.IPC()
			signed = append(signed, e)
			abs = append(abs, math.Abs(e))
			if s.Sampling.ContainsIPC(g.IPC()) {
				cov++
			}
		}
		covered += cov
		total += len(specs)
		allAbs = append(allAbs, abs...)
		t.AddRow(m.Label,
			fmt.Sprint(len(specs)),
			fmt.Sprintf("%+.2f", stats.Mean(signed)),
			fmt.Sprintf("%.2f", stats.Mean(abs)),
			fmt.Sprintf("%.2f", stats.Percentile(abs, 50)),
			fmt.Sprintf("%.2f", stats.Percentile(abs, 90)),
			fmt.Sprintf("%.2f", stats.Max(abs)),
			fmt.Sprintf("%.1f", 100*float64(cov)/float64(len(specs))))
	}
	coverage := float64(covered) / float64(total)
	t.AddRow("overall",
		fmt.Sprint(total),
		"",
		fmt.Sprintf("%.2f", stats.Mean(allAbs)),
		fmt.Sprintf("%.2f", stats.Percentile(allAbs, 50)),
		fmt.Sprintf("%.2f", stats.Percentile(allAbs, 90)),
		fmt.Sprintf("%.2f", stats.Max(allAbs)),
		fmt.Sprintf("%.1f", 100*coverage))
	return t, coverage, nil
}
