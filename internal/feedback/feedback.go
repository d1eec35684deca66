// Package feedback prototypes the second of the paper's §VI proposals:
// feedback-directed software prefetching. The binary is periodically
// re-tuned — the number of inserted prefetches raised or lowered depending
// on their measured performance impact — without re-profiling, in the
// spirit of AutoFDO-style feedback loops.
//
// The prototype is a guided search over AsmDB's aggressiveness knobs
// (fanout threshold and sites-per-target): each grid point's plan is
// applied and measured (internal/experiment runs the points as cells),
// and the best-measured binary wins. A candidate that does not beat the
// no-prefetch baseline is discarded, which is exactly the adaptation the
// paper argues an aggressive front-end needs.
package feedback

import (
	"fmt"

	"frontsim/internal/asmdb"
)

// Candidate is one evaluated tuning point.
type Candidate struct {
	// Fanout and SitesPerTarget are the knob settings.
	Fanout         float64
	SitesPerTarget int
	// Insertions is the plan size at this point.
	Insertions int
	// IPC is the measured performance of the rewritten binary.
	IPC float64
	// Speedup is IPC over the no-prefetch baseline.
	Speedup float64
}

// Result reports a feedback-tuning session.
type Result struct {
	// BaselineIPC is the no-prefetch IPC on the evaluation config.
	BaselineIPC float64
	// Candidates lists every evaluated point in grid order.
	Candidates []Candidate
	// Best is the winning candidate; Best.Insertions == 0 means the
	// feedback loop chose to disable software prefetching entirely.
	Best Candidate
}

// Options is the search grid.
type Options struct {
	// Base is the starting AsmDB configuration.
	Base asmdb.Options
	// Fanouts are the thresholds to explore (descending aggressiveness
	// order is conventional but not required).
	Fanouts []float64
	// SiteCounts are the per-target insertion budgets to explore.
	SiteCounts []int
}

// DefaultOptions explores a small grid around base.
func DefaultOptions(base asmdb.Options) Options {
	return Options{
		Base:       base,
		Fanouts:    []float64{0.2, 0.3, 0.5},
		SiteCounts: []int{2, 4},
	}
}

// Points returns the AsmDB options of every grid point, fanout-major:
// the order Select breaks ties in.
func (o Options) Points() []asmdb.Options {
	var out []asmdb.Options
	for _, fanout := range o.Fanouts {
		for _, sites := range o.SiteCounts {
			p := o.Base
			p.FanoutThreshold, p.MaxSitesPerTarget = fanout, sites
			out = append(out, p)
		}
	}
	return out
}

// Select applies the never-regress rule to the measured candidates, in
// grid order: the first candidate with the highest IPC wins, and none
// wins unless it beats the baseline, whose floor keeps software
// prefetching from ever being a regression. An empty grid is rejected.
func Select(baselineIPC float64, cands []Candidate) (*Result, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("feedback: empty search grid")
	}
	res := &Result{BaselineIPC: baselineIPC, Best: Candidate{IPC: baselineIPC, Speedup: 1}}
	for _, c := range cands {
		if baselineIPC > 0 {
			c.Speedup = c.IPC / baselineIPC
		}
		res.Candidates = append(res.Candidates, c)
		if c.IPC > res.Best.IPC {
			res.Best = c
		}
	}
	return res, nil
}
