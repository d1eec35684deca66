package experiment

import (
	"fmt"

	"frontsim/internal/core"
	"frontsim/internal/stats"
	"frontsim/internal/workload"
)

// Mechanism is one row of the cross-prefetcher characterization matrix: a
// named front-end configuration whose prefetch mechanism (or absence of
// one) the conformance harness and the mechanism ablation both iterate.
// Config must be pure — it is called once per cell on arbitrary workers —
// and must return a fully distinct core.Config per call (prefetcher
// instances carry learned state, so sharing one across runs would leak it).
type Mechanism struct {
	// Label names the mechanism in tables, cache-series labels and test
	// output. It matches the matrix series label.
	Label string
	// Config builds the mechanism's machine configuration, stamped with
	// p's budgets and run modes.
	Config func(p Params) (core.Config, error)
}

// Mechanisms returns the characterization-matrix registry: the base-program
// rows of the series table, each a prefetch mechanism the simulator
// models layered on the machine it is evaluated on in EXPERIMENTS.md. The
// two FTQ baselines lead so speedups can be read against them; the order
// is stable and tests index into it.
func Mechanisms() []Mechanism {
	var out []Mechanism
	for _, row := range seriesTable {
		if row.program != progBase {
			continue
		}
		out = append(out, Mechanism{Label: row.label, Config: func(p Params) (core.Config, error) {
			c, err := row.machine()
			return p.stamp(c), err
		}})
	}
	return out
}

// AblationMechanism runs every mechanism over every workload and reports
// the Scenario-1/2/3 head-stall decomposition next to IPC and speedup —
// placing each prefetch mechanism in the paper's taxonomy: Scenario 1
// (shoot-through, a ready head), Scenario 2 (stalling head blocking
// completed followers) and Scenario 3 (shadow stalls, nothing behind the
// stalling head ready either), as shares of measured cycles.
func AblationMechanism(specs []workload.Spec, p Params) (*stats.Table, error) {
	mechs := Mechanisms()
	// Pre-validate every constructor once so sweep's pure mkCfg cannot
	// fail: a mechanism whose prefetcher rejects its default config is a
	// programming error surfaced here, not mid-sweep.
	for _, m := range mechs {
		if _, err := m.Config(p); err != nil {
			return nil, fmt.Errorf("mechanism %s: %w", m.Label, err)
		}
	}
	res, err := sweep(specs, len(mechs), p, func(spec workload.Spec, ci int) core.Config {
		c, err := mechs[ci].Config(p)
		if err != nil {
			// Unreachable: the constructor succeeded during pre-validation
			// and takes no per-spec input.
			panic(fmt.Sprintf("experiment: mechanism %s: %v", mechs[ci].Label, err))
		}
		return c
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Ablation A8: prefetch mechanisms in the Scenario-1/2/3 decomposition",
		"workload", "mechanism", "ipc", "speedup/cons", "l1i-mpki",
		"scen1%", "scen2%", "scen3%", "empty%")
	geo := make([][]float64, len(mechs))
	for si, spec := range specs {
		base := res[si][0].IPC()
		for ci, m := range mechs {
			st := res[si][ci]
			sp := 0.0
			if base > 0 {
				sp = st.IPC() / base
			}
			geo[ci] = append(geo[ci], sp)
			share := func(n int64) string {
				if st.FTQ.Cycles == 0 {
					return "0.0"
				}
				return fmt.Sprintf("%.1f", 100*float64(n)/float64(st.FTQ.Cycles))
			}
			t.AddRow(spec.Name, m.Label,
				ipcCell(st),
				speedupCell(st, res[si][0]),
				fmt.Sprintf("%.1f", st.L1IMPKI()),
				share(st.FTQ.ShootThroughCycles),
				share(st.FTQ.Scenario2Cycles),
				share(st.FTQ.Scenario3Cycles),
				share(st.FTQ.EmptyCycles))
		}
	}
	for ci, m := range mechs {
		t.AddRow("geomean", m.Label, "", fmt.Sprintf("%.3f", stats.Geomean(geo[ci])), "", "", "", "", "")
	}
	return t, nil
}
