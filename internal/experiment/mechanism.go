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
type Mechanism struct {
	// Label names the mechanism in tables, cache-series labels and test
	// output. It matches the matrix series label.
	Label string
	// Config returns the mechanism's machine configuration, stamped with
	// p's budgets and run modes.
	Config func(p Params) core.Config
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
		out = append(out, Mechanism{Label: row.label, Config: func(p Params) core.Config { return p.stamp(row.machine) }})
	}
	return out
}

// mechanismMachines returns each mechanism's machine configuration.
func mechanismMachines(mechs []Mechanism, p Params) []core.Config {
	out := make([]core.Config, len(mechs))
	for i, m := range mechs {
		out[i] = m.Config(p)
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
	res, err := sweep(specs, mechanismMachines(mechs, p), p)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		"Ablation A8: prefetch mechanisms in the Scenario-1/2/3 decomposition",
		"workload", "mechanism", "ipc", "speedup/cons", "l1i-mpki",
		"scen1%", "scen2%", "scen3%", "empty%")
	geo := make([][]float64, len(mechs))
	for si, spec := range specs {
		for ci, m := range mechs {
			st := res[si][ci]
			geo[ci] = append(geo[ci], speedup(st, res[si][0]))
			share := func(n int64) string {
				if st.FTQ.Cycles == 0 {
					return "0.0"
				}
				return fmt.Sprintf("%.1f", 100*float64(n)/float64(st.FTQ.Cycles))
			}
			t.AddRow(spec.Name, m.Label,
				ipcCell(st),
				speedupCell(st, res[si][0]),
				mpkiCell(st),
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
