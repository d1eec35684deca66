package experiment

import (
	"fmt"
	"io"

	"frontsim/internal/core"
	"frontsim/internal/program"
	"frontsim/internal/runner"
)

// coldCell is one cold (cache-missed) simulation cell queued for
// execution against a workload's program. Warm cells are recorded
// straight from the cache by the planners and never reach here.
type coldCell struct {
	cfg core.Config
	// wl and series key the observability hooks (Params.ObsRun and the
	// suite collector).
	wl, series string
	// label prefixes errors ("workload series: ...").
	label string
	// commit publishes the finished stats: result slot, cache put,
	// obs record, progress line.
	commit func(core.Stats) error
}

// dispatchCells submits each cell to the group as its own stealable job
// over a fresh executor of prog.
func dispatchCells(g *runner.Group, p Params, prog *program.Program, execSeed uint64, cells []coldCell) {
	for _, cell := range cells {
		g.Go(func() error { return runColdCell(p, prog, execSeed, cell) })
	}
}

// runColdCell simulates one cell, closes its observer (when ObsRun gave
// it an io.Closer) as soon as the run ends, and commits the result.
func runColdCell(p Params, prog *program.Program, execSeed uint64, cell coldCell) error {
	c := cell.cfg
	if p.ObsRun != nil {
		c.Obs = p.ObsRun(cell.wl, cell.series)
	}
	st, err := core.RunSource(c, program.NewExecutor(prog, execSeed))
	if cl, ok := c.Obs.(io.Closer); ok {
		if cerr := cl.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing observer: %w", cerr)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", cell.label, err)
	}
	return cell.commit(st)
}
