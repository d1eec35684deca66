package program_test

import (
	"runtime"
	"testing"

	"frontsim/internal/program"
	"frontsim/internal/workload"
)

// TestProgramFootprint bounds the heap a generated program and a new
// executor over it hold, per static instruction, on the suite's largest
// program. A program is flat arrays with interned data patterns, and an
// executor keeps state only for stride instructions and sticky branches;
// a per-block or per-instruction object graph, or executor state for
// every static instruction, does not fit these limits.
func TestProgramFootprint(t *testing.T) {
	const (
		maxProgramBytes  = 24 // per static instruction
		maxExecutorBytes = 4
	)
	spec, ok := workload.Lookup("secret_srv128")
	if !ok {
		t.Fatal("workload missing")
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	base := heap()
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	built := heap()
	e := program.NewExecutor(prog, 1)
	started := heap()
	runtime.KeepAlive(e)
	n := float64(prog.NumInstrs())
	progPer, execPer := float64(built-base)/n, float64(started-built)/n
	t.Logf("%s: %d static instructions; program %.1f B, executor %.2f B per instruction", spec.Name, prog.NumInstrs(), progPer, execPer)
	if progPer > maxProgramBytes {
		t.Errorf("the program holds %.1f bytes of heap per static instruction, limit %d", progPer, maxProgramBytes)
	}
	if execPer > maxExecutorBytes {
		t.Errorf("a new executor holds %.2f bytes per static instruction, limit %d", execPer, maxExecutorBytes)
	}
}
