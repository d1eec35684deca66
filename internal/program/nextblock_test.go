package program_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"frontsim/internal/isa"
	"frontsim/internal/program"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// TestNextBlockAppendsToBuffer pins BlockSource's "len grows by max"
// contract on a buffer that already holds instructions, for the executor
// and for trace.Limit over it: each run is appended after the buffer's
// contents, leaves them as they were, grows the buffer by at most max,
// ends at a branch unless it grew by exactly max, and the runs together
// are the stream Next yields. A consumer that appends every run into one
// buffer depends on this.
func TestNextBlockAppendsToBuffer(t *testing.T) {
	spec, ok := workload.Lookup("secret_srv12")
	if !ok {
		t.Fatal("workload missing")
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3001 // the Limit budget, and how much of the executor's unbounded stream is compared
	sources := map[string]func() trace.BlockSource{
		"executor": func() trace.BlockSource { return program.NewExecutor(prog, spec.Seed) },
		"limit":    func() trace.BlockSource { return trace.NewLimit(program.NewExecutor(prog, spec.Seed), n) },
	}
	for _, name := range []string{"executor", "limit"} {
		want, err := trace.Collect(sources[name](), n)
		if err != nil {
			t.Fatal(err)
		}
		for _, max := range []int{3, 8} {
			for _, c := range []struct {
				name     string
				len, cap int
			}{
				{"len<max", max - 1, 2 * max},
				{"len=max", max, 2 * max},
				{"len>max", max + 1, 2*max + 1},
				{"cap<len+max", 5, 6},
			} {
				t.Run(fmt.Sprintf("%s/max%d/%s", name, max, c.name), func(t *testing.T) {
					prefix := make([]isa.Instr, c.len, c.cap)
					for i := range prefix {
						prefix[i] = isa.Instr{PC: isa.Addr(0xdead0000 + 4*i), Class: isa.ClassALU}
					}
					src := sources[name]()
					var got []isa.Instr
					for len(got) < len(want) {
						buf := make([]isa.Instr, c.len, c.cap)
						copy(buf, prefix)
						out, err := src.NextBlock(buf, max)
						if !slices.Equal(out[:c.len], prefix) {
							t.Fatalf("after %d instructions: the run overwrote the buffer's contents", len(got))
						}
						run := out[c.len:]
						switch {
						case len(run) > max:
							t.Fatalf("after %d instructions: run of %d, max %d", len(got), len(run), max)
						case len(run) == 0 && err == nil:
							t.Fatalf("after %d instructions: empty run with no error", len(got))
						case err == nil && len(run) < max && !run[len(run)-1].Class.IsBranch():
							t.Fatalf("after %d instructions: run of %d ends without a branch", len(got), len(run))
						}
						got = append(got, run...)
						if errors.Is(err, trace.ErrEnd) {
							break
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					if len(got) > len(want) && name == "executor" {
						got = got[:len(want)]
					}
					if !slices.Equal(got, want) {
						t.Fatalf("runs yield %d instructions, Next %d, or they differ", len(got), len(want))
					}
				})
			}
		}
	}
}
