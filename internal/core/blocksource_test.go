package core

import (
	"bytes"
	"testing"

	"frontsim/internal/isa"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// plainSource hides a source's NextBlock, so trace.Blocks reads it through
// its cutter, one instruction at a time.
type plainSource struct{ src trace.Source }

func (p plainSource) Next() (isa.Instr, error) { return p.src.Next() }

// TestBlockSourceEquivalence pins the executor's runs against the cutter's:
// the same executor stream fed through three paths must produce
// byte-identical statistics. The incremental path hides NextBlock, so
// trace.Blocks cuts the stream one instruction at a time; RunSource reads
// the executor's runs ahead on a second goroutine; a Step-driven loop reads
// them on the simulating goroutine, with no read-ahead. This is the
// differential harness that lets BlockSource implementations and the
// read-ahead be trusted on the hot path (trace.FuzzBlocksMatchPeekLoop
// pins the cutter itself).
func TestBlockSourceEquivalence(t *testing.T) {
	for _, name := range []string{"secret_srv12", "secret_crypto52"} {
		for _, conservative := range []bool{false, true} {
			cfgName := "fdp24"
			if conservative {
				cfgName = "cons"
			}
			t.Run(name+"/"+cfgName, func(t *testing.T) {
				t.Parallel()
				run := func(path string) []byte {
					cfg := smallConfig(cfgName, conservative)
					src := source(t, name)
					if _, ok := src.(trace.BlockSource); !ok {
						t.Fatal("suite source does not yield runs; the fast path is untested")
					}
					if path == "incremental" {
						src = plainSource{src}
					}
					var st Stats
					var err error
					if path == "step" {
						sim := newSim(t, cfg, src)
						for !sim.Done() {
							sim.Step()
						}
						st = sim.Snapshot()
					} else if st, err = RunSource(cfg, src); err != nil {
						t.Fatal(err)
					}
					j, err := st.CanonicalJSON()
					if err != nil {
						t.Fatal(err)
					}
					return j
				}
				inc := run("incremental")
				for _, path := range []string{"read-ahead", "step"} {
					if blk := run(path); !bytes.Equal(inc, blk) {
						t.Errorf("stats diverge between fill paths:\nincremental: %s\n%s: %s", inc, path, blk)
					}
				}
			})
		}
	}
}

// TestBlockSourceLimitChop pins Limit.NextBlock's end-of-budget semantics:
// whatever instruction count the budget lands on — mid-block, at a branch,
// at the cap — the block path must agree with the incremental path.
func TestBlockSourceLimitChop(t *testing.T) {
	spec, ok := workload.Lookup("secret_int_44")
	if !ok {
		t.Fatal("suite workload missing")
	}
	for _, budget := range []int64{1, 2, 7, 1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007} {
		inc := trace.NewLimit(source(t, spec.Name), budget)
		blk := trace.NewLimit(source(t, spec.Name), budget)
		var incInstrs []isa.Instr
		for {
			in, err := inc.Next()
			if err != nil {
				break
			}
			incInstrs = append(incInstrs, in)
		}
		var blkInstrs []isa.Instr
		for {
			out, err := blk.NextBlock(nil, 8)
			blkInstrs = append(blkInstrs, out...)
			if err != nil {
				break
			}
		}
		if len(incInstrs) != len(blkInstrs) {
			t.Fatalf("budget %d: %d instrs incremental vs %d block", budget, len(incInstrs), len(blkInstrs))
		}
		for i := range incInstrs {
			if incInstrs[i] != blkInstrs[i] {
				t.Fatalf("budget %d: instr %d differs: %+v vs %+v", budget, i, incInstrs[i], blkInstrs[i])
			}
		}
	}
}
