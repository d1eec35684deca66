package experiment

import (
	"context"
	"runtime"
	"testing"

	"frontsim/internal/core"
	"frontsim/internal/program"
	"frontsim/internal/workload"
)

// FuzzMechanismFingerprint drives the mechanism constructors with fuzzed
// budgets and asserts the fingerprint contract the run cache depends on:
// distinct mechanisms never collide, identical (mechanism, budgets) pairs
// always agree, and budget changes reach every mechanism's fingerprint.
func FuzzMechanismFingerprint(f *testing.F) {
	f.Add(int64(1000), int64(5000), int64(2000), int64(8000))
	f.Add(int64(0), int64(1), int64(0), int64(1))
	f.Add(int64(40_000), int64(100_000), int64(40_000), int64(100_000))
	f.Fuzz(func(t *testing.T, warmA, measA, warmB, measB int64) {
		if warmA < 0 || measA <= 0 || warmB < 0 || measB <= 0 {
			t.Skip()
		}
		pA := DefaultParams()
		pA.WarmupInstrs, pA.MeasureInstrs = warmA, measA
		pB := DefaultParams()
		pB.WarmupInstrs, pB.MeasureInstrs = warmB, measB
		sameBudget := warmA == warmB && measA == measB

		mechs := Mechanisms()
		fpsA := make([]string, len(mechs))
		for i, m := range mechs {
			cfgA, err := m.Config(pA)
			if err != nil {
				t.Fatalf("%s: %v", m.Label, err)
			}
			fpsA[i] = cfgA.Fingerprint()
			// Re-building the same mechanism must agree with itself: a
			// constructor that leaks instance identity (pointer, counter)
			// into the fingerprint would split the cache per run.
			again, err := m.Config(pA)
			if err != nil {
				t.Fatalf("%s: %v", m.Label, err)
			}
			if again.Fingerprint() != fpsA[i] {
				t.Errorf("%s: fingerprint unstable across constructions", m.Label)
			}
			cfgB, err := m.Config(pB)
			if err != nil {
				t.Fatalf("%s: %v", m.Label, err)
			}
			if got := cfgB.Fingerprint() == fpsA[i]; got != sameBudget {
				t.Errorf("%s: budget (%d,%d)vs(%d,%d) fingerprint equality = %v, want %v",
					m.Label, warmA, measA, warmB, measB, got, sameBudget)
			}
		}
		for i := range mechs {
			for j := i + 1; j < len(mechs); j++ {
				if fpsA[i] == fpsA[j] {
					t.Errorf("mechanisms %s and %s collide: %s", mechs[i].Label, mechs[j].Label, fpsA[i])
				}
			}
		}
	})
}

// TestMechanismsAllocationFree runs every Mechanisms() row through
// core.RunCtx and holds the run to at most 0.1 heap allocations per
// thousand instructions: the fetch loop, every prefetcher and the shadow
// decoder allocate nothing per instruction, whatever the mechanism. New's
// own allocations are not counted.
func TestMechanismsAllocationFree(t *testing.T) {
	spec, ok := workload.Lookup("secret_srv12")
	if !ok {
		t.Fatal("workload missing")
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.WarmupInstrs, p.MeasureInstrs = 100_000, 400_000
	for _, m := range Mechanisms() {
		cfg, err := m.Config(p)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := core.New(cfg, program.NewExecutor(prog, spec.Seed))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = sim.RunCtx(context.Background())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		instrs := cfg.WarmupInstrs + cfg.MaxInstrs
		perK := float64(after.Mallocs-before.Mallocs) / float64(instrs) * 1000
		t.Logf("%s: %.3f allocations per kilo-instruction", m.Label, perK)
		if perK > 0.1 {
			t.Errorf("%s: %.3f allocations per kilo-instruction, want at most 0.1", m.Label, perK)
		}
	}
}
