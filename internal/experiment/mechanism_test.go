package experiment

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"frontsim/internal/asmdb"
	"frontsim/internal/cfg"
	"frontsim/internal/core"
	"frontsim/internal/hwpf"
	"frontsim/internal/preload"
	"frontsim/internal/program"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// FuzzMechanismFingerprint stamps the mechanisms with fuzzed budgets and
// asserts the fingerprint contract the run cache depends on: distinct
// mechanisms never collide, identical (mechanism, budgets) pairs always
// agree, and budget changes reach every mechanism's fingerprint.
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
			fpsA[i] = m.Config(pA).Fingerprint()
			// Stamping the same mechanism again must agree with itself: a
			// config that leaks instance identity (pointer, counter) into
			// the fingerprint would split the cache per run.
			if m.Config(pA).Fingerprint() != fpsA[i] {
				t.Errorf("%s: fingerprint unstable across stampings", m.Label)
			}
			if got := m.Config(pB).Fingerprint() == fpsA[i]; got != sameBudget {
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
		machine := m.Config(p)
		sim, err := core.New(machine, program.NewExecutor(prog, spec.Seed))
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
		instrs := machine.WarmupInstrs + machine.MaxInstrs
		perK := float64(after.Mallocs-before.Mallocs) / float64(instrs) * 1000
		t.Logf("%s: %.3f allocations per kilo-instruction", m.Label, perK)
		if perK > 0.1 {
			t.Errorf("%s: %.3f allocations per kilo-instruction, want at most 0.1", m.Label, perK)
		}
	}
}

// TestConfigsReusable runs each prefetching machine's configuration,
// stamped once, twice in sequence and then twice at once: all four runs
// must produce the same canonical stats. The machines are every
// Mechanisms() row, the metadata preloader's compiled store and the
// next-line prefetcher. A configuration is plain data, so nothing one run
// learns may reach the next, and concurrent runs share nothing they write
// (go test -race checks that part).
func TestConfigsReusable(t *testing.T) {
	spec, ok := workload.Lookup("secret_srv12")
	if !ok {
		t.Fatal("workload missing")
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.WarmupInstrs, p.MeasureInstrs = 50_000, 200_000
	type machine struct {
		label string
		c     core.Config
	}
	var machines []machine
	for _, m := range Mechanisms() {
		machines = append(machines, machine{m.Label, m.Config(p)})
	}
	graph, err := cfg.Profile(trace.NewLimit(program.NewExecutor(prog, spec.Seed), 200_000), cfg.Options{IPC: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := asmdb.Build(graph, asmdb.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	store, err := preload.Compile(preload.DefaultConfig(), plan)
	if err != nil {
		t.Fatal(err)
	}
	pre := core.DefaultConfig()
	pre.Frontend.Prefetcher = store
	nextLine := core.DefaultConfig()
	nextLine.Frontend.Prefetcher = hwpf.NextLineConfig{Degree: 2}
	machines = append(machines, machine{"preload+fdp24", p.stamp(pre)}, machine{"nextline+fdp24", p.stamp(nextLine)})

	run := func(c core.Config) ([]byte, error) {
		st, err := core.RunSource(c, program.NewExecutor(prog, spec.Seed))
		if err != nil {
			return nil, err
		}
		return st.CanonicalJSON()
	}
	for _, m := range machines {
		var got [4][]byte
		var errs [4]error
		got[0], errs[0] = run(m.c)
		got[1], errs[1] = run(m.c)
		var wg sync.WaitGroup
		for i := 2; i < len(got); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = run(m.c)
			}()
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s run %d: %v", m.label, i, errs[i])
			}
			if !bytes.Equal(got[i], got[0]) {
				t.Errorf("%s: run %d's stats differ from run 0's", m.label, i)
			}
		}
	}
}
