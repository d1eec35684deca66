package experiment

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"frontsim/internal/core"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// harnessParams scales the budgets below tinyParams so the conformance
// harnesses can afford several full passes in one test.
func harnessParams() Params {
	p := DefaultParams()
	p.WarmupInstrs = 40_000
	p.MeasureInstrs = 100_000
	p.ProfileInstrs = 200_000
	return p
}

// snapshotDir reads every file under dir keyed by slash-separated
// relative path, for byte-level directory comparison.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// mechanismPass runs every registered mechanism over one workload in one
// execution mode against a fresh cache, returning the per-mechanism
// canonical Stats JSON and a byte snapshot of the cache directory.
type mechanismPass struct {
	stats [][]byte
	cache map[string][]byte
}

func runMechanismPass(t *testing.T, spec workload.Spec, mode func(*Params)) mechanismPass {
	t.Helper()
	dir := t.TempDir()
	c, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := harnessParams()
	p.Cache = c
	mode(&p)

	mechs := Mechanisms()
	res, err := sweep([]workload.Spec{spec}, len(mechs), p, func(_ workload.Spec, ci int) core.Config {
		cfg, err := mechs[ci].Config(p)
		if err != nil {
			panic(err)
		}
		return cfg
	})
	if err != nil {
		t.Fatal(err)
	}
	out := mechanismPass{cache: snapshotDir(t, dir)}
	for ci := range mechs {
		j, err := res[0][ci].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		out.stats = append(out.stats, j)
	}
	return out
}

// TestMechanismConformance is the cross-prefetcher conformance harness:
// every registered mechanism — no prefetching on both FTQ shapes, EIP,
// MANA, shadow-branch decoding, and the I-TLB model — must behave
// identically across every execution mode. Concretely, runs with
// fast-forward off and under per-cycle audit must produce byte-identical
// canonical Stats and byte-identical run-cache directories (same keys,
// same bytes) as the plain fast-forwarded pass, and a cache warmed by one
// mode must serve the other modes without a single miss. A mechanism
// whose state mutates inside a fast-forwarded span, or that breaks a
// per-cycle invariant, fails here.
func TestMechanismConformance(t *testing.T) {
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("suite workload missing")
	}
	mechs := Mechanisms()

	// Identity first: every mechanism must fingerprint distinctly from
	// every other, or the run cache would conflate their results.
	p := harnessParams()
	fps := map[string]string{}
	for _, m := range mechs {
		cfg, err := m.Config(p)
		if err != nil {
			t.Fatalf("%s: %v", m.Label, err)
		}
		fp := cfg.Fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Fatalf("mechanisms %s and %s share fingerprint %s", prev, m.Label, fp)
		}
		fps[fp] = m.Label
	}

	base := runMechanismPass(t, spec, func(p *Params) {})
	modes := []struct {
		name string
		mode func(*Params)
	}{
		{"ff-off", func(p *Params) { p.FastForward = false }},
		{"audit", func(p *Params) { p.Audit = true }},
	}
	for _, m := range modes {
		got := runMechanismPass(t, spec, m.mode)
		for ci, mech := range mechs {
			if !bytes.Equal(base.stats[ci], got.stats[ci]) {
				t.Errorf("%s/%s: stats diverge\nbase: %s\n%s:   %s",
					mech.Label, m.name, base.stats[ci], m.name, got.stats[ci])
			}
		}
		for rel, want := range base.cache {
			b, ok := got.cache[rel]
			if !ok {
				t.Errorf("%s: cache entry %s missing", m.name, rel)
				continue
			}
			if !bytes.Equal(b, want) {
				t.Errorf("%s: cache entry %s differs from base mode", m.name, rel)
			}
		}
		for rel := range got.cache {
			if _, ok := base.cache[rel]; !ok {
				t.Errorf("%s: cache entry %s only written by this mode", m.name, rel)
			}
		}
	}

	// Cross-mode cache sharing: replay the base pass's entries byte-for-
	// byte into a fresh cache directory, then run it with fast-forward off
	// and audit on. Every cell must hit — the mode flags are invisible
	// to every key.
	dir := t.TempDir()
	for rel, b := range base.cache {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre := warm.Metrics()
	pWarm := harnessParams()
	pWarm.Cache = warm
	pWarm.FastForward = false
	pWarm.Audit = true
	res, err := sweep([]workload.Spec{spec}, len(mechs), pWarm, func(_ workload.Spec, ci int) core.Config {
		cfg, err := mechs[ci].Config(pWarm)
		if err != nil {
			panic(err)
		}
		return cfg
	})
	if err != nil {
		t.Fatal(err)
	}
	post := warm.Metrics()
	if post.Misses != pre.Misses {
		t.Errorf("warm cross-mode sweep missed the cache %d times; modes do not share entries", post.Misses-pre.Misses)
	}
	if post.Hits-pre.Hits != int64(len(mechs)) {
		t.Errorf("warm cross-mode sweep hit %d entries, want %d", post.Hits-pre.Hits, len(mechs))
	}
	for ci, mech := range mechs {
		j, err := res[0][ci].CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(j, base.stats[ci]) {
			t.Errorf("%s: warm cross-mode stats differ from cold base pass", mech.Label)
		}
	}
}

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
