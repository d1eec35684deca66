package core

import (
	"context"
	"errors"
	"testing"

	"frontsim/internal/cache"
	"frontsim/internal/xrand"
)

// cancelAt makes sim's audit hook, which runs after every stepped cycle
// and at every fast-forward jump boundary, cancel the returned context
// once the clock reaches cycle at; invariant checks the hook already ran
// keep running. The cancellation point is a pure function of simulated
// time, whichever way RunCtx polls its context.
func cancelAt(sim *Sim, at cache.Cycle) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	check := sim.auditCheck
	sim.auditCheck = func(now cache.Cycle) error {
		if now >= at {
			cancel()
		}
		if check != nil {
			return check(now)
		}
		return nil
	}
	return ctx
}

// checkNotTorn asserts the partial snapshot satisfies the same accounting
// identities a completed run's statistics do — the scenario partition of
// the FTQ's ticked cycles, non-negative counters, and retirement
// consistency. A cancellation landing mid-cycle would break these.
func checkNotTorn(t *testing.T, s *Sim) {
	t.Helper()
	st := s.Snapshot()
	f := st.FTQ
	if got := f.ShootThroughCycles + f.Scenario2Cycles + f.Scenario3Cycles + f.EmptyCycles; got != f.Cycles {
		t.Fatalf("scenario partition torn: shoot %d + s2 %d + s3 %d + empty %d = %d, want %d ticked cycles",
			f.ShootThroughCycles, f.Scenario2Cycles, f.Scenario3Cycles, f.EmptyCycles, got, f.Cycles)
	}
	if f.HeadStallCycles != f.Scenario2Cycles+f.Scenario3Cycles {
		t.Fatalf("head-stall identity torn: %d != %d + %d", f.HeadStallCycles, f.Scenario2Cycles, f.Scenario3Cycles)
	}
	if st.Instructions < 0 || st.Cycles < 0 || st.SwPrefetchInstrs < 0 {
		t.Fatalf("negative counters in partial snapshot: %+v", st)
	}
	// The per-cycle audit's full invariant set must hold at the boundary
	// the run stopped on (the last completed cycle).
	if now := s.Now(); now > 0 {
		if err := s.Frontend().CheckInvariants(now - 1); err != nil {
			t.Fatalf("audit invariants violated after cancellation at cycle %d: %v", now, err)
		}
	}
}

// TestRunCtxCancelledStatsNotTorn cancels fast-forwarded runs at
// pseudo-randomized cycles and asserts each run stopped there, cancelled,
// with partial statistics that are not torn. Config.Audit is on, so every
// simulated cycle — including jump boundaries — also ran the full
// per-cycle invariant audit up to the cancellation point; under `-tags
// audit` the same holds for every other test in this package.
func TestRunCtxCancelledStatsNotTorn(t *testing.T) {
	rng := xrand.New(0xcafe_f00d)
	for i := 0; i < 8; i++ {
		at := cache.Cycle(1 + rng.Intn(20_000))
		for _, conservative := range []bool{false, true} {
			cfg := smallConfig("cancel", conservative)
			cfg.FastForward = true
			cfg.Audit = true
			sim, err := New(cfg, source(t, "secret_srv12"))
			if err != nil {
				t.Fatal(err)
			}
			checkCancelled(t, sim, at)
		}
	}
}

// TestRunCtxCancelledStepModeNotTorn covers the non-fast-forward polling
// path (strided checks in the plain Step loop).
func TestRunCtxCancelledStepModeNotTorn(t *testing.T) {
	cfg := smallConfig("cancel-step", false)
	cfg.FastForward = false
	cfg.Audit = true
	sim, err := New(cfg, source(t, "secret_srv12"))
	if err != nil {
		t.Fatal(err)
	}
	checkCancelled(t, sim, 10_000)
}

// checkCancelled runs sim with its context cancelled at cycle at and
// asserts the run stopped mid-run, past at, with zero Stats and a partial
// snapshot that is not torn.
func checkCancelled(t *testing.T, sim *Sim, at cache.Cycle) {
	t.Helper()
	st, err := sim.RunCtx(cancelAt(sim, at))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled at cycle %d: RunCtx = %v, want context.Canceled", at, err)
	}
	if sim.Now() < at {
		t.Fatalf("run stopped at cycle %d, before its cancellation at %d", sim.Now(), at)
	}
	if st != (Stats{}) {
		t.Fatalf("cancelled RunCtx returned non-zero Stats: %+v", st)
	}
	checkNotTorn(t, sim)
}

// TestRunCtxPreCancelledStopsImmediately pins the fast exit: a context
// cancelled before the run starts must abort before simulating anything.
func TestRunCtxPreCancelledStopsImmediately(t *testing.T) {
	cfg := smallConfig("cancel-pre", false)
	cfg.FastForward = true
	sim, err := New(cfg, source(t, "secret_srv12"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	if sim.Now() != 0 {
		t.Fatalf("pre-cancelled run advanced to cycle %d", sim.Now())
	}
}
