package experiment

import (
	"bytes"
	"testing"

	"frontsim/internal/core"
	"frontsim/internal/runner"
	"frontsim/internal/stats"
	"frontsim/internal/workload"
)

// TestFastForwardEquivalence is the differential-equivalence harness for
// the event-driven fast path: the full per-workload matrix — all ten
// series, profiling and planning included — run cycle-by-cycle and
// fast-forwarded must produce byte-identical canonical Stats JSON, and the
// FastForward flag must be invisible to every mechanism's config
// fingerprint (like Audit and Obs), so both modes share run-cache entries.
func TestFastForwardEquivalence(t *testing.T) {
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("suite workload missing")
	}
	p := tinyParams()

	pOff := p
	pOff.FastForward = false
	pOn := p
	pOn.FastForward = true

	// Fingerprint exclusion first, across the whole mechanism registry: a
	// leak here would split the cache by run-loop mode and invalidate the
	// sharing the harness proves safe.
	for _, mech := range Mechanisms() {
		off, err := mech.Config(pOff)
		if err != nil {
			t.Fatal(err)
		}
		on, err := mech.Config(pOn)
		if err != nil {
			t.Fatal(err)
		}
		if off.Fingerprint() != on.Fingerprint() {
			t.Fatalf("FastForward leaked into the %s fingerprint", mech.Label)
		}
	}

	mOff, err := RunMatrix(spec, 1, pOff)
	if err != nil {
		t.Fatal(err)
	}
	mOn, err := RunMatrix(spec, 1, pOn)
	if err != nil {
		t.Fatal(err)
	}
	for id := seriesID(0); id < numSeries; id++ {
		off, err := mOff.seriesPtr(id).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		on, err := mOn.seriesPtr(id).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(off, on) {
			t.Errorf("%s: stats diverge under fast-forward:\ncycle-by-cycle: %s\nfast-forward:   %s", seriesTable[id].label, off, on)
		}
	}
}

// TestFastForwardAblationEquivalence extends the differential harness to
// an ablation sweep (non-default FTQ depths, including the paper's
// 2-entry conservative shape) and to X1's preloader cells, comparing the
// fully rendered tables.
func TestFastForwardAblationEquivalence(t *testing.T) {
	spec, ok := workload.Lookup("secret_crypto52")
	if !ok {
		t.Fatal("suite workload missing")
	}
	specs := []workload.Spec{spec}
	for _, tc := range []struct {
		name string
		run  func(Params) (*stats.Table, error)
	}{
		{"ftq", func(p Params) (*stats.Table, error) { return AblationFTQDepth(specs, []int{2, 8, 24}, p) }},
		{"preload", func(p Params) (*stats.Table, error) { return ExtensionPreload(specs, p) }},
	} {
		p := tinyParams()
		p.FastForward = false
		off, err := tc.run(p)
		if err != nil {
			t.Fatal(err)
		}
		p.FastForward = true
		on, err := tc.run(p)
		if err != nil {
			t.Fatal(err)
		}
		if off.String() != on.String() {
			t.Fatalf("%s table diverges under fast-forward:\ncycle-by-cycle:\n%s\nfast-forward:\n%s", tc.name, off, on)
		}
	}
}

// TestStaleSchemaEntryRejected pins the cache-key schema bump: an entry
// written under the pre-sampling key layout (schema 5) must miss, not be
// silently reused, when the current binary probes the same simulation.
// Before cacheSchema moved to 6 this test failed — the stale entry's key
// was byte-identical to the live one.
func TestStaleSchemaEntryRejected(t *testing.T) {
	if cacheSchema != core.FingerprintSchema {
		t.Fatalf("cacheSchema %d and core.FingerprintSchema %d moved apart; bump them in lockstep", cacheSchema, core.FingerprintSchema)
	}
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := tinyParams()
	p.Cache = c
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("suite workload missing")
	}
	fdp, err := SeriesCell(spec, "fdp24", p)
	if err != nil {
		t.Fatal(err)
	}

	// Write the FDP cell exactly as a schema-5 binary would have keyed it.
	stale := fdp.key
	stale.Schema = 5
	if err := c.Put(stale, core.Stats{Config: "stale-schema-5"}); err != nil {
		t.Fatal(err)
	}

	var got core.Stats
	hit, err := c.Get(fdp.key, &got)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatalf("stale schema-5 cache entry silently reused: %+v", got)
	}

	// The stale entry is still addressable under its own (old) key — the
	// bump retires it from current lookups without corrupting the store.
	hit, err = c.Get(stale, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || got.Config != "stale-schema-5" {
		t.Fatal("stale entry unexpectedly unreadable under its own key")
	}
}
