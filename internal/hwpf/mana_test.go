package hwpf

import (
	"testing"

	"frontsim/internal/isa"
)

// manaLine returns the address of line n within the region starting at base.
func manaLine(base isa.Addr, n int) isa.Addr {
	return base + isa.Addr(n*isa.LineSize)
}

func TestMANAValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  MANAConfig
		ok   bool
	}{
		{"default", DefaultMANAConfig(), true},
		{"min-region", MANAConfig{RecordEntries: 1, RegionLines: 2, MaxIssue: 1}, true},
		{"max-region", MANAConfig{RecordEntries: 16, RegionLines: 64, MaxIssue: 4}, true},
		{"zero-records", MANAConfig{RecordEntries: 0, RegionLines: 8, MaxIssue: 4}, false},
		{"npot-records", MANAConfig{RecordEntries: 3, RegionLines: 8, MaxIssue: 4}, false},
		{"region-one", MANAConfig{RecordEntries: 16, RegionLines: 1, MaxIssue: 4}, false},
		{"region-npot", MANAConfig{RecordEntries: 16, RegionLines: 6, MaxIssue: 4}, false},
		{"region-over", MANAConfig{RecordEntries: 16, RegionLines: 128, MaxIssue: 4}, false},
		{"zero-issue", MANAConfig{RecordEntries: 16, RegionLines: 8, MaxIssue: 0}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// TestMANAReplayWrapOrder pins the replay order: the region walk starts one
// line past the trigger and wraps around the region boundary, so the lines
// most likely to be fetched next issue first.
func TestMANAReplayWrapOrder(t *testing.T) {
	p := build[*MANA](t, MANAConfig{RecordEntries: 16, RegionLines: 8, MaxIssue: 8})
	base := isa.Addr(0x10000)
	// Train lines 0, 1, 6, 7 of the region via demand misses. Later misses
	// land in the already-allocated record and replay the earlier bits;
	// those issues are incidental here and ignored.
	for _, n := range []int{0, 1, 6, 7} {
		p.OnFetch(manaLine(base, n), 0, false, func(isa.Addr) {})
	}
	// Trigger a hit-fetch at line 6: replay should wrap 7, 0, 1 — skipping
	// untrained lines and the trigger itself.
	var got []isa.Addr
	p.OnFetch(manaLine(base, 6), 0, true, func(a isa.Addr) { got = append(got, a) })
	want := []isa.Addr{manaLine(base, 7), manaLine(base, 0), manaLine(base, 1)}
	if len(got) != len(want) {
		t.Fatalf("replay issued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay order %v, want %v (wrap-around starting past the trigger)", got, want)
		}
	}
	if p.Trained() != 4 {
		t.Fatalf("Trained() = %d, want 4", p.Trained())
	}
}

// TestMANAMaxIssueCap pins the per-fetch issue budget.
func TestMANAMaxIssueCap(t *testing.T) {
	p := build[*MANA](t, MANAConfig{RecordEntries: 16, RegionLines: 8, MaxIssue: 2})
	base := isa.Addr(0x4000)
	for n := 0; n < 8; n++ {
		p.OnFetch(manaLine(base, n), 0, false, func(isa.Addr) {})
	}
	issued := p.Issued()
	var got []isa.Addr
	p.OnFetch(manaLine(base, 0), 0, true, func(a isa.Addr) { got = append(got, a) })
	if len(got) != 2 {
		t.Fatalf("issued %d prefetches, want MaxIssue=2 (%v)", len(got), got)
	}
	if got[0] != manaLine(base, 1) || got[1] != manaLine(base, 2) {
		t.Fatalf("capped replay %v, want nearest successors first", got)
	}
	if p.Issued() != issued+2 {
		t.Fatalf("Issued() advanced by %d, want 2", p.Issued()-issued)
	}
}

// TestMANAConflictReset pins direct-mapped record replacement: a region
// aliasing into an occupied slot resets the record rather than merging
// bit-vectors across regions.
func TestMANAConflictReset(t *testing.T) {
	cfg := MANAConfig{RecordEntries: 4, RegionLines: 8, MaxIssue: 8}
	p := build[*MANA](t, cfg)
	regionBytes := isa.Addr(cfg.RegionLines * isa.LineSize)
	baseA := isa.Addr(0)
	// baseB maps to the same slot: RecordEntries regions ahead.
	baseB := baseA + regionBytes*isa.Addr(cfg.RecordEntries)
	p.OnFetch(manaLine(baseA, 3), 0, false, func(isa.Addr) {})
	if p.Records() != 1 {
		t.Fatalf("Records() = %d after first allocation, want 1", p.Records())
	}
	p.OnFetch(manaLine(baseB, 5), 0, false, func(isa.Addr) {})
	if p.Records() != 2 {
		t.Fatalf("Records() = %d after conflict, want 2 (reset allocation)", p.Records())
	}
	// Region A's record is gone: a hit-fetch there replays nothing.
	p.OnFetch(manaLine(baseA, 0), 0, true, func(a isa.Addr) {
		t.Fatalf("evicted record replayed %v", a)
	})
	// Region B's record survived with only its own bit.
	var got []isa.Addr
	p.OnFetch(manaLine(baseB, 4), 0, true, func(a isa.Addr) { got = append(got, a) })
	if len(got) != 1 || got[0] != manaLine(baseB, 5) {
		t.Fatalf("conflicting record replayed %v, want only line 5 of region B", got)
	}
}

// TestMANATrainDedupe pins that re-missing a recorded line does not count
// as new training.
func TestMANATrainDedupe(t *testing.T) {
	p := build[*MANA](t, DefaultMANAConfig())
	line := isa.Addr(0x8000)
	p.OnFetch(line, 0, false, func(isa.Addr) {})
	p.OnFetch(line, 0, false, func(isa.Addr) {})
	if p.Trained() != 1 {
		t.Fatalf("Trained() = %d after duplicate miss, want 1", p.Trained())
	}
	if p.Records() != 1 {
		t.Fatalf("Records() = %d after duplicate miss, want 1", p.Records())
	}
}

// TestMANAFingerprint pins the fingerprint contract: the configuration
// reaches it, whole.
func TestMANAFingerprint(t *testing.T) {
	small := DefaultMANAConfig()
	small.RegionLines = 4
	if DefaultMANAConfig().PrefetchFingerprint() != DefaultMANAConfig().PrefetchFingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	if DefaultMANAConfig().PrefetchFingerprint() == small.PrefetchFingerprint() {
		t.Fatal("distinct configs share a fingerprint")
	}
}
