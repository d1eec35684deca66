package bpu

import (
	"testing"

	"frontsim/internal/isa"
)

func TestShadowConfigValidate(t *testing.T) {
	maxSlots := isa.LineSize / isa.InstrSize
	cases := []struct {
		name string
		cfg  ShadowConfig
		ok   bool
	}{
		{"disabled-zero", ShadowConfig{}, true},
		{"default", DefaultShadowConfig(), true},
		{"full-line", ShadowConfig{LineEntries: 8, MaxPerLine: maxSlots}, true},
		{"npot-entries", ShadowConfig{LineEntries: 3, MaxPerLine: 2}, false},
		{"zero-cap", ShadowConfig{LineEntries: 8, MaxPerLine: 0}, false},
		{"cap-over-line", ShadowConfig{LineEntries: 8, MaxPerLine: maxSlots + 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
	if _, err := NewShadowDecoder(ShadowConfig{}); err == nil {
		t.Fatal("NewShadowDecoder accepted a disabled config")
	}
}

// TestShadowPartialLineDecode pins which instructions a line's record
// retains: direct branches and returns decode, indirect branches and
// non-branches never enter the record, and a direct branch the trace never
// gave a target is skipped — its bytes encode nothing to decode.
func TestShadowPartialLineDecode(t *testing.T) {
	d, err := NewShadowDecoder(ShadowConfig{LineEntries: 16, MaxPerLine: 8})
	if err != nil {
		t.Fatal(err)
	}
	line := isa.Addr(0x1000)
	ins := []isa.Instr{
		{PC: line + 0, Class: isa.ClassALU},
		{PC: line + 4, Class: isa.ClassBranch, Target: 0x2000},
		{PC: line + 8, Class: isa.ClassIndirect, Target: 0x3000},      // register target: not decodable
		{PC: line + 12, Class: isa.ClassIndirectCall, Target: 0x3400}, // register target: not decodable
		{PC: line + 16, Class: isa.ClassBranch, Target: 0},            // no encoded target in the trace
		{PC: line + 20, Class: isa.ClassReturn},                       // decodes despite Target 0 (RAS supplies it)
		{PC: line + 24, Class: isa.ClassCall, Target: 0x4000},
	}
	for _, in := range ins {
		d.Observe(in)
	}
	got := d.DecodeLine(line)
	want := []ShadowBranch{
		{PC: line + 4, Target: 0x2000, Class: isa.ClassBranch},
		{PC: line + 20, Target: 0, Class: isa.ClassReturn},
		{PC: line + 24, Target: 0x4000, Class: isa.ClassCall},
	}
	if len(got) != len(want) {
		t.Fatalf("DecodeLine = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DecodeLine[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := d.Stats(); st.Observed != 3 {
		t.Fatalf("Observed = %d, want 3", st.Observed)
	}
	if d.DecodeLine(line+isa.LineSize) != nil {
		t.Fatal("unrecorded line decoded branches")
	}
}

// TestShadowObserveDedupe pins in-place update: re-observing a branch
// refreshes its record instead of appending a duplicate.
func TestShadowObserveDedupe(t *testing.T) {
	d, err := NewShadowDecoder(ShadowConfig{LineEntries: 16, MaxPerLine: 4})
	if err != nil {
		t.Fatal(err)
	}
	pc := isa.Addr(0x2000)
	d.Observe(isa.Instr{PC: pc, Class: isa.ClassBranch, Target: 0x100})
	d.Observe(isa.Instr{PC: pc, Class: isa.ClassJump, Target: 0x200})
	got := d.DecodeLine(pc.Line())
	if len(got) != 1 {
		t.Fatalf("record holds %d branches after duplicate PC, want 1", len(got))
	}
	if got[0].Target != 0x200 || got[0].Class != isa.ClassJump {
		t.Fatalf("duplicate observation did not update in place: %+v", got[0])
	}
	if st := d.Stats(); st.Observed != 1 {
		t.Fatalf("Observed = %d, want 1", st.Observed)
	}
}

// TestShadowPerLineCap pins the cap: the first MaxPerLine branches are
// kept, later arrivals drop and count.
func TestShadowPerLineCap(t *testing.T) {
	d, err := NewShadowDecoder(ShadowConfig{LineEntries: 16, MaxPerLine: 2})
	if err != nil {
		t.Fatal(err)
	}
	line := isa.Addr(0x3000)
	for i := 0; i < 4; i++ {
		d.Observe(isa.Instr{PC: line + isa.Addr(i*isa.InstrSize), Class: isa.ClassBranch, Target: 0x100})
	}
	if got := d.DecodeLine(line); len(got) != 2 {
		t.Fatalf("record holds %d branches, want cap 2", len(got))
	}
	if st := d.Stats(); st.CapDropped != 2 || st.Observed != 2 {
		t.Fatalf("stats %+v, want CapDropped=2 Observed=2", st)
	}
}

// TestShadowLineConflict pins direct-mapped replacement: a different line
// aliasing into a slot resets the record, and the old line stops decoding.
func TestShadowLineConflict(t *testing.T) {
	cfg := ShadowConfig{LineEntries: 4, MaxPerLine: 4}
	d, err := NewShadowDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lineA := isa.Addr(0)
	lineB := lineA + isa.Addr(cfg.LineEntries*isa.LineSize) // same slot
	d.Observe(isa.Instr{PC: lineA + 4, Class: isa.ClassBranch, Target: 0x100})
	d.Observe(isa.Instr{PC: lineB + 8, Class: isa.ClassCall, Target: 0x200})
	if got := d.DecodeLine(lineA); got != nil {
		t.Fatalf("evicted line still decodes %+v", got)
	}
	got := d.DecodeLine(lineB)
	if len(got) != 1 || got[0].PC != lineB+8 {
		t.Fatalf("conflicting line decodes %+v, want only its own branch", got)
	}
	if st := d.Stats(); st.LineConflict != 1 {
		t.Fatalf("LineConflict = %d, want 1", st.LineConflict)
	}
}

// TestInstallShadowBTBConflict pins the opportunistic fill policy against
// the BTB: shadow fills take invalid ways only, never displace trained
// entries, and leave an already-identified branch untouched.
func TestInstallShadowBTBConflict(t *testing.T) {
	b := NewBTB(1, 2) // one set, two ways: every PC conflicts
	pcs := []isa.Addr{0x100, 0x200, 0x300}

	if installed, dropped := b.InstallShadow(pcs[0], 0x1000, isa.ClassBranch); !installed || dropped {
		t.Fatalf("first fill: installed=%v dropped=%v, want true,false", installed, dropped)
	}
	// Re-filling the same PC is a no-op, not a drop.
	if installed, dropped := b.InstallShadow(pcs[0], 0x9999, isa.ClassJump); installed || dropped {
		t.Fatalf("refill of present entry: installed=%v dropped=%v, want false,false", installed, dropped)
	}
	if e, ok := b.Lookup(pcs[0]); !ok || e.Target != 0x1000 || !e.Shadow {
		t.Fatalf("entry after refill attempt: %+v ok=%v", e, ok)
	}

	if installed, dropped := b.InstallShadow(pcs[1], 0x2000, isa.ClassCall); !installed || dropped {
		t.Fatalf("second fill: installed=%v dropped=%v, want true,false", installed, dropped)
	}
	// Set now full of valid entries: the fill must drop, not evict.
	if installed, dropped := b.InstallShadow(pcs[2], 0x3000, isa.ClassBranch); installed || !dropped {
		t.Fatalf("fill into full set: installed=%v dropped=%v, want false,true", installed, dropped)
	}
	if _, ok := b.Lookup(pcs[2]); ok {
		t.Fatal("dropped shadow fill is somehow present")
	}
	if e, ok := b.Lookup(pcs[1]); !ok || e.Target != 0x2000 {
		t.Fatalf("resident entry disturbed by dropped fill: %+v ok=%v", e, ok)
	}
}

// TestShadowFlagReportsOnce pins ShadowHits accounting: the provenance
// flag survives exactly one Lookup, and training overwrites it.
func TestShadowFlagReportsOnce(t *testing.T) {
	b := NewBTB(4, 2)
	pc := isa.Addr(0x500)
	if installed, _ := b.InstallShadow(pc, 0x1000, isa.ClassBranch); !installed {
		t.Fatal("install failed")
	}
	if e, ok := b.Lookup(pc); !ok || !e.Shadow {
		t.Fatalf("first lookup: %+v ok=%v, want Shadow=true", e, ok)
	}
	if e, ok := b.Lookup(pc); !ok || e.Shadow {
		t.Fatalf("second lookup: %+v ok=%v, want Shadow cleared", e, ok)
	}
	// A fresh shadow fill then a training update: the flag must not survive
	// the overwrite.
	pc2 := isa.Addr(0x600)
	if installed, _ := b.InstallShadow(pc2, 0x2000, isa.ClassBranch); !installed {
		t.Fatal("install failed")
	}
	b.Update(pc2, 0x2000, isa.ClassBranch)
	if e, ok := b.Lookup(pc2); !ok || e.Shadow {
		t.Fatalf("trained entry still flagged shadow: %+v ok=%v", e, ok)
	}
}
