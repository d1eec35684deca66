package experiment

import (
	"testing"

	"frontsim/internal/core"
	"frontsim/internal/program"
	"frontsim/internal/stats"
	"frontsim/internal/workload"
)

// TestPaperShapesOnServerWorkloads is the reproduction's regression
// anchor: the qualitative Figure-1 relationships the paper reports must
// hold on a small server sub-suite at moderate scale. If a change to the
// simulator or the workload tuning breaks one of these orderings, the
// reproduction is no longer telling the paper's story.
func TestPaperShapesOnServerWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration suite run")
	}
	specs := []workload.Spec{}
	for _, n := range []string{"public_srv_60", "secret_srv12", "secret_srv41"} {
		s, _ := workload.Lookup(n)
		specs = append(specs, s)
	}
	p := DefaultParams()
	p.WarmupInstrs = 300_000
	p.MeasureInstrs = 800_000
	p.ProfileInstrs = 1_000_000

	ms, err := RunSuite(specs, p, nil)
	if err != nil {
		t.Fatal(err)
	}

	geo := func(f func(*Matrix) float64) float64 {
		var xs []float64
		for _, m := range ms {
			xs = append(xs, f(m))
		}
		return stats.Geomean(xs)
	}

	asmdbCons := geo(func(m *Matrix) float64 { return m.Speedup(m.AsmdbCons) })
	idealCons := geo(func(m *Matrix) float64 { return m.Speedup(m.AsmdbConsIdeal) })
	fdp := geo(func(m *Matrix) float64 { return m.Speedup(m.FDP) })
	asmdbFDP := geo(func(m *Matrix) float64 { return m.Speedup(m.AsmdbFDP) })
	idealFDP := geo(func(m *Matrix) float64 { return m.Speedup(m.AsmdbFDPIdeal) })

	// Shape 1: AsmDB helps the conservative front-end.
	if asmdbCons < 1.02 {
		t.Errorf("AsmDB on conservative gives %.3f, want clearly > 1", asmdbCons)
	}
	// Shape 2: removing insertion overhead helps more.
	if idealCons <= asmdbCons {
		t.Errorf("ideal AsmDB (%.3f) should beat inserted AsmDB (%.3f) on conservative", idealCons, asmdbCons)
	}
	// Shape 3: the aggressive FDP front-end alone beats AsmDB-on-conservative.
	if fdp <= asmdbCons+0.05 {
		t.Errorf("FDP (%.3f) should dominate AsmDB on conservative (%.3f)", fdp, asmdbCons)
	}
	// Shape 4 (the headline): AsmDB adds nothing on the aggressive
	// front-end — within a few percent of FDP alone, not a clear win.
	if asmdbFDP > fdp*1.05 {
		t.Errorf("AsmDB+FDP (%.3f) should not clearly beat FDP (%.3f)", asmdbFDP, fdp)
	}
	// Shape 5: the insertion overhead is the mechanism — waiving it
	// restores a gain over FDP and over the inserted variant.
	if idealFDP <= asmdbFDP {
		t.Errorf("ideal AsmDB+FDP (%.3f) should beat inserted AsmDB+FDP (%.3f)", idealFDP, asmdbFDP)
	}
	if idealFDP <= fdp {
		t.Errorf("ideal AsmDB+FDP (%.3f) should exceed FDP alone (%.3f)", idealFDP, fdp)
	}

	// Shape 6 (A8, EXPERIMENTS.md): EIP's record/replay is the strongest
	// mechanism on FDP and MANA's spatial regions a clear gain over FDP;
	// shadow-branch decoding fills the BTB, not the cache, so it cannot
	// beat FDP alone, and the I-TLB is a cost model.
	eip := geo(func(m *Matrix) float64 { return m.Speedup(m.EIPFDP) })
	mana := geo(func(m *Matrix) float64 { return m.Speedup(m.MANAFDP) })
	shadow := geo(func(m *Matrix) float64 { return m.Speedup(m.ShadowFDP) })
	itlb := geo(func(m *Matrix) float64 { return m.Speedup(m.ITLBFDP) })
	if eip < mana {
		t.Errorf("EIP+FDP (%.3f) should be at least MANA+FDP (%.3f)", eip, mana)
	}
	if mana <= fdp {
		t.Errorf("MANA+FDP (%.3f) should beat FDP alone (%.3f)", mana, fdp)
	}
	if shadow > fdp {
		t.Errorf("shadow+FDP (%.3f) should not beat FDP alone (%.3f)", shadow, fdp)
	}
	if itlb > fdp {
		t.Errorf("I-TLB+FDP (%.3f) should not beat FDP alone (%.3f)", itlb, fdp)
	}

	// Scenario-statistics shapes (Figs 8-11 directions).
	for _, m := range ms {
		if m.FDP.FTQ.AvgHeadFetch() <= m.FDP.FTQ.AvgNonHeadFetch() {
			t.Errorf("%s: head fetch latency should exceed non-head", m.Spec.Name)
		}
		// Fewer Scenario-3 partials at depth 24 than depth 2 (both
		// normalized per instruction).
		p2 := float64(m.Cons.FTQ.PartialEntries) / float64(m.Cons.Instructions)
		p24 := float64(m.FDP.FTQ.PartialEntries) / float64(m.FDP.Instructions)
		if p24 >= p2 {
			t.Errorf("%s: partials/instr at 24 (%.5f) should be below 2-entry (%.5f)", m.Spec.Name, p24, p2)
		}
		// FTQ merging cuts L1-I accesses at depth 24.
		a2 := float64(m.Cons.L1I.Accesses) / float64(m.Cons.Instructions)
		a24 := float64(m.FDP.L1I.Accesses) / float64(m.FDP.Instructions)
		if a24 >= a2 {
			t.Errorf("%s: L1-I accesses/instr at 24 (%.4f) should be below 2-entry (%.4f)", m.Spec.Name, a24, a2)
		}
		// AsmDB raises waiting entries over the matching baseline (the
		// paper's Scenario-2 interference argument) on the deep FTQ.
		w := float64(m.FDP.FTQ.WaitingEntryCycles) / float64(m.FDP.Instructions)
		wa := float64(m.AsmdbFDP.FTQ.WaitingEntryCycles) / float64(m.AsmdbFDP.Instructions)
		if wa <= w*0.95 {
			t.Errorf("%s: AsmDB should not reduce waiting entry-cycles markedly (%.4f vs %.4f)", m.Spec.Name, wa, w)
		}
	}
}

// TestMPKIBandsPerCategory pins the workload calibration: each category's
// L1-I MPKI on the 24-entry baseline stays in its designed band.
func TestMPKIBandsPerCategory(t *testing.T) {
	if testing.Short() {
		t.Skip("several baseline runs")
	}
	cases := []struct {
		name   string
		lo, hi float64
	}{
		{"secret_crypto52", 0, 4},
		{"secret_crypto80", 0, 4},
		{"secret_int_44", 2, 16},
		{"secret_int_124", 2, 16},
		{"secret_srv12", 6, 45},
		{"public_srv_60", 6, 45},
	}
	p := DefaultParams()
	for _, c := range cases {
		spec, _ := workload.Lookup(c.name)
		prog, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.WarmupInstrs, cfg.MaxInstrs = 200_000, 500_000
		st, err := core.RunSource(cfg, program.NewExecutor(prog, spec.Seed^p.ExecSeedSalt))
		if err != nil {
			t.Fatal(err)
		}
		mpki := st.L1IMPKI()
		if mpki < c.lo || mpki > c.hi {
			t.Errorf("%s MPKI %.1f outside [%v,%v]", c.name, mpki, c.lo, c.hi)
		}
	}
}
