package asmdb

import (
	"bytes"
	"strings"
	"testing"

	"frontsim/internal/cfg"
	"frontsim/internal/isa"
	"frontsim/internal/program"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// chainGraph builds a profiled CFG by hand: a linear chain of blocks
// a -> b -> c -> d where d is the miss target.
//
// Each block executes 100 times; block instruction lengths are chosen so
// distance thresholds can be exercised precisely.
func chainGraph(instrs ...int) *cfg.Graph {
	g := &cfg.Graph{Nodes: map[isa.Addr]*cfg.Node{}, Instructions: 10000, IPC: 1}
	var pcs []isa.Addr
	pc := isa.Addr(0x1000)
	for _, n := range instrs {
		node := &cfg.Node{PC: pc, Instrs: n, Execs: 100,
			Succs: map[isa.Addr]int64{}, Preds: map[isa.Addr]int64{}}
		g.Nodes[pc] = node
		pcs = append(pcs, pc)
		pc += isa.Addr(n * isa.InstrSize)
	}
	for i := 0; i+1 < len(pcs); i++ {
		g.Nodes[pcs[i]].Succs[pcs[i+1]] = 100
		g.Nodes[pcs[i+1]].Preds[pcs[i]] = 100
	}
	last := g.Nodes[pcs[len(pcs)-1]]
	last.Misses = 50
	g.TotalMisses = 50
	return g
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Options){
		func(o *Options) { o.LLCLatency = 0 },
		func(o *Options) { o.Window = 0 },
		func(o *Options) { o.FanoutThreshold = 0 },
		func(o *Options) { o.FanoutThreshold = 1.5 },
		func(o *Options) { o.MaxSitesPerTarget = 0 },
		func(o *Options) { o.MaxTargets = 0 },
		func(o *Options) { o.CoverageGoal = 0 },
	}
	for i, m := range muts {
		o := DefaultOptions()
		m(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestBuildRespectsMinDistance(t *testing.T) {
	// Chain of four 8-instr blocks; IPC=1, LLCLatency=10 => minDist 10.
	// The immediate predecessor (8 instrs away) is too close; the one
	// before it (16) and the first (24) are eligible.
	g := chainGraph(8, 8, 8, 8)
	opts := DefaultOptions()
	opts.LLCLatency = 10
	opts.Window = 100
	opts.MaxSitesPerTarget = 10
	plan, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Insertions) != 2 {
		t.Fatalf("insertions = %d, want 2: %+v", len(plan.Insertions), plan.Insertions)
	}
	for _, ins := range plan.Insertions {
		if ins.Distance < plan.MinDistance {
			t.Fatalf("insertion below min distance: %+v", ins)
		}
		if ins.Site == 0x1000+2*32 {
			t.Fatalf("too-close site selected: %+v", ins)
		}
	}
	if plan.TargetsCovered != 1 || plan.MissesCovered != 50 {
		t.Fatalf("coverage accounting %+v", plan)
	}
	if plan.Coverage() != 1.0 {
		t.Fatalf("coverage %v", plan.Coverage())
	}
}

func TestBuildRespectsWindow(t *testing.T) {
	g := chainGraph(8, 8, 8, 8)
	opts := DefaultOptions()
	opts.LLCLatency = 10
	opts.Window = 17 // only the 16-instr-away site fits
	opts.MaxSitesPerTarget = 10
	plan, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Insertions) != 1 || plan.Insertions[0].Distance != 16 {
		t.Fatalf("insertions %+v", plan.Insertions)
	}
}

func TestBuildFurthestFirstSiteSelection(t *testing.T) {
	g := chainGraph(8, 8, 8, 8)
	opts := DefaultOptions()
	opts.LLCLatency = 10
	opts.Window = 100
	opts.MaxSitesPerTarget = 1
	plan, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Insertions) != 1 {
		t.Fatalf("insertions %+v", plan.Insertions)
	}
	if plan.Insertions[0].Distance != 24 {
		t.Fatalf("selected distance %d, want furthest 24", plan.Insertions[0].Distance)
	}
}

func TestBuildFanoutThresholdPrunes(t *testing.T) {
	// Diamond: a -> b (30%) and a -> c (70%), both -> d (miss). From d,
	// path probabilities backward are P(b->d)=1, P(a via b) includes edge
	// a->b = 0.3.
	g := &cfg.Graph{Nodes: map[isa.Addr]*cfg.Node{}, Instructions: 1000, IPC: 1, TotalMisses: 10}
	mk := func(pc isa.Addr, instrs int, execs int64) *cfg.Node {
		n := &cfg.Node{PC: pc, Instrs: instrs, Execs: execs,
			Succs: map[isa.Addr]int64{}, Preds: map[isa.Addr]int64{}}
		g.Nodes[pc] = n
		return n
	}
	a := mk(0x1000, 20, 100)
	b := mk(0x2000, 20, 30)
	c := mk(0x3000, 20, 70)
	d := mk(0x4000, 4, 100)
	d.Misses = 10
	link := func(from, to *cfg.Node, count int64) {
		from.Succs[to.PC] = count
		to.Preds[from.PC] = count
	}
	link(a, b, 30)
	link(a, c, 70)
	link(b, d, 30)
	link(c, d, 70)

	opts := DefaultOptions()
	opts.LLCLatency = 5
	opts.Window = 100
	opts.MaxSitesPerTarget = 10
	opts.FanoutThreshold = 0.5
	plan, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Eligible sites: c (prob 1 along its edge? no - P(c->d)=1) and b
	// (P(b->d)=1); a reachable via c with prob 0.7 and via b with 0.3.
	// With threshold 0.5 the a-via-b path is pruned but a-via-c passes.
	sites := map[isa.Addr]float64{}
	for _, ins := range plan.Insertions {
		sites[ins.Site] = ins.Prob
	}
	if _, ok := sites[b.PC]; !ok {
		t.Fatal("b missing")
	}
	if _, ok := sites[c.PC]; !ok {
		t.Fatal("c missing")
	}
	if p, ok := sites[a.PC]; !ok || p < 0.69 || p > 0.71 {
		t.Fatalf("a prob %v ok=%v, want ~0.7", p, ok)
	}

	opts.FanoutThreshold = 0.8
	plan, err = Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range plan.Insertions {
		if ins.Site == a.PC {
			t.Fatal("a should be pruned at threshold 0.8")
		}
	}
}

func TestBuildCoverageGoalStops(t *testing.T) {
	// Two independent chains; the first target carries 90% of misses.
	g := chainGraph(8, 8, 8, 8)
	// Add a second, smaller-miss chain far away.
	pc := isa.Addr(0x9000)
	var prev *cfg.Node
	for i := 0; i < 4; i++ {
		n := &cfg.Node{PC: pc, Instrs: 8, Execs: 100,
			Succs: map[isa.Addr]int64{}, Preds: map[isa.Addr]int64{}}
		g.Nodes[pc] = n
		if prev != nil {
			prev.Succs[pc] = 100
			n.Preds[prev.PC] = 100
		}
		prev = n
		pc += 32
	}
	prev.Misses = 5
	g.TotalMisses = 55

	opts := DefaultOptions()
	opts.LLCLatency = 10
	opts.Window = 100
	opts.CoverageGoal = 0.80 // 50/55 = 0.91 > goal after the first target
	plan, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TargetsCovered != 1 {
		t.Fatalf("targets covered %d, want 1 (goal reached)", plan.TargetsCovered)
	}
}

func TestBuildRejectsBadDistanceConfig(t *testing.T) {
	g := chainGraph(8, 8)
	opts := DefaultOptions()
	g.IPC = 100 // minDist = 100*40 = 4000 >= window
	if _, err := Build(g, opts); err == nil {
		t.Fatal("accepted min distance >= window")
	}
}

func buildWorkloadPlan(t *testing.T, name string) (*program.Program, *cfg.Graph, *Plan) {
	t.Helper()
	s, _ := workload.Lookup(name)
	prog, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	src := program.NewExecutor(prog, 1)
	g, err := cfg.Profile(trace.NewLimit(src, 400_000), cfg.Options{IPC: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return prog, g, plan
}

func TestApplyInsertsAndShifts(t *testing.T) {
	prog, _, plan := buildWorkloadPlan(t, "secret_srv12")
	if len(plan.Insertions) == 0 {
		t.Fatal("empty plan on a server workload")
	}
	rw, applied, err := Apply(prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("nothing applied")
	}
	if rw.NumInstrs() != prog.NumInstrs()+applied {
		t.Fatalf("instr count %d, want %d", rw.NumInstrs(), prog.NumInstrs()+applied)
	}
	if rw.StaticBytes() <= prog.StaticBytes() {
		t.Fatal("no static growth")
	}
	// The original program is untouched.
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// Static bloat in the paper's 0-8% band for default tuning.
	bloat := plan.StaticBloat(prog)
	if bloat <= 0 || bloat > 0.15 {
		t.Fatalf("static bloat %v out of range", bloat)
	}
}

func TestApplyPreservesControlFlow(t *testing.T) {
	prog, _, plan := buildWorkloadPlan(t, "secret_int_44")
	rw, _, err := Apply(prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	orig, _ := trace.Collect(trace.NewLimit(program.NewExecutor(prog, 7), n), -1)
	var rewritten []isa.Instr
	src := program.NewExecutor(rw, 7)
	for len(rewritten) < len(orig) {
		in, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if in.Class == isa.ClassSwPrefetch {
			continue
		}
		rewritten = append(rewritten, in)
	}
	for i := range orig {
		if orig[i].Class != rewritten[i].Class || orig[i].Taken != rewritten[i].Taken {
			t.Fatalf("control flow diverged at %d: %v vs %v", i, orig[i], rewritten[i])
		}
	}
}

func TestTriggersResolveAllSites(t *testing.T) {
	prog, _, plan := buildWorkloadPlan(t, "secret_srv12")
	trig := Triggers(prog, plan)
	if len(trig) == 0 {
		t.Fatal("no triggers")
	}
	total := 0
	for site, targets := range trig {
		if _, _, ok := prog.Locate(site); !ok {
			t.Fatalf("trigger site %v not in program", site)
		}
		total += len(targets)
	}
	if total != len(plan.Insertions) {
		t.Fatalf("trigger targets %d != insertions %d", total, len(plan.Insertions))
	}
}

func TestPlanDeterministic(t *testing.T) {
	_, _, a := buildWorkloadPlan(t, "secret_srv12")
	_, _, b := buildWorkloadPlan(t, "secret_srv12")
	if len(a.Insertions) != len(b.Insertions) {
		t.Fatalf("plan sizes differ: %d vs %d", len(a.Insertions), len(b.Insertions))
	}
	for i := range a.Insertions {
		if a.Insertions[i] != b.Insertions[i] {
			t.Fatalf("plans diverge at %d", i)
		}
	}
}

func TestDedupAcrossTargets(t *testing.T) {
	_, _, plan := buildWorkloadPlan(t, "secret_srv12")
	seen := map[[2]isa.Addr]bool{}
	for _, ins := range plan.Insertions {
		key := [2]isa.Addr{ins.Site, ins.Target.Line()}
		if seen[key] {
			t.Fatalf("duplicate (site,target-line): %+v", ins)
		}
		seen[key] = true
	}
}

func TestStaticBloatEmptyProgram(t *testing.T) {
	p := &Plan{}
	if p.StaticBloat(&program.Program{}) != 0 {
		t.Fatal("empty program bloat should be 0")
	}
	if p.Coverage() != 0 {
		t.Fatal("empty coverage should be 0")
	}
}

func TestPlanSerializationRoundTrip(t *testing.T) {
	_, _, plan := buildWorkloadPlan(t, "secret_crypto52")
	var buf bytes.Buffer
	if err := plan.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MinDistance != plan.MinDistance || got.TotalMisses != plan.TotalMisses ||
		got.TargetsCovered != plan.TargetsCovered || got.MissesCovered != plan.MissesCovered {
		t.Fatalf("header mismatch: %+v vs %+v", got, plan)
	}
	if len(got.Insertions) != len(plan.Insertions) {
		t.Fatalf("insertion count %d vs %d", len(got.Insertions), len(plan.Insertions))
	}
	for i := range plan.Insertions {
		if got.Insertions[i] != plan.Insertions[i] {
			t.Fatalf("insertion %d: %+v vs %+v", i, got.Insertions[i], plan.Insertions[i])
		}
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	if _, err := ReadPlan(strings.NewReader("not json")); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := ReadPlan(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("accepted unknown version")
	}
	if _, err := ReadPlan(strings.NewReader(`{"version":1,"insertions":[{"site":"zzz","target":"0x1"}]}`)); err == nil {
		t.Fatal("accepted bad address")
	}
}

// TestBuildAllocsPerPlan bounds Build's allocations on a server workload:
// the backward walk reuses one state across every ranked target, so a plan
// allocates for its own growth (the ranking, the dedup set, the insertion
// list), not once or more per target it walks from.
func TestBuildAllocsPerPlan(t *testing.T) {
	_, g, plan := buildWorkloadPlan(t, "secret_srv12")
	ranked := len(g.RankedByMisses())
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(g, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d targets ranked, %d insertions: %.0f allocations per Build", ranked, len(plan.Insertions), allocs)
	if limit := float64(ranked) / 8; allocs > limit {
		t.Fatalf("Build made %.0f allocations for %d ranked targets, want at most %.0f", allocs, ranked, limit)
	}
}
