package cfg

import (
	"testing"

	"frontsim/internal/isa"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// loopStream emits reps iterations of: blockA (4 instrs ending in a taken
// branch) -> blockB (2 instrs ending in a taken branch back to A).
func loopStream(reps int) []isa.Instr {
	var out []isa.Instr
	for r := 0; r < reps; r++ {
		out = append(out,
			isa.Instr{PC: 0x1000, Class: isa.ClassALU},
			isa.Instr{PC: 0x1004, Class: isa.ClassALU},
			isa.Instr{PC: 0x1008, Class: isa.ClassALU},
			isa.Instr{PC: 0x100c, Class: isa.ClassBranch, Taken: true, Target: 0x2000},
			isa.Instr{PC: 0x2000, Class: isa.ClassALU},
			isa.Instr{PC: 0x2004, Class: isa.ClassBranch, Taken: true, Target: 0x1000},
		)
	}
	return out
}

func TestProfileBuildsNodesAndEdges(t *testing.T) {
	g, err := Profile(trace.NewSlice(loopStream(100)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2", len(g.Nodes))
	}
	a, b := g.Node(0x1000), g.Node(0x2000)
	if a == nil || b == nil {
		t.Fatal("missing nodes")
	}
	if a.Execs != 100 || b.Execs != 100 {
		t.Fatalf("execs %d/%d", a.Execs, b.Execs)
	}
	if a.Instrs != 4 || b.Instrs != 2 {
		t.Fatalf("instr lengths %d/%d", a.Instrs, b.Instrs)
	}
	if a.Succs[0x2000] != 100 || b.Succs[0x1000] != 99 {
		t.Fatalf("edges %v %v", a.Succs, b.Succs)
	}
	if g.Instructions != 600 {
		t.Fatalf("instructions %d", g.Instructions)
	}
	if p := g.EdgeProb(0x1000, 0x2000); p != 1.0 {
		t.Fatalf("edge prob %v", p)
	}
}

func TestProfileMissAttribution(t *testing.T) {
	// Both blocks fit the cache: exactly one cold miss each.
	g, err := Profile(trace.NewSlice(loopStream(50)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalMisses != 2 {
		t.Fatalf("misses = %d, want 2 cold misses", g.TotalMisses)
	}
	if g.Node(0x1000).Misses != 1 || g.Node(0x2000).Misses != 1 {
		t.Fatal("misses not attributed per block")
	}
}

func TestProfileRespectsMaxInstrs(t *testing.T) {
	g, err := Profile(trace.NewLimit(trace.NewSlice(loopStream(100)), 60), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Instructions != 60 {
		t.Fatalf("instructions %d", g.Instructions)
	}
}

func TestProfileSplitsLongRuns(t *testing.T) {
	var instrs []isa.Instr
	pc := isa.Addr(0x400000)
	for i := 0; i < 20; i++ {
		instrs = append(instrs, isa.Instr{PC: pc, Class: isa.ClassALU})
		pc += isa.InstrSize
	}
	g, err := Profile(trace.NewSlice(instrs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 8 + 8 + 4.
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(g.Nodes))
	}
	if g.Node(0x400000).Instrs != 8 {
		t.Fatal("first block not capped at 8")
	}
}

func TestRankedByMissesOrdering(t *testing.T) {
	s, _ := workload.Lookup("secret_srv12")
	src, err := s.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Profile(trace.NewLimit(src, 300_000), Options{IPC: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ranked := g.RankedByMisses()
	if len(ranked) == 0 {
		t.Fatal("no miss targets on a server workload")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Misses > ranked[i-1].Misses {
			t.Fatalf("ranking not descending at %d", i)
		}
	}
	if g.IPC != 0.5 {
		t.Fatalf("IPC not recorded: %v", g.IPC)
	}
	if g.MPKI() <= 0 {
		t.Fatal("MPKI should be positive")
	}
}

func TestGraphMPKIEmpty(t *testing.T) {
	g := &Graph{Nodes: map[isa.Addr]*Node{}}
	if g.MPKI() != 0 {
		t.Fatal("empty MPKI")
	}
	if g.EdgeProb(1, 2) != 0 {
		t.Fatal("missing edge prob should be 0")
	}
}
