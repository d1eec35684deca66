package program

import (
	"errors"
	"testing"
	"testing/quick"

	"frontsim/internal/isa"
	"frontsim/internal/trace"
)

// testRegion is the data region of testProgram's memory instructions.
var testRegion = Region{Base: 0x10000000, Size: 1 << 16}

// testProgram builds a small two-function program:
//
//	main:
//	  b0: alu, alu; cond(p=0.5) -> b2
//	  b1: load; call leaf
//	  b2: alu; jump -> b0        (infinite loop)
//	leaf:
//	  b0: store; return
func testProgram() *Program {
	b := NewBuilder("test", 0x400000, 0)
	b.Func() // main
	b.Instr(isa.ClassALU, DataPattern{})
	b.Instr(isa.ClassALU, DataPattern{})
	b.End(Terminator{Kind: TermCond, Target: BlockRef{0, 2}, TakenProb: 0.5})
	b.Instr(isa.ClassLoad, DataPattern{Kind: DataRandom, Region: testRegion})
	b.End(Terminator{Kind: TermCall, Callee: 1})
	b.Instr(isa.ClassALU, DataPattern{})
	b.End(Terminator{Kind: TermJump, Target: BlockRef{0, 0}})
	b.Func() // leaf
	b.Instr(isa.ClassStore, DataPattern{Kind: DataStride, Region: testRegion, Stride: 64})
	b.End(Terminator{Kind: TermReturn})
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// refTestProgram is testProgram as a reference graph, for the tests that
// break one part of it before building.
func refTestProgram() *refProgram {
	main := &refFunc{ID: 0, Name: "main", Blocks: []*refBlock{
		{
			Body: []refInstr{{Class: isa.ClassALU}, {Class: isa.ClassALU}},
			Term: Terminator{Kind: TermCond, Target: BlockRef{0, 2}, TakenProb: 0.5},
		},
		{
			Body: []refInstr{{Class: isa.ClassLoad, Data: DataPattern{Kind: DataRandom, Region: testRegion}}},
			Term: Terminator{Kind: TermCall, Callee: 1},
		},
		{
			Body: []refInstr{{Class: isa.ClassALU}},
			Term: Terminator{Kind: TermJump, Target: BlockRef{0, 0}},
		},
	}}
	leaf := &refFunc{ID: 1, Name: "leaf", Blocks: []*refBlock{
		{
			Body: []refInstr{{Class: isa.ClassStore, Data: DataPattern{Kind: DataStride, Region: testRegion, Stride: 64}}},
			Term: Terminator{Kind: TermReturn},
		},
	}}
	p := &refProgram{Name: "test", Base: 0x400000, Funcs: []*refFunc{main, leaf}, Entry: 0}
	p.Layout()
	return p
}

// blockOf returns the block ref names in p, failing t when there is none.
func blockOf(t *testing.T, p *Program, ref BlockRef) BlockInfo {
	t.Helper()
	b, ok := p.Block(ref)
	if !ok {
		t.Fatalf("no block %v", ref)
	}
	return b
}

func TestValidateAcceptsGoodProgram(t *testing.T) {
	if err := testProgram().Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := refTestProgram().build()
	if err != nil {
		t.Fatal(err)
	}
	matchReference(t, refTestProgram(), p, 1, 4)
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*refProgram)
	}{
		{"bad entry", func(p *refProgram) { p.Entry = 9 }},
		{"bad cond target", func(p *refProgram) { p.Funcs[0].Blocks[0].Term.Target = BlockRef{5, 0} }},
		{"bad prob", func(p *refProgram) { p.Funcs[0].Blocks[0].Term.TakenProb = 1.5 }},
		{"bad callee", func(p *refProgram) { p.Funcs[0].Blocks[1].Term.Callee = 7 }},
		{"branch in body", func(p *refProgram) { p.Funcs[0].Blocks[0].Body[0].Class = isa.ClassJump }},
		{"mem without pattern", func(p *refProgram) { p.Funcs[0].Blocks[1].Body[0].Data = DataPattern{} }},
		{"cond at func end", func(p *refProgram) {
			p.Funcs[1].Blocks[0].Term = Terminator{Kind: TermCond, Target: BlockRef{1, 0}, TakenProb: 0.5}
		}},
		{"empty TermNone", func(p *refProgram) {
			p.Funcs[0].Blocks[0].Body = nil
			p.Funcs[0].Blocks[0].Term = Terminator{Kind: TermNone}
		}},
		{"indirect mismatch", func(p *refProgram) {
			p.Funcs[0].Blocks[2].Term = Terminator{Kind: TermIndirect, Targets: []BlockRef{{0, 0}}, Weights: nil}
		}},
		{"prefetch offset before its target", func(p *refProgram) {
			p.Funcs[0].Blocks[2].Body[0] = refInstr{Class: isa.ClassSwPrefetch, PrefetchTarget: BlockRef{1, 0}, PrefetchOffset: -3}
		}},
		{"prefetch offset past its target", func(p *refProgram) {
			p.Funcs[0].Blocks[2].Body[0] = refInstr{Class: isa.ClassSwPrefetch, PrefetchTarget: BlockRef{1, 0}, PrefetchOffset: 2}
		}},
	}
	for _, c := range cases {
		p := refTestProgram()
		c.mutate(p)
		if _, err := p.build(); err == nil {
			t.Errorf("%s: Build accepted a broken program", c.name)
		}
		if err := p.Validate(); err == nil {
			t.Errorf("%s: the reference accepted a broken program", c.name)
		}
	}
}

func TestLayoutAddresses(t *testing.T) {
	p := testProgram()
	if a := blockOf(t, p, BlockRef{0, 0}).Addr; a != 0x400000 {
		t.Fatalf("entry block at %v", a)
	}
	// main: b0=3 instrs, b1=2, b2=2 => 7 instrs = 28 bytes, leaf aligned to
	// 16 => 0x400000+32 = 0x400020.
	if got := blockOf(t, p, BlockRef{1, 0}).Addr; got != 0x400020 {
		t.Fatalf("leaf at %v, want 0x400020", got)
	}
	if p.NumInstrs() != 9 {
		t.Fatalf("NumInstrs = %d, want 9", p.NumInstrs())
	}
	if p.StaticBytes() != 0x400020+8-0x400000 {
		t.Fatalf("StaticBytes = %d", p.StaticBytes())
	}
}

func TestLocate(t *testing.T) {
	p := testProgram()
	for fi := 0; fi < p.numFuncs(); fi++ {
		for bi := 0; bi < int(p.funcs[fi+1]-p.funcs[fi]); bi++ {
			b := blockOf(t, p, BlockRef{FuncID(fi), bi})
			for i := 0; i < b.Instrs; i++ {
				ref, idx, ok := p.Locate(b.InstrPC(i))
				if !ok || ref != (BlockRef{FuncID(fi), bi}) || idx != i {
					t.Fatalf("Locate(%v) = %v,%d,%v; want {%d,%d},%d", b.InstrPC(i), ref, idx, ok, fi, bi, i)
				}
			}
		}
	}
	if _, _, ok := p.Locate(0x3fffff); ok {
		t.Fatal("Locate accepted address below program")
	}
	if _, _, ok := p.Locate(p.base + p.StaticBytes()); ok {
		t.Fatal("Locate accepted address past program")
	}
	// Alignment padding between main and leaf: 0x40001c is main's last
	// instruction end; 0x40001c..0x400020 is padding.
	if _, _, ok := p.Locate(0x40001c); ok {
		t.Fatal("Locate accepted padding address")
	}
	if _, _, ok := p.Locate(p.base + 1); ok {
		t.Fatal("Locate accepted misaligned address")
	}
}

func TestExecutorDeterminism(t *testing.T) {
	p := testProgram()
	a := NewExecutor(p, 42)
	b := NewExecutor(p, 42)
	for i := 0; i < 5000; i++ {
		ia, ea := a.Next()
		ib, eb := b.Next()
		if ea != nil || eb != nil {
			t.Fatalf("unexpected end at %d: %v %v", i, ea, eb)
		}
		if ia != ib {
			t.Fatalf("streams diverged at %d: %v vs %v", i, ia, ib)
		}
	}
}

func TestExecutorResetReplays(t *testing.T) {
	p := testProgram()
	e := NewExecutor(p, 7)
	first, err := trace.Collect(trace.NewLimit(e, 2000), -1)
	if err != nil {
		t.Fatal(err)
	}
	e.Reset()
	second, err := trace.Collect(trace.NewLimit(e, 2000), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestExecutorControlFlowConsistency(t *testing.T) {
	// Every instruction's PC must equal the previous instruction's NextPC:
	// the stream is a single well-formed dynamic path.
	p := testProgram()
	e := NewExecutor(p, 3)
	prev, err := e.Next()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		in, err := e.Next()
		if err != nil {
			t.Fatal(err)
		}
		if in.PC != prev.NextPC() {
			t.Fatalf("discontinuity at %d: prev %v -> %v, got %v", i, prev, prev.NextPC(), in.PC)
		}
		prev = in
	}
}

func TestExecutorEmitsAllClasses(t *testing.T) {
	p := testProgram()
	e := NewExecutor(p, 5)
	st, err := trace.Measure(trace.NewLimit(e, 10000))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []isa.Class{isa.ClassALU, isa.ClassLoad, isa.ClassStore, isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassReturn} {
		if st.ByClass[c] == 0 {
			t.Errorf("class %v never emitted", c)
		}
	}
}

func TestExecutorDataAddressesInRegion(t *testing.T) {
	p := testProgram()
	e := NewExecutor(p, 9)
	for i := 0; i < 10000; i++ {
		in, err := e.Next()
		if err != nil {
			t.Fatal(err)
		}
		if in.Class.IsMem() && !testRegion.Contains(in.DataAddr) {
			t.Fatalf("data address %v outside region", in.DataAddr)
		}
	}
}

func TestExecutorEndsOnEntryReturn(t *testing.T) {
	b := NewBuilder("tiny", 0x1000, 0)
	b.Func()
	b.Instr(isa.ClassALU, DataPattern{})
	b.End(Terminator{Kind: TermReturn})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(p, 1)
	got, err := trace.Collect(e, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("collected %d instrs, want 2", len(got))
	}
	if _, err := e.Next(); !errors.Is(err, trace.ErrEnd) {
		t.Fatalf("want trace.ErrEnd, got %v", err)
	}
}

func TestTermNoneFallsThrough(t *testing.T) {
	b := NewBuilder("ft", 0x1000, 0)
	b.Func()
	b.Instr(isa.ClassALU, DataPattern{})
	b.End(Terminator{Kind: TermNone})
	b.Instr(isa.ClassMul, DataPattern{})
	b.End(Terminator{Kind: TermReturn})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Collect(NewExecutor(p, 1), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d instrs, want 3 (no instruction for TermNone)", len(got))
	}
	if got[1].Class != isa.ClassMul || got[1].PC != got[0].PC+isa.InstrSize {
		t.Fatalf("fallthrough wrong: %v", got[1])
	}
}

// TestCloneIndependence checks that a rewritten program is independent of
// the program it was made from: inserting prefetches, which once mutated
// a deep copy, leaves the original's layout and stream as they were.
func TestCloneIndependence(t *testing.T) {
	p := testProgram()
	before, _ := trace.Collect(trace.NewLimit(NewExecutor(p, 11), 1000), -1)
	q, err := p.InsertPrefetch(BlockRef{0, 0}, 0, BlockRef{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.NumInstrs() != p.NumInstrs()+1 || p.NumInstrs() != 9 {
		t.Fatalf("NumInstrs %d and %d, want 10 and 9", q.NumInstrs(), p.NumInstrs())
	}
	if blockOf(t, p, BlockRef{1, 0}).Addr != 0x400020 || blockOf(t, p, BlockRef{0, 0}).Body != 2 {
		t.Fatal("insertion changed the original's layout")
	}
	after, _ := trace.Collect(trace.NewLimit(NewExecutor(p, 11), 1000), -1)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("original's stream changed at %d", i)
		}
	}
}

func TestInsertPrefetchShiftsAddressesAndPreservesPath(t *testing.T) {
	p := testProgram()
	before, _ := trace.Collect(trace.NewLimit(NewExecutor(p, 13), 3000), -1)

	q, err := p.InsertPrefetch(BlockRef{0, 0}, 1, BlockRef{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.NumInstrs() != p.NumInstrs()+1 {
		t.Fatalf("NumInstrs %d, want %d", q.NumInstrs(), p.NumInstrs()+1)
	}
	after, _ := trace.Collect(trace.NewLimit(NewExecutor(q, 13), 3000), -1)

	// Filter the prefetches out of the rewritten stream; the remaining
	// sequence must be the same control-flow path with shifted addresses.
	var filtered []isa.Instr
	prefetches := 0
	for _, in := range after {
		if in.Class == isa.ClassSwPrefetch {
			prefetches++
			continue
		}
		filtered = append(filtered, in)
	}
	if prefetches == 0 {
		t.Fatal("no prefetches executed")
	}
	n := len(filtered)
	if len(before) < n {
		n = len(before)
	}
	for i := 0; i < n; i++ {
		if before[i].Class != filtered[i].Class || before[i].Taken != filtered[i].Taken {
			t.Fatalf("control path diverged at %d: %v vs %v", i, before[i], filtered[i])
		}
		if before[i].Class.IsMem() && before[i].DataAddr != filtered[i].DataAddr {
			t.Fatalf("data stream diverged at %d: %v vs %v", i, before[i], filtered[i])
		}
	}
	// Blocks after the insertion point in the same function must shift by
	// one instruction slot (function alignment can absorb the shift across
	// function boundaries).
	if qa, pa := blockOf(t, q, BlockRef{0, 1}).Addr, blockOf(t, p, BlockRef{0, 1}).Addr; qa != pa+isa.InstrSize {
		t.Fatalf("insertion did not shift later blocks: %v vs %v", qa, pa)
	}
}

func TestInsertPrefetchErrors(t *testing.T) {
	p := testProgram()
	if _, err := p.InsertPrefetch(BlockRef{9, 0}, 0, BlockRef{0, 0}, 0); err == nil {
		t.Fatal("accepted bad block")
	}
	if _, err := p.InsertPrefetch(BlockRef{0, 0}, 99, BlockRef{0, 0}, 0); err == nil {
		t.Fatal("accepted bad position")
	}
	if _, err := p.InsertPrefetch(BlockRef{0, 0}, 0, BlockRef{9, 9}, 0); err == nil {
		t.Fatal("accepted bad target")
	}
}

// TestPrefetchOffsetOutsideTarget pins that a software prefetch can only
// fetch an instruction of its own target block. A negative offset once
// made the executor emit an address inside the block before the target,
// and an offset past the block's end was silently fetched as offset 0;
// both are now rejected when inserted and when built.
func TestPrefetchOffsetOutsideTarget(t *testing.T) {
	p := testProgram()
	leaf := blockOf(t, p, BlockRef{1, 0}) // 2 instructions
	for _, off := range []int{-3, -1, leaf.Instrs, leaf.Instrs + 4} {
		if q, err := p.InsertPrefetch(BlockRef{0, 1}, 0, BlockRef{1, 0}, off); err == nil {
			pc := isa.Addr(0)
			for e, i := NewExecutor(q, 1), 0; i < 100 && pc == 0; i++ {
				if in, _ := e.Next(); in.Class == isa.ClassSwPrefetch {
					pc = in.Target
				}
			}
			t.Errorf("InsertPrefetch accepted offset %d: the prefetch fetches %v, its target block spans [%v, %v)",
				off, pc, leaf.Addr, leaf.InstrPC(leaf.Instrs))
		}
		b := NewBuilder("pf", 0x1000, 0)
		b.Func()
		b.Prefetch(BlockRef{0, 1}, off)
		b.End(Terminator{Kind: TermNone})
		b.Instr(isa.ClassALU, DataPattern{})
		b.End(Terminator{Kind: TermReturn})
		if _, err := b.Build(); err == nil {
			t.Errorf("Build accepted a prefetch at offset %d of a 2-instruction block", off)
		}
	}
	// Every offset inside the block is accepted and fetched as laid out.
	for off := 0; off < leaf.Instrs; off++ {
		q, err := p.InsertPrefetch(BlockRef{0, 1}, 0, BlockRef{1, 0}, off)
		if err != nil {
			t.Fatal(err)
		}
		e := NewExecutor(q, 1)
		for {
			in, err := e.Next()
			if err != nil {
				t.Fatal(err)
			}
			if in.Class == isa.ClassSwPrefetch {
				if want := blockOf(t, q, BlockRef{1, 0}).InstrPC(off); in.Target != want {
					t.Fatalf("offset %d: prefetch of %v, want %v", off, in.Target, want)
				}
				break
			}
		}
	}
}

func TestPrefetchTargetTracksLayout(t *testing.T) {
	p := testProgram()
	// Prefetch in main targeting the leaf entry.
	q, err := p.InsertPrefetch(BlockRef{0, 1}, 0, BlockRef{1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(q, 17)
	var pfTarget isa.Addr
	for i := 0; i < 5000; i++ {
		in, err := e.Next()
		if err != nil {
			t.Fatal(err)
		}
		if in.Class == isa.ClassSwPrefetch {
			pfTarget = in.Target
			break
		}
	}
	if leaf := blockOf(t, q, BlockRef{1, 0}).Addr; pfTarget != leaf {
		t.Fatalf("prefetch target %v, want shifted leaf address %v", pfTarget, leaf)
	}
}

func TestLocateRoundTripProperty(t *testing.T) {
	p := testProgram()
	f := func(fi8, bi8, ii8 uint8) bool {
		fi := int(fi8) % p.numFuncs()
		bi := int(bi8) % int(p.funcs[fi+1]-p.funcs[fi])
		b, _ := p.Block(BlockRef{FuncID(fi), bi})
		ii := int(ii8) % b.Instrs
		ref, idx, ok := p.Locate(b.InstrPC(ii))
		return ok && ref.Func == FuncID(fi) && ref.Block == bi && idx == ii
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// callProgram builds a program whose functions each call callees[f] (-1:
// none) from their first block and return from their second.
func callProgram(callees ...FuncID) (*Program, error) {
	b := NewBuilder("calls", 0x1000, 0)
	for _, c := range callees {
		b.Func()
		b.Instr(isa.ClassALU, DataPattern{})
		if c >= 0 {
			b.End(Terminator{Kind: TermCall, Callee: c})
			b.Instr(isa.ClassALU, DataPattern{})
		}
		b.End(Terminator{Kind: TermReturn})
	}
	return b.Build()
}

func TestValidateRejectsCallCycles(t *testing.T) {
	// f0 calls f1, f1 calls f0: unbounded recursion.
	if _, err := callProgram(1, 0); err == nil {
		t.Fatal("accepted a cyclic call graph")
	}
	// Self-recursion is also rejected.
	if _, err := callProgram(0); err == nil {
		t.Fatal("accepted self-recursion")
	}
	// An acyclic chain stays valid.
	if _, err := callProgram(1, -1); err != nil {
		t.Fatal(err)
	}
}

func TestValidateIndirectCallCycle(t *testing.T) {
	// A cycle through an indirect call site is caught too.
	b := NewBuilder("icyc", 0x1000, 0)
	b.Func()
	b.Instr(isa.ClassALU, DataPattern{})
	b.End(Terminator{Kind: TermIndirectCall, Callees: []FuncID{1}, Weights: []float64{1}})
	b.Instr(isa.ClassALU, DataPattern{})
	b.End(Terminator{Kind: TermReturn})
	b.Func()
	b.Instr(isa.ClassALU, DataPattern{})
	b.End(Terminator{Kind: TermCall, Callee: 0})
	b.Instr(isa.ClassALU, DataPattern{})
	b.End(Terminator{Kind: TermReturn})
	if _, err := b.Build(); err == nil {
		t.Fatal("accepted indirect call cycle")
	}
}
