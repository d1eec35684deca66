package program

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"frontsim/internal/isa"
	"frontsim/internal/trace"
	"frontsim/internal/xrand"
)

// refProgram is the program as it stood before the flat layout: a graph
// of functions, heap blocks and per-instruction records, laid out in
// place and mutated by prefetch insertion, with an executor that keeps
// state for every static instruction. It has one change from that code:
// a software prefetch's offset must lie inside its target block, as in
// Validate. FuzzProgramMatchesReference holds Program and Executor to it.
type refProgram struct {
	Name  string
	Base  isa.Addr
	Funcs []*refFunc
	Entry FuncID

	totalInstrs int
	sorted      []*refBlock // all blocks in address order, for Locate
	laidOut     bool
}

// refFunc is an ordered list of blocks.
type refFunc struct {
	ID     FuncID
	Name   string
	Blocks []*refBlock
}

// refBlock is a run of body instructions plus a terminator.
type refBlock struct {
	Body []refInstr
	Term Terminator

	Addr        isa.Addr
	globalIndex int
}

// refInstr is one static body instruction.
type refInstr struct {
	Class          isa.Class
	Data           DataPattern
	PrefetchTarget BlockRef
	PrefetchOffset int
}

func refTermInstrs(t *Terminator) int {
	if t.Kind == TermNone {
		return 0
	}
	return 1
}

func (b *refBlock) NumInstrs() int         { return len(b.Body) + refTermInstrs(&b.Term) }
func (b *refBlock) Size() isa.Addr         { return isa.Addr(b.NumInstrs() * isa.InstrSize) }
func (b *refBlock) InstrPC(i int) isa.Addr { return b.Addr + isa.Addr(i*isa.InstrSize) }
func (p *refProgram) EntryBlock() BlockRef { return BlockRef{Func: p.Entry, Block: 0} }
func (p *refProgram) NumInstrs() int       { return p.totalInstrs }
func (p *refProgram) Block(ref BlockRef) *refBlock {
	if int(ref.Func) < 0 || int(ref.Func) >= len(p.Funcs) {
		return nil
	}
	f := p.Funcs[ref.Func]
	if ref.Block < 0 || ref.Block >= len(f.Blocks) {
		return nil
	}
	return f.Blocks[ref.Block]
}

func (p *refProgram) StaticBytes() isa.Addr {
	if len(p.sorted) == 0 {
		return 0
	}
	last := p.sorted[len(p.sorted)-1]
	return last.Addr + last.Size() - p.Base
}

func (p *refProgram) Layout() {
	addr := p.Base
	global := 0
	p.sorted = p.sorted[:0]
	for _, f := range p.Funcs {
		if rem := uint64(addr) % FuncAlign; rem != 0 {
			addr += isa.Addr(FuncAlign - rem)
		}
		for _, b := range f.Blocks {
			b.Addr = addr
			b.globalIndex = global
			addr += b.Size()
			global += b.NumInstrs()
			p.sorted = append(p.sorted, b)
		}
	}
	p.totalInstrs = global
	p.laidOut = true
}

func (p *refProgram) Locate(a isa.Addr) (ref BlockRef, instr int, ok bool) {
	i := sort.Search(len(p.sorted), func(i int) bool {
		b := p.sorted[i]
		return b.Addr+b.Size() > a
	})
	if i >= len(p.sorted) {
		return BlockRef{}, 0, false
	}
	b := p.sorted[i]
	if a < b.Addr || (a-b.Addr)%isa.InstrSize != 0 {
		return BlockRef{}, 0, false
	}
	ref, ok = p.refOf(b)
	if !ok {
		return BlockRef{}, 0, false
	}
	return ref, int((a - b.Addr) / isa.InstrSize), true
}

func (p *refProgram) refOf(target *refBlock) (BlockRef, bool) {
	fi := sort.Search(len(p.Funcs), func(i int) bool {
		f := p.Funcs[i]
		last := f.Blocks[len(f.Blocks)-1]
		return last.Addr+last.Size() > target.Addr
	})
	if fi >= len(p.Funcs) {
		return BlockRef{}, false
	}
	f := p.Funcs[fi]
	bi := sort.Search(len(f.Blocks), func(i int) bool {
		b := f.Blocks[i]
		return b.Addr+b.Size() > target.Addr
	})
	if bi >= len(f.Blocks) || f.Blocks[bi] != target {
		return BlockRef{}, false
	}
	return BlockRef{Func: f.ID, Block: bi}, true
}

func (p *refProgram) Clone() *refProgram {
	q := &refProgram{Name: p.Name, Base: p.Base, Entry: p.Entry}
	q.Funcs = make([]*refFunc, len(p.Funcs))
	for i, f := range p.Funcs {
		nf := &refFunc{ID: f.ID, Name: f.Name, Blocks: make([]*refBlock, len(f.Blocks))}
		for j, b := range f.Blocks {
			nb := &refBlock{
				Body: append([]refInstr(nil), b.Body...),
				Term: b.Term,
			}
			nb.Term.Targets = append([]BlockRef(nil), b.Term.Targets...)
			nb.Term.Callees = append([]FuncID(nil), b.Term.Callees...)
			nb.Term.Weights = append([]float64(nil), b.Term.Weights...)
			nf.Blocks[j] = nb
		}
		q.Funcs[i] = nf
	}
	q.Layout()
	return q
}

func (p *refProgram) InsertPrefetch(ref BlockRef, pos int, target BlockRef, targetOff int) error {
	if err := p.InsertPrefetchDeferred(ref, pos, target, targetOff); err != nil {
		return err
	}
	p.Layout()
	return nil
}

func (p *refProgram) InsertPrefetchDeferred(ref BlockRef, pos int, target BlockRef, targetOff int) error {
	b := p.Block(ref)
	if b == nil {
		return fmt.Errorf("program: no block %v", ref)
	}
	if pos < 0 || pos > len(b.Body) {
		return fmt.Errorf("program: insert position %d out of range [0,%d]", pos, len(b.Body))
	}
	tb := p.Block(target)
	if tb == nil {
		return fmt.Errorf("program: no prefetch target block %v", target)
	}
	if targetOff < 0 || targetOff >= tb.NumInstrs() {
		return fmt.Errorf("program: prefetch offset %d out of range [0,%d)", targetOff, tb.NumInstrs())
	}
	in := refInstr{
		Class:          isa.ClassSwPrefetch,
		PrefetchTarget: target,
		PrefetchOffset: targetOff,
	}
	b.Body = append(b.Body, refInstr{})
	copy(b.Body[pos+1:], b.Body[pos:])
	b.Body[pos] = in
	p.laidOut = false
	return nil
}

func (p *refProgram) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("program %q: no functions", p.Name)
	}
	if int(p.Entry) < 0 || int(p.Entry) >= len(p.Funcs) {
		return fmt.Errorf("program %q: entry %d out of range", p.Name, p.Entry)
	}
	callGraph := make([][]int, len(p.Funcs))
	for fi, f := range p.Funcs {
		if f.ID != FuncID(fi) {
			return fmt.Errorf("func %d: ID %d mismatches position", fi, f.ID)
		}
		if len(f.Blocks) == 0 {
			return fmt.Errorf("func %d: no blocks", fi)
		}
		for bi, b := range f.Blocks {
			needsFallthrough := false
			switch b.Term.Kind {
			case TermNone:
				if len(b.Body) == 0 {
					return fmt.Errorf("func %d block %d: empty block with no terminator", fi, bi)
				}
				needsFallthrough = true
			case TermCond:
				if b.Term.TakenProb < 0 || b.Term.TakenProb > 1 {
					return fmt.Errorf("func %d block %d: TakenProb %v", fi, bi, b.Term.TakenProb)
				}
				if p.Block(b.Term.Target) == nil {
					return fmt.Errorf("func %d block %d: bad cond target %v", fi, bi, b.Term.Target)
				}
				needsFallthrough = true
			case TermJump:
				if p.Block(b.Term.Target) == nil {
					return fmt.Errorf("func %d block %d: bad jump target %v", fi, bi, b.Term.Target)
				}
			case TermCall:
				if int(b.Term.Callee) < 0 || int(b.Term.Callee) >= len(p.Funcs) {
					return fmt.Errorf("func %d block %d: bad callee %d", fi, bi, b.Term.Callee)
				}
				needsFallthrough = true
			case TermReturn:
			case TermIndirect:
				if len(b.Term.Targets) == 0 || len(b.Term.Targets) != len(b.Term.Weights) {
					return fmt.Errorf("func %d block %d: indirect targets/weights mismatch", fi, bi)
				}
				for _, t := range b.Term.Targets {
					if p.Block(t) == nil {
						return fmt.Errorf("func %d block %d: bad indirect target %v", fi, bi, t)
					}
				}
			case TermIndirectCall:
				if len(b.Term.Callees) == 0 || len(b.Term.Callees) != len(b.Term.Weights) {
					return fmt.Errorf("func %d block %d: indirect callees/weights mismatch", fi, bi)
				}
				for _, c := range b.Term.Callees {
					if int(c) < 0 || int(c) >= len(p.Funcs) {
						return fmt.Errorf("func %d block %d: bad indirect callee %d", fi, bi, c)
					}
				}
				needsFallthrough = true
			default:
				return fmt.Errorf("func %d block %d: unknown terminator kind %d", fi, bi, b.Term.Kind)
			}
			if needsFallthrough && bi+1 >= len(f.Blocks) {
				return fmt.Errorf("func %d block %d: terminator kind %d requires a fall-through block", fi, bi, b.Term.Kind)
			}
			switch b.Term.Kind {
			case TermCall:
				callGraph[fi] = append(callGraph[fi], int(b.Term.Callee))
			case TermIndirectCall:
				for _, c := range b.Term.Callees {
					callGraph[fi] = append(callGraph[fi], int(c))
				}
			}
			for ii, in := range b.Body {
				if in.Class.IsBranch() {
					return fmt.Errorf("func %d block %d instr %d: branch class %v in body", fi, bi, ii, in.Class)
				}
				if in.Class == isa.ClassSwPrefetch {
					tb := p.Block(in.PrefetchTarget)
					if tb == nil {
						return fmt.Errorf("func %d block %d instr %d: bad prefetch target %v", fi, bi, ii, in.PrefetchTarget)
					}
					if in.PrefetchOffset < 0 || in.PrefetchOffset >= tb.NumInstrs() {
						return fmt.Errorf("func %d block %d instr %d: prefetch offset %d outside its target", fi, bi, ii, in.PrefetchOffset)
					}
				}
				if in.Class.IsMem() && in.Data.Kind == DataNone {
					return fmt.Errorf("func %d block %d instr %d: memory instruction without data pattern", fi, bi, ii)
				}
			}
		}
	}
	if cyc := findCallCycle(callGraph); cyc >= 0 {
		return fmt.Errorf("program %q: call graph cycle through func %d", p.Name, cyc)
	}
	return nil
}

// build constructs the same program through a Builder.
func (p *refProgram) build() (*Program, error) {
	b := NewBuilder(p.Name, p.Base, p.Entry)
	for _, f := range p.Funcs {
		b.Func()
		for _, blk := range f.Blocks {
			for _, in := range blk.Body {
				if in.Class == isa.ClassSwPrefetch {
					b.Prefetch(in.PrefetchTarget, in.PrefetchOffset)
				} else {
					b.Instr(in.Class, in.Data)
				}
			}
			b.End(blk.Term)
		}
	}
	return b.Build()
}

// refExecutor walks a refProgram, keeping stride pointers and sticky
// branch state for every static instruction.
type refExecutor struct {
	prog *refProgram
	seed uint64

	ctrl *xrand.Rand
	data *xrand.Rand

	cur      BlockRef
	blk      *refBlock
	idx      int
	stack    []BlockRef
	ptrs     []isa.Addr
	condLast []uint8
	indLast  []int32
	done     bool
}

func newRefExecutor(prog *refProgram, seed uint64) *refExecutor {
	if !prog.laidOut {
		prog.Layout()
	}
	e := &refExecutor{prog: prog, seed: seed}
	e.Reset()
	return e
}

func (e *refExecutor) Reset() {
	root := xrand.New(e.seed)
	e.ctrl = root.Fork()
	e.data = root.Fork()
	e.cur = e.prog.EntryBlock()
	e.blk = e.prog.Block(e.cur)
	e.idx = 0
	e.stack = e.stack[:0]
	e.ptrs = make([]isa.Addr, e.prog.totalInstrs)
	e.condLast = make([]uint8, e.prog.totalInstrs)
	e.indLast = make([]int32, e.prog.totalInstrs)
	for i := range e.indLast {
		e.indLast[i] = -1
	}
	e.done = false
}

func (e *refExecutor) Next() (isa.Instr, error) {
	for {
		if e.done {
			return isa.Instr{}, trace.ErrEnd
		}
		b := e.blk
		if e.idx < len(b.Body) {
			var in isa.Instr
			e.emitBodyInto(b, &in)
			e.idx++
			return in, nil
		}
		if b.Term.Kind == TermNone {
			e.advanceFallthrough()
			continue
		}
		var in isa.Instr
		e.emitTerminatorInto(b, &in)
		return in, nil
	}
}

func (e *refExecutor) emitBodyInto(b *refBlock, in *isa.Instr) {
	si := &b.Body[e.idx]
	*in = isa.Instr{PC: b.InstrPC(e.idx), Class: si.Class}
	switch {
	case si.Class.IsMem():
		in.DataAddr = e.dataAddr(b.globalIndex+e.idx, si)
	case si.Class == isa.ClassSwPrefetch:
		tb := e.prog.Block(si.PrefetchTarget)
		off := si.PrefetchOffset
		if off >= tb.NumInstrs() {
			off = 0
		}
		in.Target = tb.InstrPC(off)
	}
}

func (e *refExecutor) dataAddr(global int, si *refInstr) isa.Addr {
	switch si.Data.Kind {
	case DataStride:
		p := e.ptrs[global]
		if p == 0 {
			p = si.Data.Region.Base + isa.Addr(e.data.Uint64n(max(si.Data.Region.Size, 1)))&^7
			if !si.Data.Region.Contains(p) {
				p = si.Data.Region.Base
			}
		}
		next := p + isa.Addr(si.Data.Stride)
		if !si.Data.Region.Contains(next) {
			next = si.Data.Region.Base
		}
		e.ptrs[global] = next
		return p
	case DataRandom:
		off := e.data.Uint64n(max(si.Data.Region.Size, 1)) &^ 7
		return si.Data.Region.Base + isa.Addr(off)
	case DataPoint:
		return si.Data.Region.Base
	}
	return 0
}

func (e *refExecutor) emitTerminatorInto(b *refBlock, in *isa.Instr) {
	pc := b.InstrPC(len(b.Body))
	termIdx := b.globalIndex + len(b.Body)
	*in = isa.Instr{PC: pc, Class: b.Term.Kind.class()}
	switch b.Term.Kind {
	case TermCond:
		var taken bool
		if last := e.condLast[termIdx]; last != 0 && b.Term.StickyProb > 0 && e.ctrl.Bool(b.Term.StickyProb) {
			taken = last == 2
		} else {
			taken = e.ctrl.Bool(b.Term.TakenProb)
		}
		if taken {
			e.condLast[termIdx] = 2
		} else {
			e.condLast[termIdx] = 1
		}
		in.Taken = taken
		in.Target = e.prog.Block(b.Term.Target).Addr
		if taken {
			e.goTo(b.Term.Target)
		} else {
			e.advanceFallthrough()
		}
	case TermJump:
		in.Taken = true
		in.Target = e.prog.Block(b.Term.Target).Addr
		e.goTo(b.Term.Target)
	case TermCall:
		in.Taken = true
		callee := e.prog.Funcs[b.Term.Callee]
		in.Target = callee.Blocks[0].Addr
		e.call(b.Term.Callee)
	case TermReturn:
		in.Taken = true
		if len(e.stack) == 0 {
			e.done = true
			in.Target = e.prog.Block(e.prog.EntryBlock()).Addr
			return
		}
		ret := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		in.Target = e.prog.Block(ret).Addr
		e.goTo(ret)
	case TermIndirect:
		i := e.indirectChoice(termIdx, &b.Term)
		t := b.Term.Targets[i]
		in.Taken = true
		in.Target = e.prog.Block(t).Addr
		e.goTo(t)
	case TermIndirectCall:
		i := e.indirectChoice(termIdx, &b.Term)
		callee := b.Term.Callees[i]
		in.Taken = true
		in.Target = e.prog.Funcs[callee].Blocks[0].Addr
		e.call(callee)
	}
}

func (e *refExecutor) indirectChoice(termIdx int, t *Terminator) int {
	if last := e.indLast[termIdx]; last >= 0 && t.StickyProb > 0 && e.ctrl.Bool(t.StickyProb) {
		return int(last)
	}
	i := e.ctrl.WeightedChoice(t.Weights)
	e.indLast[termIdx] = int32(i)
	return i
}

func (e *refExecutor) call(callee FuncID) {
	ret := BlockRef{Func: e.cur.Func, Block: e.cur.Block + 1}
	if len(e.stack) >= MaxCallDepth {
		panic(fmt.Sprintf("program: call depth exceeded %d in %q", MaxCallDepth, e.prog.Name))
	}
	e.stack = append(e.stack, ret)
	e.goTo(BlockRef{Func: callee, Block: 0})
}

func (e *refExecutor) goTo(ref BlockRef) {
	e.cur = ref
	e.blk = e.prog.Block(ref)
	e.idx = 0
}

func (e *refExecutor) advanceFallthrough() {
	e.goTo(BlockRef{Func: e.cur.Func, Block: e.cur.Block + 1})
}

// randomRefProgram draws a small program: one to five functions of one to
// five blocks, random bodies over every data-pattern kind (an unknown one
// too), every terminator kind with sticky and non-sticky branches, and
// software prefetches at random body positions. Control stays inside a
// function except through calls, which go to later functions, so the
// stack stays shallow. With probability faults%4 in 64 per decision a
// draw breaks one rule that Validate checks.
func randomRefProgram(r *xrand.Rand, faults uint8) *refProgram {
	bad := func() bool { return r.Intn(64) < int(faults%4) }
	patterns := []DataPattern{
		{Kind: DataStride, Region: Region{Base: 0x10000, Size: 256}, Stride: 8},
		{Kind: DataStride, Region: Region{Base: 0x10000, Size: 256}, Stride: 64},
		{Kind: DataStride, Region: Region{Base: 0x20000}, Stride: 8},
		{Kind: DataRandom, Region: Region{Base: 0x30000, Size: 1 << 12}},
		{Kind: DataPoint, Region: Region{Base: 0x40000, Size: 64}},
		{Kind: DataKind(9), Region: Region{Base: 0x50000, Size: 64}},
	}
	sticky := []float64{0, 0, 0.5, 0.95, -0.25}
	nf := 1 + r.Intn(5)
	p := &refProgram{Name: "fuzz", Base: isa.Addr(0x1000 + 4*r.Intn(8))}
	if bad() {
		p.Entry = FuncID(nf)
	}
	later := func(fi int) (FuncID, bool) {
		if bad() {
			return FuncID(r.Intn(nf + 1)), true
		}
		if fi+1 >= nf {
			return 0, false
		}
		return FuncID(fi + 1 + r.Intn(nf-fi-1)), true
	}
	for fi := 0; fi < nf; fi++ {
		nb := 1 + r.Intn(5)
		if bad() {
			nb = 0
		}
		f := &refFunc{ID: FuncID(fi)}
		local := func() BlockRef {
			if bad() {
				return BlockRef{Func: FuncID(fi), Block: nb}
			}
			return BlockRef{Func: FuncID(fi), Block: r.Intn(nb)}
		}
		for bi := 0; bi < nb; bi++ {
			b := &refBlock{}
			for n := r.Intn(4); n > 0; n-- {
				in := refInstr{Class: []isa.Class{isa.ClassALU, isa.ClassMul, isa.ClassLoad, isa.ClassStore}[r.Intn(4)]}
				if in.Class.IsMem() && !bad() {
					in.Data = patterns[r.Intn(len(patterns))]
				}
				if bad() {
					in.Class = isa.ClassJump
				}
				b.Body = append(b.Body, in)
			}
			kind := TermKind(r.Intn(7))
			switch {
			case bad():
				kind = TermKind(7 + r.Intn(3))
			case bi == nb-1 && !bad():
				kind = []TermKind{TermJump, TermReturn, TermIndirect}[r.Intn(3)]
			}
			t := Terminator{Kind: kind, StickyProb: sticky[r.Intn(len(sticky))]}
			switch kind {
			case TermNone:
				if len(b.Body) == 0 && !bad() {
					b.Body = append(b.Body, refInstr{Class: isa.ClassALU})
				}
			case TermCond:
				t.Target, t.TakenProb = local(), r.Float64()
				if bad() {
					t.TakenProb = 1.5
				}
			case TermJump:
				t.Target = local()
			case TermCall:
				var ok bool
				if t.Callee, ok = later(fi); !ok {
					t.Kind = TermReturn
				}
			case TermIndirect, TermIndirectCall:
				n := 1 + r.Intn(3)
				for k := 0; k < n; k++ {
					if kind == TermIndirect {
						t.Targets = append(t.Targets, local())
					} else if c, ok := later(fi); ok {
						t.Callees = append(t.Callees, c)
					}
					t.Weights = append(t.Weights, r.Float64())
				}
				if bad() {
					t.Weights = t.Weights[1:]
				}
				if kind == TermIndirectCall && len(t.Callees) == 0 {
					t = Terminator{Kind: TermReturn}
				}
			}
			b.Term = t
			f.Blocks = append(f.Blocks, b)
		}
		p.Funcs = append(p.Funcs, f)
	}
	// Prefetches go in once every block has its terminator, so each
	// offset can be drawn inside its target.
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if r.Intn(3) != 0 {
				continue
			}
			ref, off := randomPrefetchTarget(r, p, bad)
			pos := r.Intn(len(b.Body) + 1)
			b.Body = append(b.Body[:pos], append([]refInstr{{Class: isa.ClassSwPrefetch, PrefetchTarget: ref, PrefetchOffset: off}}, b.Body[pos:]...)...)
		}
	}
	return p
}

// randomPrefetchTarget draws a block of p and an offset inside it; when
// bad says so, the block does not exist or the offset lies outside it.
func randomPrefetchTarget(r *xrand.Rand, p *refProgram, bad func() bool) (BlockRef, int) {
	fi := r.Intn(len(p.Funcs))
	f := p.Funcs[fi]
	if len(f.Blocks) == 0 || bad() {
		return BlockRef{Func: FuncID(fi), Block: len(f.Blocks)}, 0
	}
	bi := r.Intn(len(f.Blocks))
	n := f.Blocks[bi].NumInstrs()
	off := r.Intn(max(n, 1))
	if bad() {
		off = []int{-3, -1, n, n + 5}[r.Intn(4)]
	}
	return BlockRef{Func: FuncID(fi), Block: bi}, off
}

// matchReference requires p to agree with the reference program rp on
// size, on Locate at every address from just below p to just past it,
// and on the first instructions of the stream, read through Next and
// through NextBlock runs of at most max.
func matchReference(t *testing.T, rp *refProgram, p *Program, seed uint64, max int) {
	t.Helper()
	if p.NumInstrs() != rp.NumInstrs() || p.StaticBytes() != rp.StaticBytes() {
		t.Fatalf("size: %d instrs, %d bytes; reference %d, %d", p.NumInstrs(), p.StaticBytes(), rp.NumInstrs(), rp.StaticBytes())
	}
	for a := rp.Base - 8; a < rp.Base+rp.StaticBytes()+8; a++ {
		ref, i, ok := p.Locate(a)
		wref, wi, wok := rp.Locate(a)
		if ref != wref || i != wi || ok != wok {
			t.Fatalf("Locate(%v) = %v,%d,%v; reference %v,%d,%v", a, ref, i, ok, wref, wi, wok)
		}
	}
	const n = 3000
	want, wantErr := trace.Collect(newRefExecutor(rp, seed), n)
	got, err := trace.Collect(NewExecutor(p, seed), n)
	if !errors.Is(err, wantErr) || len(got) != len(want) {
		t.Fatalf("Next: %d instructions (%v); reference %d (%v)", len(got), err, len(want), wantErr)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Next: instruction %d is %+v; reference %+v", i, got[i], want[i])
		}
	}
	e := NewExecutor(p, seed)
	var run []isa.Instr
	for i := 0; i < len(want); {
		run, err = e.NextBlock(run[:0], max)
		for _, in := range run {
			if i < len(want) && in != want[i] {
				t.Fatalf("NextBlock: instruction %d is %+v; reference %+v", i, in, want[i])
			}
			i++
		}
		if err != nil {
			if i != len(want) || !errors.Is(err, wantErr) {
				t.Fatalf("NextBlock ended after %d instructions (%v); reference %d (%v)", i, err, len(want), wantErr)
			}
			break
		}
	}
}

// FuzzProgramMatchesReference builds random small programs both ways, as
// a reference graph and through a Builder, and requires the two to agree
// on Validate's verdict and, for a valid program, on matchReference's
// size, Locate and stream. It then inserts prefetches one at a time at
// random body positions, sometimes with a bad site, position, target or
// offset, into both, and requires the same again after each insertion.
// Last, the first program built must still match the reference as it was
// first built: insertion builds a new program and never changes the old.
func FuzzProgramMatchesReference(f *testing.F) {
	for s := uint64(0); s < 16; s++ {
		f.Add(s, uint8(s%4), uint8(1+s%8))
	}
	f.Fuzz(func(t *testing.T, seed uint64, faults, max uint8) {
		r := xrand.New(seed)
		rp := randomRefProgram(r, faults)
		rp.Layout()
		wantErr := rp.Validate()
		p, err := rp.build()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("verdict: Builder %v; reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("a built program fails Validate: %v", err)
		}
		runMax := 1 + int(max%8)
		first, built := p, rp.Clone()
		matchReference(t, rp, p, seed, runMax)
		for k := 0; k < 4; k++ {
			fi := r.Intn(len(rp.Funcs) + 1)
			site := BlockRef{Func: FuncID(fi), Block: r.Intn(6)}
			pos := r.Intn(8) - 1
			if b := rp.Block(site); b != nil && r.Intn(4) != 0 {
				pos = r.Intn(len(b.Body) + 1)
			}
			target, off := randomPrefetchTarget(r, rp, func() bool { return r.Intn(4) == 0 })
			wantErr := rp.InsertPrefetch(site, pos, target, off)
			q, err := p.InsertPrefetch(site, pos, target, off)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("InsertPrefetch(%v, %d, %v, %d): %v; reference %v", site, pos, target, off, err, wantErr)
			}
			if err != nil {
				continue
			}
			p = q
			matchReference(t, rp, p, seed, runMax)
		}
		// A batch, inserted in one pass with positions in the bodies as
		// they were, must equal inserting it one prefetch at a time:
		// position by position, each site's earlier insertions shifting
		// its later positions, and in batch order at one position.
		var batch []Prefetch
		for k := r.Intn(6); k > 0; k-- {
			fi := r.Intn(len(rp.Funcs))
			bi := r.Intn(len(rp.Funcs[fi].Blocks))
			pf := Prefetch{Site: BlockRef{Func: FuncID(fi), Block: bi}, Pos: r.Intn(len(rp.Funcs[fi].Blocks[bi].Body) + 1)}
			if len(batch) > 0 && r.Intn(3) == 0 {
				pf.Site, pf.Pos = batch[0].Site, batch[0].Pos
			}
			pf.Target, pf.Offset = randomPrefetchTarget(r, rp, func() bool { return false })
			batch = append(batch, pf)
		}
		q, err := p.InsertPrefetches(batch)
		if err != nil {
			t.Fatalf("InsertPrefetches(%v): %v", batch, err)
		}
		inserted := map[BlockRef]int{}
		ordered := slices.Clone(batch)
		slices.SortStableFunc(ordered, func(a, b Prefetch) int { return a.Pos - b.Pos })
		for _, pf := range ordered {
			if err := rp.InsertPrefetch(pf.Site, pf.Pos+inserted[pf.Site], pf.Target, pf.Offset); err != nil {
				t.Fatal(err)
			}
			inserted[pf.Site]++
		}
		matchReference(t, rp, q, seed, runMax)
		matchReference(t, built, first, seed, runMax)
	})
}
