// Package program models a synthetic static program: a set of functions made
// of basic blocks with realistic terminators (biased conditionals, loops,
// calls/returns, indirect jumps). An Executor walks the program drawing
// branch outcomes from a deterministic RNG and emits the dynamic instruction
// stream the simulator consumes.
//
// The package exists because the paper evaluates on 48 proprietary CVP-1
// traces we cannot ship. A program object gives us something a trace cannot:
// AsmDB's binary-rewriting step. Inserting a software prefetch into a block
// shifts every later address (the paper's static code bloat and
// cache-line-content shift), and re-running the executor with the same seed
// replays the identical control-flow path over the new layout — exactly the
// trace-regeneration methodology described in the paper's §IV.
package program

import (
	"fmt"
	"sort"

	"frontsim/internal/isa"
	"frontsim/internal/trace"
	"frontsim/internal/xrand"
)

// FuncID identifies a function within a Program.
type FuncID int

// BlockRef identifies a basic block as (function, block index).
type BlockRef struct {
	Func  FuncID
	Block int
}

// FuncAlign is the byte alignment of function entry points, mirroring
// typical compiler output; it creates the partially-used cache lines real
// binaries have.
const FuncAlign = 16

// TermKind enumerates how a basic block ends.
type TermKind uint8

const (
	// TermNone falls through to the next block in the function without a
	// control instruction (a label boundary, e.g. a loop header).
	TermNone TermKind = iota
	// TermCond is a conditional direct branch: taken with probability
	// TakenProb to Target, otherwise falls through.
	TermCond
	// TermJump is an unconditional direct jump to Target.
	TermJump
	// TermCall is a direct call to Callee; execution resumes at the next
	// block of the current function.
	TermCall
	// TermReturn pops the call stack.
	TermReturn
	// TermIndirect is an indirect jump choosing among Targets by Weights.
	TermIndirect
	// TermIndirectCall is an indirect call choosing among Callees by
	// Weights.
	TermIndirectCall
)

// Terminator describes a block's ending control transfer.
type Terminator struct {
	Kind      TermKind
	Target    BlockRef   // TermCond, TermJump
	TakenProb float64    // TermCond
	Callee    FuncID     // TermCall
	Targets   []BlockRef // TermIndirect
	Callees   []FuncID   // TermIndirectCall
	Weights   []float64  // TermIndirect, TermIndirectCall
	// StickyProb is the probability a dynamic execution repeats the
	// branch's previous outcome (conditional direction or indirect target)
	// instead of redrawing. Real branch outcomes are temporally
	// correlated — request batches, phases — which is what makes them
	// predictable; independent draws would cap any predictor's accuracy
	// at the static bias. Zero disables stickiness (loops keep geometric
	// trip counts).
	StickyProb float64
}

// instrCount returns how many instructions the terminator contributes.
func (t *Terminator) instrCount() int {
	if t.Kind == TermNone {
		return 0
	}
	return 1
}

// class maps the terminator to its instruction class.
func (t *Terminator) class() isa.Class {
	switch t.Kind {
	case TermCond:
		return isa.ClassBranch
	case TermJump:
		return isa.ClassJump
	case TermCall:
		return isa.ClassCall
	case TermReturn:
		return isa.ClassReturn
	case TermIndirect:
		return isa.ClassIndirect
	case TermIndirectCall:
		return isa.ClassIndirectCall
	}
	return isa.ClassALU
}

// DataKind enumerates how a memory instruction generates effective
// addresses.
type DataKind uint8

const (
	// DataNone marks a non-memory instruction.
	DataNone DataKind = iota
	// DataStride walks Region with a fixed stride, wrapping.
	DataStride
	// DataRandom draws uniformly within Region.
	DataRandom
	// DataPoint always touches Region.Base (a hot global).
	DataPoint
)

// Region is a data address range.
type Region struct {
	Base isa.Addr
	Size uint64
}

// Contains reports whether a falls inside the region.
func (r Region) Contains(a isa.Addr) bool {
	return a >= r.Base && uint64(a-r.Base) < r.Size
}

// DataPattern describes a static memory instruction's address behaviour.
type DataPattern struct {
	Kind   DataKind
	Region Region
	Stride uint64
}

// StaticInstr is one static instruction in a block body. Terminators are
// represented separately by the block's Terminator.
type StaticInstr struct {
	Class isa.Class
	Data  DataPattern
	// PrefetchTarget is, for ClassSwPrefetch, the code location whose cache
	// line the prefetch fetches. Kept as a block reference plus instruction
	// offset so that re-laying-out the program after an insertion
	// automatically retargets the prefetch to the shifted address — this is
	// the paper's "AsmDB accounts for this shift during prefetch
	// generation".
	PrefetchTarget BlockRef
	PrefetchOffset int
}

// Block is a basic block: a run of body instructions plus a terminator.
type Block struct {
	Body []StaticInstr
	Term Terminator

	// Addr is the block's start address; assigned by Program.Layout.
	Addr isa.Addr
	// globalIndex is the global index of the block's first instruction;
	// assigned by Layout and used for per-static-instruction executor
	// state.
	globalIndex int
}

// NumInstrs returns the number of instructions the block occupies.
func (b *Block) NumInstrs() int { return len(b.Body) + b.Term.instrCount() }

// Size returns the block size in bytes.
func (b *Block) Size() isa.Addr { return isa.Addr(b.NumInstrs() * isa.InstrSize) }

// InstrPC returns the address of the i-th instruction in the block (body
// instructions first, terminator last). Valid only after Layout.
func (b *Block) InstrPC(i int) isa.Addr { return b.Addr + isa.Addr(i*isa.InstrSize) }

// Func is a function: an ordered list of blocks. Block order defines
// fall-through adjacency and address layout.
type Func struct {
	ID     FuncID
	Name   string
	Blocks []*Block
}

// Program is a complete synthetic binary.
type Program struct {
	Name  string
	Base  isa.Addr
	Funcs []*Func
	Entry FuncID

	totalInstrs int
	sorted      []*Block // all blocks in address order, for Locate
	laidOut     bool
}

// Block returns the block identified by ref, or nil.
func (p *Program) Block(ref BlockRef) *Block {
	if int(ref.Func) < 0 || int(ref.Func) >= len(p.Funcs) {
		return nil
	}
	f := p.Funcs[ref.Func]
	if ref.Block < 0 || ref.Block >= len(f.Blocks) {
		return nil
	}
	return f.Blocks[ref.Block]
}

// EntryBlock returns the reference to the program's first executed block.
func (p *Program) EntryBlock() BlockRef { return BlockRef{Func: p.Entry, Block: 0} }

// NumInstrs returns the total static instruction count. Valid after Layout.
func (p *Program) NumInstrs() int { return p.totalInstrs }

// StaticBytes returns the laid-out code size in bytes including alignment
// padding. Valid after Layout.
func (p *Program) StaticBytes() isa.Addr {
	if len(p.sorted) == 0 {
		return 0
	}
	last := p.sorted[len(p.sorted)-1]
	return last.Addr + last.Size() - p.Base
}

// Layout assigns addresses to every block: functions are placed in ID order
// with FuncAlign alignment, blocks within a function are contiguous in
// declaration order. Layout must be called after any structural mutation
// (such as a prefetch insertion) and before execution.
func (p *Program) Layout() {
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

// Locate maps a code address to (block, instruction index). It returns
// ok=false for addresses outside the program or in alignment padding.
// Valid after Layout.
func (p *Program) Locate(a isa.Addr) (ref BlockRef, instr int, ok bool) {
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
	// Recover the (func, block) reference; blocks carry no back-pointer to
	// keep Clone simple, so scan function extents. Layout order is function
	// ID order, letting us binary search functions too, but programs have
	// few enough functions relative to Locate calls that a per-call scan
	// would still show up in profiles — so precompute via the sorted index.
	ref, ok = p.refOf(b)
	if !ok {
		return BlockRef{}, 0, false
	}
	return ref, int((a - b.Addr) / isa.InstrSize), true
}

// refOf finds the BlockRef for a *Block by address binary search within the
// owning function.
func (p *Program) refOf(target *Block) (BlockRef, bool) {
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

// Clone returns a deep copy of the program, suitable for mutation by the
// software-prefetch inserter without disturbing the original.
func (p *Program) Clone() *Program {
	q := &Program{Name: p.Name, Base: p.Base, Entry: p.Entry}
	q.Funcs = make([]*Func, len(p.Funcs))
	for i, f := range p.Funcs {
		nf := &Func{ID: f.ID, Name: f.Name, Blocks: make([]*Block, len(f.Blocks))}
		for j, b := range f.Blocks {
			nb := &Block{
				Body: append([]StaticInstr(nil), b.Body...),
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

// InsertPrefetch inserts a software instruction prefetch into block ref at
// body position pos (0 = before the first body instruction), targeting the
// instruction at (target, targetOff). The caller must re-run Layout — done
// here for convenience — before executing. Use InsertPrefetchDeferred when
// applying many insertions: re-laying-out per insertion is quadratic.
func (p *Program) InsertPrefetch(ref BlockRef, pos int, target BlockRef, targetOff int) error {
	if err := p.InsertPrefetchDeferred(ref, pos, target, targetOff); err != nil {
		return err
	}
	p.Layout()
	return nil
}

// InsertPrefetchDeferred performs the insertion without re-laying-out the
// program; the caller must call Layout before executing or using
// address-dependent queries.
func (p *Program) InsertPrefetchDeferred(ref BlockRef, pos int, target BlockRef, targetOff int) error {
	b := p.Block(ref)
	if b == nil {
		return fmt.Errorf("program: no block %v", ref)
	}
	if pos < 0 || pos > len(b.Body) {
		return fmt.Errorf("program: insert position %d out of range [0,%d]", pos, len(b.Body))
	}
	if p.Block(target) == nil {
		return fmt.Errorf("program: no prefetch target block %v", target)
	}
	in := StaticInstr{
		Class:          isa.ClassSwPrefetch,
		PrefetchTarget: target,
		PrefetchOffset: targetOff,
	}
	b.Body = append(b.Body, StaticInstr{})
	copy(b.Body[pos+1:], b.Body[pos:])
	b.Body[pos] = in
	p.laidOut = false
	return nil
}

// Validate checks structural invariants: every reference resolves, blocks
// requiring fall-through have a following block, conditional probabilities
// are probabilities, the entry function exists and does not return past an
// empty stack, and no block is empty with TermNone (which would emit
// nothing and loop forever).
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("program %q: no functions", p.Name)
	}
	if int(p.Entry) < 0 || int(p.Entry) >= len(p.Funcs) {
		return fmt.Errorf("program %q: entry %d out of range", p.Name, p.Entry)
	}
	callGraph := make(map[int][]int)
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
				// Always structurally fine; the entry function returning on
				// an empty stack ends the stream, which is legal.
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
				if in.Class == isa.ClassSwPrefetch && p.Block(in.PrefetchTarget) == nil {
					return fmt.Errorf("func %d block %d instr %d: bad prefetch target %v", fi, bi, ii, in.PrefetchTarget)
				}
				if in.Class.IsMem() && in.Data.Kind == DataNone {
					return fmt.Errorf("func %d block %d instr %d: memory instruction without data pattern", fi, bi, ii)
				}
			}
		}
	}
	// The call graph must be acyclic: the executor has no recursion
	// semantics (its stack is bounded by MaxCallDepth and a cycle would
	// recurse unboundedly since calls are unconditional block
	// terminators).
	if cyc := findCallCycle(callGraph, len(p.Funcs)); cyc >= 0 {
		return fmt.Errorf("program %q: call graph cycle through func %d", p.Name, cyc)
	}
	return nil
}

// findCallCycle runs an iterative three-color DFS over the call graph,
// returning a function on a cycle or -1.
func findCallCycle(g map[int][]int, n int) int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, n)
	for start := 0; start < n; start++ {
		if color[start] != white {
			continue
		}
		type frame struct {
			node int
			next int
		}
		stack := []frame{{node: start}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g[f.node]) {
				succ := g[f.node][f.next]
				f.next++
				switch color[succ] {
				case white:
					color[succ] = gray
					stack = append(stack, frame{node: succ})
				case gray:
					return succ
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return -1
}

// Executor walks the program emitting its dynamic instruction stream. It
// implements trace.Source. Two independent RNG streams drive control flow
// and data addresses so that inserting non-memory instructions (software
// prefetches) cannot perturb either sequence — the property that makes
// profile-then-rewrite-then-re-execute yield the same control-flow path.
type Executor struct {
	prog *Program
	seed uint64

	ctrl *xrand.Rand
	data *xrand.Rand

	cur   BlockRef
	blk   *Block // cache of prog.Block(cur), refreshed on every transfer
	idx   int
	stack []BlockRef // return sites
	ptrs  []isa.Addr // per-static-instruction stride pointers
	// Per-terminator sticky state, indexed by the terminator's global
	// instruction index: last conditional outcome (0 unset, 1 not-taken,
	// 2 taken) and last indirect choice (-1 unset).
	condLast []uint8
	indLast  []int32
	done     bool
}

// MaxCallDepth bounds the executor call stack; exceeding it indicates a
// generator bug (the generated call graph is a DAG).
const MaxCallDepth = 1024

// NewExecutor creates an executor over prog (which must be laid out and
// valid) with the given seed.
func NewExecutor(prog *Program, seed uint64) *Executor {
	if !prog.laidOut {
		prog.Layout()
	}
	e := &Executor{prog: prog, seed: seed}
	e.Reset()
	return e
}

// Reset implements trace.Resetter: rewinds to the program entry with the
// original seed, replaying the identical stream.
func (e *Executor) Reset() {
	root := xrand.New(e.seed)
	e.ctrl = root.Fork()
	e.data = root.Fork()
	e.cur = e.prog.EntryBlock()
	e.blk = e.prog.Block(e.cur)
	e.idx = 0
	e.stack = e.stack[:0]
	if cap(e.ptrs) < e.prog.totalInstrs {
		e.ptrs = make([]isa.Addr, e.prog.totalInstrs)
		e.condLast = make([]uint8, e.prog.totalInstrs)
		e.indLast = make([]int32, e.prog.totalInstrs)
	} else {
		e.ptrs = e.ptrs[:e.prog.totalInstrs]
		e.condLast = e.condLast[:e.prog.totalInstrs]
		e.indLast = e.indLast[:e.prog.totalInstrs]
		for i := range e.ptrs {
			e.ptrs[i] = 0
			e.condLast[i] = 0
			e.indLast[i] = 0
		}
	}
	for i := range e.indLast {
		e.indLast[i] = -1
	}
	e.done = false
}

// Next implements trace.Source.
func (e *Executor) Next() (isa.Instr, error) {
	for {
		if e.done {
			return isa.Instr{}, trace.ErrEnd
		}
		b := e.blk
		if e.idx < len(b.Body) {
			in := e.emitBody(b)
			e.idx++
			return in, nil
		}
		// At the terminator.
		if b.Term.Kind == TermNone {
			e.advanceFallthrough()
			continue
		}
		in := e.emitTerminator(b)
		return in, nil
	}
}

// NextBlock implements trace.BlockSource: one branch-terminated (or
// max-capped) run of contiguous instructions per call, byte-identical to
// the stream Next yields. The executor's stream can only end at a return
// branch, so the run never carries a dangling ErrEnd tail.
func (e *Executor) NextBlock(buf []isa.Instr, max int) ([]isa.Instr, error) {
	// The run grows buf by at most max. Instructions are emitted straight
	// into their final slots; reserving capacity up front keeps the hot
	// loop free of append bookkeeping.
	end := len(buf) + max
	if cap(buf) < end {
		nb := make([]isa.Instr, len(buf), end)
		copy(nb, buf)
		buf = nb
	}
	if e.done {
		return buf, trace.ErrEnd
	}
	for {
		b := e.blk
		for e.idx < len(b.Body) && len(buf) < end {
			buf = buf[:len(buf)+1]
			e.emitBodyInto(b, &buf[len(buf)-1])
			e.idx++
		}
		if len(buf) == end {
			return buf, nil // capped before the terminator
		}
		if b.Term.Kind == TermNone {
			e.advanceFallthrough()
			continue
		}
		buf = buf[:len(buf)+1]
		e.emitTerminatorInto(b, &buf[len(buf)-1])
		return buf, nil
	}
}

func (e *Executor) emitBody(b *Block) isa.Instr {
	var in isa.Instr
	e.emitBodyInto(b, &in)
	return in
}

func (e *Executor) emitBodyInto(b *Block, in *isa.Instr) {
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

func (e *Executor) dataAddr(global int, si *StaticInstr) isa.Addr {
	switch si.Data.Kind {
	case DataStride:
		p := e.ptrs[global]
		if p == 0 {
			// Start each stream at a deterministic but instr-specific
			// offset inside the region.
			p = si.Data.Region.Base + isa.Addr(e.data.Uint64n(max64(si.Data.Region.Size, 1)))&^7
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
		off := e.data.Uint64n(max64(si.Data.Region.Size, 1)) &^ 7
		return si.Data.Region.Base + isa.Addr(off)
	case DataPoint:
		return si.Data.Region.Base
	}
	return 0
}

func (e *Executor) emitTerminator(b *Block) isa.Instr {
	var in isa.Instr
	e.emitTerminatorInto(b, &in)
	return in
}

func (e *Executor) emitTerminatorInto(b *Block, in *isa.Instr) {
	pc := b.InstrPC(len(b.Body))
	termIdx := b.globalIndex + len(b.Body)
	*in = isa.Instr{PC: pc, Class: b.Term.class()}
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
		e.call(FuncID(b.Term.Callee))
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

// indirectChoice picks an indirect target index, repeating the previous
// choice with the terminator's sticky probability.
func (e *Executor) indirectChoice(termIdx int, t *Terminator) int {
	if last := e.indLast[termIdx]; last >= 0 && t.StickyProb > 0 && e.ctrl.Bool(t.StickyProb) {
		return int(last)
	}
	i := e.ctrl.WeightedChoice(t.Weights)
	e.indLast[termIdx] = int32(i)
	return i
}

func (e *Executor) call(callee FuncID) {
	ret := BlockRef{Func: e.cur.Func, Block: e.cur.Block + 1}
	if len(e.stack) >= MaxCallDepth {
		panic(fmt.Sprintf("program: call depth exceeded %d in %q", MaxCallDepth, e.prog.Name))
	}
	e.stack = append(e.stack, ret)
	e.goTo(BlockRef{Func: callee, Block: 0})
}

func (e *Executor) goTo(ref BlockRef) {
	e.cur = ref
	e.blk = e.prog.Block(ref)
	e.idx = 0
}

func (e *Executor) advanceFallthrough() {
	e.goTo(BlockRef{Func: e.cur.Func, Block: e.cur.Block + 1})
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
