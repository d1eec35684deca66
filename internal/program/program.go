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
//
// A Program is a set of flat, pointer-free arrays, laid out once by a
// Builder and never changed afterwards: one record per block in address
// order, one per body instruction, and side tables for the data patterns,
// indirect targets, sticky branches and software-prefetch targets.
// Inserting prefetches builds a new program and leaves the old one as it
// was.
package program

import (
	"fmt"
	"math"
	"slices"
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

// Terminator describes a block's ending control transfer, as Builder.End
// takes it.
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

// class maps the terminator kind to its instruction class.
func (k TermKind) class() isa.Class {
	switch k {
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

// block is one laid-out basic block. Every reference in it is an index:
// into Program.blocks, Program.body, or a side table.
type block struct {
	addr isa.Addr
	// lo and hi bound the body: Program.body[lo:hi].
	lo, hi int32
	// target is the resolved target block of TermCond and TermJump, the
	// callee's entry block of TermCall, and for the two indirect kinds the
	// first of n entries in Program.targets and Program.weights.
	target int32
	// state is the ordinal of a sticky terminator (StickyProb > 0) in
	// Program.sticky and in each executor's last outcomes; -1 otherwise.
	state int32
	prob  float64 // TermCond's TakenProb
	kind  TermKind
	n     uint16
}

// instrs returns how many instructions the block occupies.
func (b *block) instrs() int {
	n := int(b.hi - b.lo)
	if b.kind != TermNone {
		n++
	}
	return n
}

func (b *block) size() isa.Addr { return isa.Addr(b.instrs() * isa.InstrSize) }

// instr is one body instruction.
type instr struct {
	class   isa.Class
	pattern uint16 // memory classes: the DataPattern, in Program.patterns
	// ord is a DataStride instruction's stride-pointer ordinal, or a
	// software prefetch's entry in Program.prefetches.
	ord int32
}

// prefetch is a software prefetch's target: an instruction of a block.
type prefetch struct{ block, off int32 }

// Program is a complete synthetic binary. Build one with a Builder; it is
// immutable afterwards, so any number of executors may share it.
type Program struct {
	name  string
	base  isa.Addr
	entry FuncID

	funcs      []int32       // each function's first block, then len(blocks)
	blocks     []block       // every block, in address order
	body       []instr       // every body instruction, in address order
	patterns   []DataPattern // interned; patterns[0] is the zero pattern
	targets    []int32       // indirect target blocks (a call's: the callee's entry)
	weights    []float64     // their weights
	sticky     []float64     // StickyProb of each sticky terminator
	prefetches []prefetch
	strides    int // DataStride instructions
	numInstrs  int
}

// NumInstrs returns the total static instruction count.
func (p *Program) NumInstrs() int { return p.numInstrs }

// numFuncs returns the number of functions.
func (p *Program) numFuncs() int { return max(len(p.funcs)-1, 0) }

// BlockInfo describes one laid-out block.
type BlockInfo struct {
	Addr   isa.Addr // start address
	Body   int      // body instructions
	Instrs int      // instructions, the terminator included
}

// InstrPC returns the address of the block's i-th instruction (body
// instructions first, terminator last).
func (b BlockInfo) InstrPC(i int) isa.Addr { return b.Addr + isa.Addr(i*isa.InstrSize) }

// Block describes the block ref names; ok is false when there is none.
func (p *Program) Block(ref BlockRef) (BlockInfo, bool) {
	i, ok := p.index(ref)
	if !ok {
		return BlockInfo{}, false
	}
	b := &p.blocks[i]
	return BlockInfo{Addr: b.addr, Body: int(b.hi - b.lo), Instrs: b.instrs()}, true
}

// index resolves ref to its position in p.blocks.
func (p *Program) index(ref BlockRef) (int32, bool) {
	if ref.Func < 0 || int(ref.Func) >= p.numFuncs() {
		return -1, false
	}
	lo, hi := p.funcs[ref.Func], p.funcs[ref.Func+1]
	if ref.Block < 0 || ref.Block >= int(hi-lo) {
		return -1, false
	}
	return lo + int32(ref.Block), true
}

// funcOf returns the function that block i belongs to.
func (p *Program) funcOf(i int32) int {
	return sort.Search(p.numFuncs(), func(f int) bool { return p.funcs[f+1] > i })
}

// StaticBytes returns the laid-out code size in bytes including alignment
// padding.
func (p *Program) StaticBytes() isa.Addr {
	if len(p.blocks) == 0 {
		return 0
	}
	last := &p.blocks[len(p.blocks)-1]
	return last.addr + last.size() - p.base
}

// layout assigns addresses: functions are placed in ID order with
// FuncAlign alignment, blocks within a function are contiguous in
// declaration order.
func (p *Program) layout() {
	addr := p.base
	n := 0
	for f := 0; f < p.numFuncs(); f++ {
		if rem := uint64(addr) % FuncAlign; rem != 0 {
			addr += isa.Addr(FuncAlign - rem)
		}
		for i := p.funcs[f]; i < p.funcs[f+1]; i++ {
			b := &p.blocks[i]
			b.addr = addr
			addr += b.size()
			n += b.instrs()
		}
	}
	p.numInstrs = n
}

// Locate maps a code address to (block, instruction index). It returns
// ok=false for addresses outside the program or in alignment padding.
func (p *Program) Locate(a isa.Addr) (ref BlockRef, instr int, ok bool) {
	i := sort.Search(len(p.blocks), func(i int) bool {
		b := &p.blocks[i]
		return b.addr+b.size() > a
	})
	if i >= len(p.blocks) {
		return BlockRef{}, 0, false
	}
	b := &p.blocks[i]
	if a < b.addr || (a-b.addr)%isa.InstrSize != 0 {
		return BlockRef{}, 0, false
	}
	f := p.funcOf(int32(i))
	return BlockRef{Func: FuncID(f), Block: i - int(p.funcs[f])}, int((a - b.addr) / isa.InstrSize), true
}

// Builder lays out a program from its functions' blocks, given in order:
// Func starts the next function, Instr and Prefetch append to the open
// block's body, and End closes the block with its terminator. References
// to blocks and functions may point forward; Build resolves them.
type Builder struct {
	p        Program
	refs     []BlockRef // every reference made, in order; Build resolves them
	lo       int32      // the open block's first body instruction
	interned map[DataPattern]uint16
	err      error
}

// NewBuilder starts an empty program loaded at base whose execution starts
// at function entry.
func NewBuilder(name string, base isa.Addr, entry FuncID) *Builder {
	return &Builder{
		p:        Program{name: name, base: base, entry: entry, patterns: []DataPattern{{}}},
		interned: map[DataPattern]uint16{{}: 0},
	}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("program %q: "+format, append([]any{b.p.name}, args...)...)
	}
}

// Func starts the next function. Functions are numbered in the order
// they start, from 0.
func (b *Builder) Func() {
	if int(b.lo) != len(b.p.body) {
		b.fail("function %d starts inside an open block", len(b.p.funcs))
	}
	b.p.funcs = append(b.p.funcs, int32(len(b.p.blocks)))
}

// Instr appends a body instruction of class c; d is its data pattern when
// c is a memory class and is ignored otherwise. Software prefetches are
// appended with Prefetch.
func (b *Builder) Instr(c isa.Class, d DataPattern) {
	in := instr{class: c}
	switch {
	case c == isa.ClassSwPrefetch:
		b.fail("software prefetch without a target")
	case c.IsMem():
		pat, ok := b.interned[d]
		if !ok {
			if len(b.p.patterns) > math.MaxUint16 {
				b.fail("more than %d data patterns", math.MaxUint16+1)
			}
			pat = uint16(len(b.p.patterns))
			b.interned[d] = pat
			b.p.patterns = append(b.p.patterns, d)
		}
		in.pattern = pat
		if d.Kind == DataStride {
			in.ord = int32(b.p.strides)
			b.p.strides++
		}
	}
	b.p.body = push(b.p.body, in)
}

// Prefetch appends a software instruction prefetch of the instruction at
// offset off of block target.
func (b *Builder) Prefetch(target BlockRef, off int) {
	b.p.body = push(b.p.body, instr{class: isa.ClassSwPrefetch, ord: int32(len(b.p.prefetches))})
	b.p.prefetches = append(b.p.prefetches, prefetch{block: b.ref(target), off: int32(clampIndex(off))})
}

// ref records a reference for Build to resolve and returns its index.
func (b *Builder) ref(r BlockRef) int32 {
	b.refs = push(b.refs, r)
	return int32(len(b.refs) - 1)
}

// push appends v to s, doubling the array when it is full. The builder's
// arrays reach hundreds of thousands of records, and append's own growth
// by a quarter would allocate five times the final size on the way.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s))
	}
	return append(s, v)
}

// clampIndex maps an index that does not fit an int32 to -1, which no
// check accepts.
func clampIndex(i int) int {
	if i < 0 || i > math.MaxInt32 {
		return -1
	}
	return i
}

// End closes the open block with terminator t.
func (b *Builder) End(t Terminator) {
	if len(b.p.funcs) == 0 {
		b.fail("block before the first function")
	}
	blk := block{lo: b.lo, hi: int32(len(b.p.body)), kind: t.Kind, target: -1, state: -1}
	switch t.Kind {
	case TermCond:
		blk.target = b.ref(t.Target)
		blk.prob = t.TakenProb
	case TermJump:
		blk.target = b.ref(t.Target)
	case TermCall:
		blk.target = b.ref(BlockRef{Func: t.Callee})
	case TermIndirect, TermIndirectCall:
		n := len(t.Targets)
		if t.Kind == TermIndirectCall {
			n = len(t.Callees)
		}
		if n == 0 || n != len(t.Weights) {
			b.fail("block %d: indirect targets/weights mismatch", len(b.p.blocks))
			break
		}
		if n > math.MaxUint16 {
			b.fail("block %d: more than %d indirect targets", len(b.p.blocks), math.MaxUint16)
			break
		}
		blk.target, blk.n = int32(len(b.p.targets)), uint16(n)
		for i := 0; i < n; i++ {
			var r BlockRef
			if t.Kind == TermIndirect {
				r = t.Targets[i]
			} else {
				r.Func = t.Callees[i]
			}
			b.p.targets = append(b.p.targets, b.ref(r))
		}
		b.p.weights = append(b.p.weights, t.Weights...)
	}
	if t.StickyProb > 0 && (t.Kind == TermCond || t.Kind == TermIndirect || t.Kind == TermIndirectCall) {
		blk.state = int32(len(b.p.sticky))
		b.p.sticky = append(b.p.sticky, t.StickyProb)
	}
	b.p.blocks = push(b.p.blocks, blk)
	b.lo = int32(len(b.p.body))
}

// Build resolves every reference, lays the program out and validates it.
// The Builder must not be used afterwards.
func (b *Builder) Build() (*Program, error) {
	if int(b.lo) != len(b.p.body) {
		b.fail("the last block has no terminator")
	}
	if b.err != nil {
		return nil, b.err
	}
	p := &b.p
	p.funcs = append(p.funcs, int32(len(p.blocks)))
	resolve := func(r int32) int32 {
		i, _ := p.index(b.refs[r])
		return i
	}
	for i := range p.blocks {
		if blk := &p.blocks[i]; blk.kind == TermCond || blk.kind == TermJump || blk.kind == TermCall {
			blk.target = resolve(blk.target)
		}
	}
	for i, r := range p.targets {
		p.targets[i] = resolve(r)
	}
	for i := range p.prefetches {
		p.prefetches[i].block = resolve(p.prefetches[i].block)
	}
	// The arrays are final: keep exact-size copies, not the slack that
	// appending left.
	q := &Program{
		name: p.name, base: p.base, entry: p.entry,
		funcs:      slices.Clone(p.funcs),
		blocks:     slices.Clone(p.blocks),
		body:       slices.Clone(p.body),
		patterns:   slices.Clone(p.patterns),
		targets:    slices.Clone(p.targets),
		weights:    slices.Clone(p.weights),
		sticky:     slices.Clone(p.sticky),
		prefetches: slices.Clone(p.prefetches),
		strides:    p.strides,
	}
	q.layout()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// Prefetch is one software instruction prefetch for InsertPrefetches.
type Prefetch struct {
	// Site is the block the prefetch instruction goes into, at body
	// position Pos: 0 puts it first, Site's body length last, just
	// before the terminator.
	Site BlockRef
	Pos  int
	// Target and Offset name the instruction whose line it fetches.
	// Offset must lie in [0, NumInstrs) of Target as it stands before
	// the insertion.
	Target BlockRef
	Offset int
}

// InsertPrefetches returns a copy of p with the software prefetches
// inserted, laid out anew in one pass: every later address shifts, while
// block references, and so each prefetch's target, follow the blocks.
// Prefetches at the same site and position keep their order. p does not
// change.
func (p *Program) InsertPrefetches(pfs []Prefetch) (*Program, error) {
	type insertion struct{ site, pos, target, off int32 }
	at := make([]insertion, 0, len(pfs))
	for _, pf := range pfs {
		site, ok := p.index(pf.Site)
		if !ok {
			return nil, fmt.Errorf("program: no block %v", pf.Site)
		}
		if body := int(p.blocks[site].hi - p.blocks[site].lo); pf.Pos < 0 || pf.Pos > body {
			return nil, fmt.Errorf("program: insert position %d out of range [0,%d]", pf.Pos, body)
		}
		target, ok := p.index(pf.Target)
		if !ok {
			return nil, fmt.Errorf("program: no prefetch target block %v", pf.Target)
		}
		if n := p.blocks[target].instrs(); pf.Offset < 0 || pf.Offset >= n {
			return nil, fmt.Errorf("program: prefetch offset %d out of range [0,%d)", pf.Offset, n)
		}
		at = append(at, insertion{site, int32(pf.Pos), target, int32(pf.Offset)})
	}
	slices.SortStableFunc(at, func(a, b insertion) int {
		if a.site != b.site {
			return int(a.site - b.site)
		}
		return int(a.pos - b.pos)
	})

	// Blocks, their references and every side table but the prefetch
	// targets carry over: p's arrays never change, so q shares them.
	q := *p
	q.blocks = make([]block, len(p.blocks))
	q.body = make([]instr, 0, len(p.body)+len(at))
	q.prefetches = append(make([]prefetch, 0, len(p.prefetches)+len(at)), p.prefetches...)
	k := 0
	for i, b := range p.blocks {
		lo := int32(len(q.body))
		for j := b.lo; ; j++ {
			for ; k < len(at) && at[k].site == int32(i) && at[k].pos == j-b.lo; k++ {
				q.body = append(q.body, instr{class: isa.ClassSwPrefetch, ord: int32(len(q.prefetches))})
				q.prefetches = append(q.prefetches, prefetch{block: at[k].target, off: at[k].off})
			}
			if j == b.hi {
				break
			}
			q.body = append(q.body, p.body[j])
		}
		b.lo, b.hi = lo, int32(len(q.body))
		q.blocks[i] = b
	}
	q.layout()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &q, nil
}

// InsertPrefetch is InsertPrefetches with one prefetch: at body position
// pos of block site, of the instruction at offset off of block target.
func (p *Program) InsertPrefetch(site BlockRef, pos int, target BlockRef, off int) (*Program, error) {
	return p.InsertPrefetches([]Prefetch{{Site: site, Pos: pos, Target: target, Offset: off}})
}

// Validate checks structural invariants: every reference resolves, blocks
// requiring fall-through have a following block, conditional probabilities
// are probabilities, every software prefetch targets an instruction inside
// its target block, the entry function exists, the call graph is acyclic,
// and no block is empty with TermNone (which would emit nothing and loop
// forever). Build and InsertPrefetches return only valid programs.
func (p *Program) Validate() error {
	nf := p.numFuncs()
	if nf == 0 {
		return fmt.Errorf("program %q: no functions", p.name)
	}
	if p.entry < 0 || int(p.entry) >= nf {
		return fmt.Errorf("program %q: entry %d out of range", p.name, p.entry)
	}
	valid := func(i int32) bool { return i >= 0 && int(i) < len(p.blocks) }
	calls := make([][]int, nf)
	for f := 0; f < nf; f++ {
		lo, hi := p.funcs[f], p.funcs[f+1]
		if lo == hi {
			return fmt.Errorf("func %d: no blocks", f)
		}
		for i := lo; i < hi; i++ {
			b := &p.blocks[i]
			bad := func(format string, args ...any) error {
				return fmt.Errorf("func %d block %d: "+format, append([]any{f, i - lo}, args...)...)
			}
			needsFallthrough := false
			switch b.kind {
			case TermNone:
				if b.lo == b.hi {
					return bad("empty block with no terminator")
				}
				needsFallthrough = true
			case TermCond:
				if b.prob < 0 || b.prob > 1 {
					return bad("TakenProb %v", b.prob)
				}
				if !valid(b.target) {
					return bad("bad cond target")
				}
				needsFallthrough = true
			case TermJump:
				if !valid(b.target) {
					return bad("bad jump target")
				}
			case TermCall:
				if !valid(b.target) {
					return bad("bad callee")
				}
				calls[f] = append(calls[f], p.funcOf(b.target))
				needsFallthrough = true
			case TermReturn:
				// Always structurally fine; the entry function returning on
				// an empty stack ends the stream, which is legal.
			case TermIndirect, TermIndirectCall:
				for _, t := range p.targets[b.target : b.target+int32(b.n)] {
					if !valid(t) {
						return bad("bad indirect target")
					}
					if b.kind == TermIndirectCall {
						calls[f] = append(calls[f], p.funcOf(t))
					}
				}
				needsFallthrough = b.kind == TermIndirectCall
			default:
				return bad("unknown terminator kind %d", b.kind)
			}
			if needsFallthrough && i+1 >= hi {
				return bad("terminator kind %d requires a fall-through block", b.kind)
			}
			for j := b.lo; j < b.hi; j++ {
				in := p.body[j]
				switch {
				case in.class.IsBranch():
					return bad("instr %d: branch class %v in body", j-b.lo, in.class)
				case in.class == isa.ClassSwPrefetch:
					pf := p.prefetches[in.ord]
					if !valid(pf.block) {
						return bad("instr %d: bad prefetch target", j-b.lo)
					}
					if pf.off < 0 || int(pf.off) >= p.blocks[pf.block].instrs() {
						return bad("instr %d: prefetch offset %d outside its target", j-b.lo, pf.off)
					}
				case in.class.IsMem() && p.patterns[in.pattern].Kind == DataNone:
					return bad("instr %d: memory instruction without data pattern", j-b.lo)
				}
			}
		}
	}
	// The call graph must be acyclic: the executor has no recursion
	// semantics (its stack is bounded by MaxCallDepth and a cycle would
	// recurse unboundedly since calls are unconditional block
	// terminators).
	if cyc := findCallCycle(calls); cyc >= 0 {
		return fmt.Errorf("program %q: call graph cycle through func %d", p.name, cyc)
	}
	return nil
}

// findCallCycle runs an iterative three-color DFS over the call graph,
// returning a function on a cycle or -1.
func findCallCycle(g [][]int) int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(g))
	for start := range g {
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

	cur   int32   // the current block
	pos   int32   // the next body instruction, in prog.body
	stack []int32 // return blocks
	// State exists only for the instructions that have it, by ordinal: a
	// pointer per DataStride instruction, and per sticky terminator its
	// last outcome (0 unset; a conditional's 1 not taken, 2 taken; an
	// indirect's choice plus one).
	ptrs []isa.Addr
	last []int32
	done bool
}

// MaxCallDepth bounds the executor call stack; exceeding it indicates a
// generator bug (the generated call graph is a DAG).
const MaxCallDepth = 1024

// NewExecutor creates an executor over prog with the given seed.
func NewExecutor(prog *Program, seed uint64) *Executor {
	e := &Executor{prog: prog, seed: seed}
	e.Reset()
	return e
}

// Reset rewinds to the program entry with the original seed, so the
// executor replays the identical stream. NewExecutor starts every executor
// with it.
func (e *Executor) Reset() {
	root := xrand.New(e.seed)
	e.ctrl = root.Fork()
	e.data = root.Fork()
	e.goTo(e.prog.funcs[e.prog.entry])
	e.stack = e.stack[:0]
	e.ptrs = zeroed(e.ptrs, e.prog.strides)
	e.last = zeroed(e.last, len(e.prog.sticky))
	e.done = false
}

// zeroed returns s resized to n zero elements, reusing its array.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Next implements trace.Source.
func (e *Executor) Next() (isa.Instr, error) {
	for {
		if e.done {
			return isa.Instr{}, trace.ErrEnd
		}
		b := &e.prog.blocks[e.cur]
		var in isa.Instr
		if e.pos < b.hi {
			e.emitBodyInto(b, &in)
			e.pos++
			return in, nil
		}
		// At the terminator.
		if b.kind == TermNone {
			e.goTo(e.cur + 1)
			continue
		}
		e.emitTerminatorInto(b, &in)
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
		b := &e.prog.blocks[e.cur]
		for e.pos < b.hi && len(buf) < end {
			buf = buf[:len(buf)+1]
			e.emitBodyInto(b, &buf[len(buf)-1])
			e.pos++
		}
		if len(buf) == end {
			return buf, nil // capped before the terminator
		}
		if b.kind == TermNone {
			e.goTo(e.cur + 1)
			continue
		}
		buf = buf[:len(buf)+1]
		e.emitTerminatorInto(b, &buf[len(buf)-1])
		return buf, nil
	}
}

func (e *Executor) emitBodyInto(b *block, in *isa.Instr) {
	si := e.prog.body[e.pos]
	*in = isa.Instr{PC: b.addr + isa.Addr(e.pos-b.lo)*isa.InstrSize, Class: si.class}
	switch {
	case si.class.IsMem():
		in.DataAddr = e.dataAddr(si)
	case si.class == isa.ClassSwPrefetch:
		pf := e.prog.prefetches[si.ord]
		in.Target = e.prog.blocks[pf.block].addr + isa.Addr(pf.off)*isa.InstrSize
	}
}

func (e *Executor) dataAddr(si instr) isa.Addr {
	d := &e.prog.patterns[si.pattern]
	switch d.Kind {
	case DataStride:
		p := e.ptrs[si.ord]
		if p == 0 {
			// Start each stream at a deterministic but instr-specific
			// offset inside the region.
			p = d.Region.Base + isa.Addr(e.data.Uint64n(max(d.Region.Size, 1)))&^7
			if !d.Region.Contains(p) {
				p = d.Region.Base
			}
		}
		next := p + isa.Addr(d.Stride)
		if !d.Region.Contains(next) {
			next = d.Region.Base
		}
		e.ptrs[si.ord] = next
		return p
	case DataRandom:
		off := e.data.Uint64n(max(d.Region.Size, 1)) &^ 7
		return d.Region.Base + isa.Addr(off)
	case DataPoint:
		return d.Region.Base
	}
	return 0
}

func (e *Executor) emitTerminatorInto(b *block, in *isa.Instr) {
	p := e.prog
	*in = isa.Instr{PC: b.addr + isa.Addr(b.hi-b.lo)*isa.InstrSize, Class: b.kind.class(), Taken: true}
	switch b.kind {
	case TermCond:
		s := b.state
		var taken bool
		if s >= 0 && e.last[s] != 0 && e.ctrl.Bool(p.sticky[s]) {
			taken = e.last[s] == 2
		} else {
			taken = e.ctrl.Bool(b.prob)
		}
		if s >= 0 {
			e.last[s] = 1
			if taken {
				e.last[s] = 2
			}
		}
		in.Taken = taken
		in.Target = p.blocks[b.target].addr
		if taken {
			e.goTo(b.target)
		} else {
			e.goTo(e.cur + 1)
		}
	case TermJump:
		in.Target = p.blocks[b.target].addr
		e.goTo(b.target)
	case TermCall:
		in.Target = p.blocks[b.target].addr
		e.call(b.target)
	case TermReturn:
		if len(e.stack) == 0 {
			e.done = true
			in.Target = p.blocks[p.funcs[p.entry]].addr
			return
		}
		ret := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		in.Target = p.blocks[ret].addr
		e.goTo(ret)
	case TermIndirect:
		t := p.targets[b.target+e.indirectChoice(b)]
		in.Target = p.blocks[t].addr
		e.goTo(t)
	case TermIndirectCall:
		t := p.targets[b.target+e.indirectChoice(b)]
		in.Target = p.blocks[t].addr
		e.call(t)
	}
}

// indirectChoice picks an indirect target index, repeating the previous
// choice with the terminator's sticky probability.
func (e *Executor) indirectChoice(b *block) int32 {
	s := b.state
	if s >= 0 && e.last[s] != 0 && e.ctrl.Bool(e.prog.sticky[s]) {
		return e.last[s] - 1
	}
	i := int32(e.ctrl.WeightedChoice(e.prog.weights[b.target : b.target+int32(b.n)]))
	if s >= 0 {
		e.last[s] = i + 1
	}
	return i
}

// call enters the function whose entry block is entry; the return goes
// to the block after the current one.
func (e *Executor) call(entry int32) {
	if len(e.stack) >= MaxCallDepth {
		panic(fmt.Sprintf("program: call depth exceeded %d in %q", MaxCallDepth, e.prog.name))
	}
	e.stack = append(e.stack, e.cur+1)
	e.goTo(entry)
}

func (e *Executor) goTo(i int32) {
	e.cur = i
	e.pos = e.prog.blocks[i].lo
}
