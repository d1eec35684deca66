package workload

import (
	"math"

	"frontsim/internal/isa"
	"frontsim/internal/program"
)

// build constructs the program: function 0 is an endless dispatcher loop
// indirect-calling level-0 functions; functions at level l call only
// functions at level l+1, making the call graph a DAG with bounded depth.
// Functions are built in ID order, each block's body before its
// terminator, so the builder receives them in layout order.
func (g *generator) build() (*program.Program, error) {
	s := g.spec
	g.b = program.NewBuilder(s.Name, codeBase, 0)

	lvlSize := (s.Funcs - 1) / s.Levels
	levelRange := func(l int) (lo, hi int) {
		lo = 1 + l*lvlSize
		hi = lo + lvlSize
		if l == s.Levels-1 {
			hi = s.Funcs // last level absorbs the remainder
		}
		return lo, hi
	}

	g.buildMain(levelRange)
	for l := 0; l < s.Levels; l++ {
		lo, hi := levelRange(l)
		var clo, chi int
		if l+1 < s.Levels {
			clo, chi = levelRange(l + 1)
		}
		for id := lo; id < hi; id++ {
			g.buildFunc(id, clo, chi)
		}
	}
	return g.b.Build()
}

// buildMain generates the dispatcher: enough dispatcher blocks that the
// whole first call-graph level is reachable, each indirect-calling a
// weighted partition of the level-0 functions; the final block jumps back
// to block 0, making the stream endless. Full coverage matters: the cold
// tail of rarely-called functions is what gives the server workloads their
// multi-megabyte live instruction footprints.
func (g *generator) buildMain(levelRange func(int) (int, int)) {
	s := g.spec
	lo, hi := levelRange(0)
	g.b.Func()

	fanout := s.DispatchFanout
	if fanout > hi-lo {
		fanout = hi - lo
	}
	dispatchers := (hi - lo + fanout - 1) / fanout
	if dispatchers < s.Dispatchers {
		dispatchers = s.Dispatchers
	}
	// A shuffled partition of level 0 so each dispatcher site has a
	// distinct, stable target set (keeps per-site indirect predictability
	// realistic while covering the level).
	perm := g.r.Perm(hi - lo)
	next := 0
	for d := 0; d < dispatchers; d++ {
		g.body(2)
		callees := make([]program.FuncID, 0, fanout)
		weights := make([]float64, 0, fanout)
		for k := 0; k < fanout; k++ {
			callees = append(callees, program.FuncID(lo+perm[next%len(perm)]))
			weights = append(weights, g.heavyTailWeight())
			next++
		}
		g.b.End(program.Terminator{
			Kind:       program.TermIndirectCall,
			Callees:    callees,
			Weights:    weights,
			StickyProb: s.Stickiness,
		})
	}
	// Loop closure.
	g.body(1)
	g.b.End(program.Terminator{Kind: program.TermJump, Target: program.BlockRef{Func: 0, Block: 0}})
}

// heavyTailWeight draws a callee weight with a heavy upper tail
// (w = u^-skew): CalleeSkew 0 is uniform, values near 1 make a few callees
// dominate (hot code) while the rest form the cold instruction footprint.
func (g *generator) heavyTailWeight() float64 {
	u := g.r.Float64()
	if u < 1e-4 {
		u = 1e-4
	}
	return math.Pow(u, -g.spec.CalleeSkew)
}

// buildFunc generates one non-main function with a realistic block mix.
// Callees (if any) are drawn from [clo, chi).
func (g *generator) buildFunc(id, clo, chi int) {
	if g.r.Bool(g.spec.BulkyFrac) {
		g.buildBulkyFunc(id, clo, chi)
		return
	}
	g.b.Func()
	nb := g.blockCount()
	canCall := chi > clo

	// Loop back-edges are restricted to disjoint regions: each new loop
	// must start after the previous one ended. Nested random loops would
	// multiply trip counts and trap execution in one function for millions
	// of instructions, destroying the instruction-footprint churn the
	// suite needs.
	minLoopTarget := 0

	for bi := 0; bi < nb; bi++ {
		g.body(g.bodyLen())
		if bi == nb-1 {
			g.b.End(program.Terminator{Kind: program.TermReturn})
			break
		}
		g.b.End(g.terminator(id, bi, nb, clo, chi, canCall, &minLoopTarget))
	}
}

// buildBulkyFunc generates a long, mostly straight-line function (3x the
// usual block count; fall-through and weakly-taken forward conditionals,
// occasional calls). Executed cold, it streams sequential line misses.
func (g *generator) buildBulkyFunc(id, clo, chi int) {
	g.b.Func()
	// Roughly twice a normal function, capped so a cold visit fits within
	// an industry-standard FTQ's run-ahead reach (24 blocks): the deep
	// front-end can then overlap the whole region's misses, which is the
	// regime the paper's traces exhibit (FDP alone covers what software
	// prefetching would have).
	nb := 2 * g.blockCount()
	if nb > 22 {
		nb = 22
	}
	if nb < 12 {
		nb = 12
	}
	canCall := chi > clo
	for bi := 0; bi < nb; bi++ {
		g.body(g.bodyLen())
		var term program.Terminator
		switch {
		case bi == nb-1:
			term = program.Terminator{Kind: program.TermReturn}
		default:
			u := g.r.Float64()
			switch {
			case u < 0.70:
				term = program.Terminator{Kind: program.TermNone}
			case u < 0.94 && bi+2 <= nb-1:
				target := bi + 2 + g.r.Intn(2)
				if target > nb-1 {
					target = nb - 1
				}
				term = program.Terminator{
					Kind:       program.TermCond,
					Target:     program.BlockRef{Func: program.FuncID(id), Block: target},
					TakenProb:  0.02 + 0.08*g.r.Float64(),
					StickyProb: g.spec.Stickiness,
				}
			case canCall:
				term = program.Terminator{
					Kind:   program.TermCall,
					Callee: program.FuncID(clo + g.r.Intn(chi-clo)),
				}
			default:
				term = program.Terminator{Kind: program.TermNone}
			}
		}
		g.b.End(term)
	}
}

func (g *generator) blockCount() int {
	n := g.r.Geometric(float64(g.spec.BlocksPerFunc))
	if n < 2 {
		n = 2
	}
	if n > 4*g.spec.BlocksPerFunc {
		n = 4 * g.spec.BlocksPerFunc
	}
	return n
}

func (g *generator) bodyLen() int {
	n := g.r.Geometric(g.spec.BodyLenMean)
	if n < 1 {
		n = 1
	}
	if n > 7 {
		n = 7
	}
	return n
}

// body appends n body instructions with the configured class mix to the
// open block.
func (g *generator) body(n int) {
	s := g.spec
	for i := 0; i < n; i++ {
		u := g.r.Float64()
		switch {
		case u < s.LoadFrac:
			g.b.Instr(isa.ClassLoad, g.dataPattern())
		case u < s.LoadFrac+s.StoreFrac:
			g.b.Instr(isa.ClassStore, g.dataPattern())
		case u < s.LoadFrac+s.StoreFrac+s.MulFrac:
			g.b.Instr(isa.ClassMul, program.DataPattern{})
		default:
			g.b.Instr(isa.ClassALU, program.DataPattern{})
		}
	}
}

// dataPattern assigns a memory instruction's address behaviour over the
// hot/warm/cold regions.
func (g *generator) dataPattern() program.DataPattern {
	u := g.r.Float64()
	switch {
	case u < 0.52:
		return program.DataPattern{Kind: program.DataStride, Region: g.hot, Stride: 8 * (1 + uint64(g.r.Intn(4)))}
	case u < 0.72:
		return program.DataPattern{Kind: program.DataPoint, Region: g.hot}
	case u < 0.88:
		return program.DataPattern{Kind: program.DataStride, Region: g.warm, Stride: 64}
	case u < 0.96:
		return program.DataPattern{Kind: program.DataRandom, Region: g.warm}
	default:
		return program.DataPattern{Kind: program.DataRandom, Region: g.cold}
	}
}

// condBias draws a conditional branch's taken probability from a bimodal
// distribution matching real code: most branches are strongly biased (and
// thus predictable), a minority are genuinely hard. Because the executor
// draws outcomes independently per execution, a predictor's accuracy on a
// branch is capped at max(p, 1-p); this mix puts aggregate conditional
// accuracy in the ~0.92–0.96 band real front-ends see.
func (g *generator) condBias() float64 {
	u := g.r.Float64()
	switch {
	case u < 0.64: // strongly not-taken (sequential transit code)
		return 0.015 + 0.04*g.r.Float64()
	case u < 0.93: // strongly taken
		return 0.94 + 0.045*g.r.Float64()
	case u < 0.98: // moderately biased
		return 0.12 + 0.15*g.r.Float64()
	default: // hard
		return 0.35 + 0.30*g.r.Float64()
	}
}

// terminator picks a block ending for block bi of nb in function id.
// minLoopTarget enforces disjoint loop regions (see buildFunc).
func (g *generator) terminator(id, bi, nb, clo, chi int, canCall bool, minLoopTarget *int) program.Terminator {
	s := g.spec
	u := g.r.Float64()
	cum := s.LoopFrac
	// A loop back-edge needs an eligible earlier block and room to fall
	// through.
	if u < cum && bi >= *minLoopTarget {
		target := *minLoopTarget + g.r.Intn(bi-*minLoopTarget+1)
		*minLoopTarget = bi + 1
		trip := g.r.Geometric(s.LoopTripMean)
		if trip < 4 {
			trip = 4
		}
		p := 1 - 1/float64(trip)
		if p > 0.98 {
			p = 0.98
		}
		return program.Terminator{
			Kind:      program.TermCond,
			Target:    program.BlockRef{Func: program.FuncID(id), Block: target},
			TakenProb: p,
		}
	}
	cum += s.CondFrac
	if u < cum && bi+2 <= nb-1 {
		// Forward conditional skipping 1..3 blocks.
		span := 1 + g.r.Intn(3)
		target := bi + 1 + span
		if target > nb-1 {
			target = nb - 1
		}
		return program.Terminator{
			Kind:       program.TermCond,
			Target:     program.BlockRef{Func: program.FuncID(id), Block: target},
			TakenProb:  g.condBias(),
			StickyProb: g.spec.Stickiness,
		}
	}
	cum += s.CallFrac
	if u < cum && canCall {
		return program.Terminator{
			Kind:   program.TermCall,
			Callee: program.FuncID(clo + g.r.Intn(chi-clo)),
		}
	}
	cum += s.JumpFrac
	if u < cum && bi+2 <= nb-1 {
		target := bi + 1 + g.r.Intn(nb-1-bi-1)
		if target <= bi {
			target = bi + 1
		}
		return program.Terminator{
			Kind:   program.TermJump,
			Target: program.BlockRef{Func: program.FuncID(id), Block: target},
		}
	}
	cum += s.IndJumpFrac
	if u < cum && bi+3 <= nb-1 {
		// Switch-like indirect jump over a few forward blocks.
		n := 2 + g.r.Intn(3)
		targets := make([]program.BlockRef, 0, n)
		weights := make([]float64, 0, n)
		for k := 0; k < n; k++ {
			tb := bi + 1 + g.r.Intn(nb-1-bi)
			if tb > nb-1 {
				tb = nb - 1
			}
			targets = append(targets, program.BlockRef{Func: program.FuncID(id), Block: tb})
			weights = append(weights, g.heavyTailWeight())
		}
		return program.Terminator{Kind: program.TermIndirect, Targets: targets, Weights: weights, StickyProb: g.spec.Stickiness}
	}
	cum += s.IndCallFrac
	if u < cum && canCall && chi-clo >= 2 {
		n := 2 + g.r.Intn(3)
		callees := make([]program.FuncID, 0, n)
		weights := make([]float64, 0, n)
		for k := 0; k < n; k++ {
			callees = append(callees, program.FuncID(clo+g.r.Intn(chi-clo)))
			weights = append(weights, g.heavyTailWeight())
		}
		return program.Terminator{Kind: program.TermIndirectCall, Callees: callees, Weights: weights, StickyProb: g.spec.Stickiness}
	}
	return program.Terminator{Kind: program.TermNone}
}
