// Package asmdb models the AsmDB software instruction prefetcher (Ayers et
// al., ISCA'19) as the paper evaluates it: profile the application's CFG
// and L1-I misses, rank the misses, walk the CFG backward from each
// high-impact miss to find insertion sites that are at least a minimum
// distance ahead (IPC x LLC latency) but within a window, filter sites by
// fanout (the probability the site's execution actually reaches the miss),
// and rewrite the binary with software prefetch instructions — shifting
// every later instruction address, exactly the code-bloat effect the paper
// characterizes. A no-insertion-overhead mode attaches prefetches to
// trigger PCs instead, for the paper's idealized comparison.
package asmdb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"frontsim/internal/cfg"
	"frontsim/internal/isa"
	"frontsim/internal/program"
)

// Options tunes the prefetch generation pipeline.
type Options struct {
	// LLCLatency is the access latency used by the minimum-distance
	// heuristic (the paper's worst-case fetch latency proxy).
	LLCLatency float64
	// Window is the maximum distance, in instructions, an insertion site
	// may be ahead of its target.
	Window int
	// FanoutThreshold is the minimum probability that execution at the
	// insertion site reaches the target within the window. Lowering it
	// raises coverage and lowers accuracy (paper §II-B2).
	FanoutThreshold float64
	// MaxSitesPerTarget bounds multi-path coverage per miss target.
	MaxSitesPerTarget int
	// CoverageGoal stops target selection once this fraction of profiled
	// misses is covered.
	CoverageGoal float64
	// MaxTargets caps the number of miss blocks targeted.
	MaxTargets int
}

// DefaultOptions mirrors the paper's tuned configuration.
func DefaultOptions() Options {
	return Options{
		LLCLatency:        40,
		Window:            320,
		FanoutThreshold:   0.3,
		MaxSitesPerTarget: 4,
		CoverageGoal:      0.95,
		MaxTargets:        100_000,
	}
}

// Validate checks option sanity.
func (o Options) Validate() error {
	if o.LLCLatency <= 0 {
		return fmt.Errorf("asmdb: LLCLatency %v", o.LLCLatency)
	}
	if o.Window <= 0 {
		return fmt.Errorf("asmdb: Window %d", o.Window)
	}
	if o.FanoutThreshold <= 0 || o.FanoutThreshold > 1 {
		return fmt.Errorf("asmdb: FanoutThreshold %v", o.FanoutThreshold)
	}
	if o.MaxSitesPerTarget <= 0 || o.MaxTargets <= 0 {
		return fmt.Errorf("asmdb: non-positive caps")
	}
	if o.CoverageGoal <= 0 || o.CoverageGoal > 1 {
		return fmt.Errorf("asmdb: CoverageGoal %v", o.CoverageGoal)
	}
	return nil
}

// Insertion is one planned software prefetch.
type Insertion struct {
	// Site is the start PC of the basic block that triggers the prefetch
	// (the prefetch instruction is appended to this block's body).
	Site isa.Addr
	// Target is the start PC of the miss block being prefetched.
	Target isa.Addr
	// Distance is the path length, in instructions, from site to target.
	Distance int
	// Prob is the estimated probability the site's execution reaches the
	// target within the window (the fanout measure).
	Prob float64
	// TargetMisses is the profiled miss count motivating this prefetch.
	TargetMisses int64
}

// Plan is the full set of insertions for one workload.
type Plan struct {
	Insertions []Insertion
	// MinDistance is the computed IPC x LLC-latency threshold used.
	MinDistance int
	// TargetsCovered counts distinct miss blocks with at least one site.
	TargetsCovered int
	// MissesCovered sums profiled misses of covered targets.
	MissesCovered int64
	// TotalMisses is the profile's total for coverage reporting.
	TotalMisses int64
}

// Coverage returns the fraction of profiled misses covered by the plan.
func (p *Plan) Coverage() float64 {
	if p.TotalMisses == 0 {
		return 0
	}
	return float64(p.MissesCovered) / float64(p.TotalMisses)
}

// StaticBloat returns the fractional increase in static instructions the
// plan causes on prog (Fig. 7a's metric).
func (p *Plan) StaticBloat(prog *program.Program) float64 {
	if prog.NumInstrs() == 0 {
		return 0
	}
	return float64(len(p.Insertions)) / float64(prog.NumInstrs())
}

// Build runs target selection and site placement over a profiled graph.
func Build(g *cfg.Graph, opts Options) (*Plan, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	ipc := g.IPC
	if ipc <= 0 {
		ipc = 1
	}
	minDist := int(ipc * opts.LLCLatency)
	if minDist < 1 {
		minDist = 1
	}
	if minDist >= opts.Window {
		return nil, fmt.Errorf("asmdb: min distance %d >= window %d", minDist, opts.Window)
	}

	plan := &Plan{MinDistance: minDist, TotalMisses: g.TotalMisses}
	ranked := g.RankedByMisses()
	seen := make(map[[2]isa.Addr]bool) // (site, target-line) dedup
	w := walker{done: make(map[isa.Addr]walkState)}

	var covered int64
	for ti, target := range ranked {
		if ti >= opts.MaxTargets {
			break
		}
		if g.TotalMisses > 0 && float64(covered)/float64(g.TotalMisses) >= opts.CoverageGoal {
			break
		}
		sites := w.findSites(g, target, minDist, opts)
		placed := 0
		for _, s := range sites {
			key := [2]isa.Addr{s.Site, s.Target.Line()}
			if seen[key] {
				continue
			}
			seen[key] = true
			plan.Insertions = append(plan.Insertions, s)
			placed++
			if placed >= opts.MaxSitesPerTarget {
				break
			}
		}
		if placed > 0 {
			plan.TargetsCovered++
			plan.MissesCovered += target.Misses
			covered += target.Misses
		}
	}
	// Deterministic order: by site then target.
	sort.Slice(plan.Insertions, func(i, j int) bool {
		if plan.Insertions[i].Site != plan.Insertions[j].Site {
			return plan.Insertions[i].Site < plan.Insertions[j].Site
		}
		return plan.Insertions[i].Target < plan.Insertions[j].Target
	})
	return plan, nil
}

// walker is the backward walk's state. One Build walks from every ranked
// target with the same walker, cleared between targets, so the heap, the
// visited map and the candidate slice are allocated once per plan.
type walker struct {
	heap walkHeap
	done map[isa.Addr]walkState
	out  []Insertion
}

// findSites walks the CFG backward from the target accumulating path
// probability and instruction distance, returning candidate insertion
// sites in the [minDist, Window] band with fanout above threshold, best
// first (highest probability, then shortest distance). The result is
// valid until the next call.
func (w *walker) findSites(g *cfg.Graph, target *cfg.Node, minDist int, opts Options) []Insertion {
	// Dijkstra-style maximum-probability walk backward from the target:
	// states pop in (prob desc, dist asc, pc asc) order, so the first pop
	// of a block carries its maximum reach probability (edge probabilities
	// are <= 1) with the shortest distance among max-probability paths.
	// The strict pop order makes the result independent of map iteration
	// order, which keeps plans — and therefore every rewritten binary —
	// bit-for-bit reproducible.
	h, done := &w.heap, w.done
	h.items = h.items[:0]
	clear(done)
	h.push(walkState{pc: target.PC, prob: 1, dist: 0})

	for h.len() > 0 {
		cur := h.pop()
		if _, ok := done[cur.pc]; ok {
			continue
		}
		done[cur.pc] = cur
		node := g.Node(cur.pc)
		if node == nil {
			continue
		}
		for predPC := range node.Preds { //lint:allow states pop in strict (prob, dist, pc) total order regardless of push order; see comment above
			if _, ok := done[predPC]; ok || predPC == target.PC {
				continue
			}
			pred := g.Node(predPC)
			if pred == nil || pred.Execs == 0 {
				continue
			}
			p := cur.prob * g.EdgeProb(predPC, cur.pc)
			if p < opts.FanoutThreshold {
				continue
			}
			d := cur.dist + pred.Instrs
			if d > opts.Window {
				continue
			}
			h.push(walkState{pc: predPC, prob: p, dist: d})
		}
	}
	out := w.out[:0]
	for pc, r := range done { //lint:allow out is fully sorted below (distance, prob, site); iteration order cannot escape
		if pc == target.PC || r.dist < minDist {
			continue
		}
		out = append(out, Insertion{
			Site:         pc,
			Target:       target.PC,
			Distance:     r.dist,
			Prob:         r.prob,
			TargetMisses: target.Misses,
		})
	}
	// Furthest-first: within the window, more lead distance means the
	// prefetch has the whole fetch latency to complete before the demand
	// arrives (timeliness dominates accuracy once fanout passes the
	// threshold). Ties break toward higher probability, then PC.
	slices.SortFunc(out, func(a, b Insertion) int {
		switch {
		case a.Distance != b.Distance:
			return cmp.Compare(b.Distance, a.Distance)
		case a.Prob > b.Prob:
			return -1
		case a.Prob < b.Prob:
			return 1
		}
		return cmp.Compare(a.Site, b.Site)
	})
	w.out = out
	return out
}

// Apply rewrites prog with the plan's prefetch instructions appended to
// each site block's body, re-laying-out the address space (the paper's
// static code bloat and cache-line-content shift). It returns the
// rewritten program, built in one pass, and the number of insertions
// applied; insertions whose site or target does not resolve are skipped.
// prog does not change.
func Apply(prog *program.Program, plan *Plan) (*program.Program, int, error) {
	// Every address resolves against the original layout. A site's
	// prefetches go at the end of its body, just before the terminator
	// (the paper inserts "at the end of basic blocks that lead to the
	// high-impact instructions"), in plan order.
	pfs := make([]program.Prefetch, 0, len(plan.Insertions))
	for _, ins := range plan.Insertions {
		site, _, ok := prog.Locate(ins.Site)
		if !ok {
			continue
		}
		target, off, ok := prog.Locate(ins.Target)
		if !ok {
			continue
		}
		b, _ := prog.Block(site)
		pfs = append(pfs, program.Prefetch{Site: site, Pos: b.Body, Target: target, Offset: off})
	}
	rw, err := prog.InsertPrefetches(pfs)
	if err != nil {
		return nil, 0, fmt.Errorf("asmdb: applying insertions: %w", err)
	}
	return rw, len(pfs), nil
}

// Triggers builds the no-insertion-overhead trigger table: when any
// instruction of a site block is pushed into the FTQ, the target line is
// prefetched, with no instruction inserted and no address shift (the
// paper's idealized AsmDB).
func Triggers(prog *program.Program, plan *Plan) map[isa.Addr][]isa.Addr {
	out := make(map[isa.Addr][]isa.Addr, len(plan.Insertions))
	for _, ins := range plan.Insertions {
		if _, _, ok := prog.Locate(ins.Site); !ok {
			continue
		}
		out[ins.Site] = append(out[ins.Site], ins.Target)
	}
	return out
}
