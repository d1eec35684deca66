// Package cfg builds the profiling control-flow graph AsmDB consumes: basic
// blocks as nodes, dynamic control transfers as weighted edges, and per-
// block L1-I miss counts. The paper's AsmDB collects this from Intel LBR
// samples on production machines; here the profile comes from a pass over
// the workload's dynamic stream against a standalone L1-I cache model (see
// DESIGN.md §2 — the consumer only needs the weighted CFG and the miss
// ranking, not the mechanism that produced them). A block is one run of
// the stream as trace.BlockSource cuts it for the front-end's FTQ.
package cfg

import (
	"errors"
	"fmt"
	"sort"

	"frontsim/internal/cache"
	"frontsim/internal/ftq"
	"frontsim/internal/isa"
	"frontsim/internal/trace"
)

// Node is one profiled basic block.
type Node struct {
	// PC is the block start address.
	PC isa.Addr
	// Instrs is the block length in instructions (largest observed; blocks
	// are re-split identically on every visit, so this is stable).
	Instrs int
	// Execs counts block executions.
	Execs int64
	// Misses counts L1-I line misses attributed to fetching this block.
	Misses int64
	// Succs and Preds hold dynamic edge counts keyed by neighbour start
	// PC.
	Succs map[isa.Addr]int64
	Preds map[isa.Addr]int64
}

// Graph is the profiled CFG.
type Graph struct {
	Nodes map[isa.Addr]*Node
	// Instructions is the total dynamic instruction count profiled.
	Instructions int64
	// TotalMisses sums per-node misses.
	TotalMisses int64
	// IPC is the measured baseline IPC supplied by the caller (used by
	// AsmDB's minimum-distance heuristic); zero when unknown.
	IPC float64
}

// Node returns the node at pc, or nil.
func (g *Graph) Node(pc isa.Addr) *Node { return g.Nodes[pc] }

// MPKI returns profiled L1-I misses per thousand instructions.
func (g *Graph) MPKI() float64 {
	if g.Instructions == 0 {
		return 0
	}
	return float64(g.TotalMisses) / float64(g.Instructions) * 1000
}

// RankedByMisses returns the nodes ordered by descending miss count,
// breaking ties by PC for determinism.
func (g *Graph) RankedByMisses() []*Node {
	out := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Misses > 0 {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Misses != out[j].Misses {
			return out[i].Misses > out[j].Misses
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// EdgeProb returns the probability that execution of from continues to to,
// estimated from dynamic edge counts.
func (g *Graph) EdgeProb(from, to isa.Addr) float64 {
	n := g.Nodes[from]
	if n == nil || n.Execs == 0 {
		return 0
	}
	return float64(n.Succs[to]) / float64(n.Execs)
}

// Options configures profiling.
type Options struct {
	// IPC records the measured baseline IPC into the graph.
	IPC float64
}

// flatMemory terminates the profiling cache: timing is irrelevant here,
// only hit/miss classification.
type flatMemory struct{}

func (flatMemory) Access(lineAddr isa.Addr, now cache.Cycle, kind cache.AccessKind) cache.Cycle {
	return now + 1
}

// Profile consumes src and builds the weighted CFG with miss attribution
// against the paper's 32 KiB, 8-way L1-I. It reads src through trace.Blocks
// in runs of ftq.MaxBlockInstrs and adds each run as one block, so profiled
// blocks are the FTQ's entries. Callers bound the stream with
// trace.NewLimit.
func Profile(src trace.Source, opts Options) (*Graph, error) {
	l1, err := cache.NewLevel(cache.LevelConfig{Name: "prof-L1I", SizeBytes: 32 << 10, Ways: 8, HitLatency: 1, Repl: cache.ReplLRU}, flatMemory{})
	if err != nil {
		return nil, fmt.Errorf("cfg: building profiling cache: %w", err)
	}

	g := &Graph{Nodes: make(map[isa.Addr]*Node), IPC: opts.IPC}
	var (
		prev  *Node
		now   cache.Cycle
		block = make([]isa.Instr, 0, ftq.MaxBlockInstrs)
	)
	blocks := trace.Blocks(src)
	for {
		block, err = blocks.NextBlock(block[:0], ftq.MaxBlockInstrs)
		if err != nil && !errors.Is(err, trace.ErrEnd) {
			return nil, fmt.Errorf("cfg: reading stream: %w", err)
		}
		if len(block) == 0 {
			return g, nil
		}
		g.Instructions += int64(len(block))
		start := block[0].PC
		n := g.Nodes[start]
		if n == nil {
			n = &Node{PC: start, Succs: make(map[isa.Addr]int64), Preds: make(map[isa.Addr]int64)}
			g.Nodes[start] = n
		}
		if len(block) > n.Instrs {
			n.Instrs = len(block)
		}
		n.Execs++
		// Attribute line misses to the block initiating the fetch.
		first := block[0].PC.Line()
		last := block[len(block)-1].PC.Line()
		for line := first; line <= last; line += isa.LineSize {
			now++
			before := l1.Stats().Misses
			l1.Access(line, now, cache.Demand)
			if l1.Stats().Misses > before {
				n.Misses++
				g.TotalMisses++
			}
		}
		if prev != nil {
			prev.Succs[start]++
			n.Preds[prev.PC]++
		}
		prev = n
		if err != nil {
			return g, nil
		}
	}
}

// Validate checks graph invariants: edge flow conservation (outgoing edge
// counts never exceed executions plus one for the final open block) and
// Pred/Succ symmetry. Intended for tests.
func (g *Graph) Validate() error {
	for pc, n := range g.Nodes {
		if n.PC != pc {
			return fmt.Errorf("cfg: node keyed %v has PC %v", pc, n.PC)
		}
		var out int64
		for succ, c := range n.Succs {
			if c <= 0 {
				return fmt.Errorf("cfg: non-positive edge %v->%v", pc, succ)
			}
			s := g.Nodes[succ]
			if s == nil {
				return fmt.Errorf("cfg: dangling edge %v->%v", pc, succ)
			}
			if s.Preds[pc] != c {
				return fmt.Errorf("cfg: asymmetric edge %v->%v: %d vs %d", pc, succ, c, s.Preds[pc])
			}
			out += c
		}
		if out > n.Execs {
			return fmt.Errorf("cfg: node %v out-flow %d exceeds execs %d", pc, out, n.Execs)
		}
	}
	return nil
}
