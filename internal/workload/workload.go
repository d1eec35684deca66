// Package workload defines the 48 synthetic workloads standing in for the
// CVP-1 trace subset the paper evaluates (proprietary and unavailable; see
// DESIGN.md §2). Each workload is a generator Spec that deterministically
// builds a synthetic program (internal/program) whose gross properties —
// instruction footprint, basic-block size distribution, branch mix and
// bias, call-graph shape, data working set — are tuned per category so the
// suite's L1-I MPKI spans the paper's ~2–28 band on the 24-entry-FTQ
// baseline.
//
// The workload names mirror the paper's Figure 1 labels. Three categories
// drive the tuning: "crypto" (small, loopy kernels: low MPKI), "int"
// (medium footprints), and "srv" (server-like multi-megabyte instruction
// footprints with deep call stacks: high MPKI).
package workload

import (
	"fmt"

	"frontsim/internal/isa"
	"frontsim/internal/program"
	"frontsim/internal/trace"
	"frontsim/internal/xrand"
)

// Category classifies a workload's tuning regime.
type Category uint8

const (
	// Crypto models small compute kernels with tight loops.
	Crypto Category = iota
	// Integer models general-purpose medium-footprint code.
	Integer
	// Server models warehouse-scale services with large instruction
	// footprints and deep software stacks.
	Server
)

// String names the category.
func (c Category) String() string {
	switch c {
	case Crypto:
		return "crypto"
	case Integer:
		return "int"
	case Server:
		return "srv"
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// Spec fully determines a synthetic workload.
type Spec struct {
	Name     string
	Category Category
	Seed     uint64

	// Static shape.
	Funcs          int // total functions including the main dispatcher
	Levels         int // call-graph depth (functions call only the next level)
	Dispatchers    int // dispatcher blocks in main
	DispatchFanout int // candidate callees per dispatcher site
	BlocksPerFunc  int // mean basic blocks per function
	BodyLenMean    float64

	// Terminator mix for non-final blocks (remainder falls through).
	LoopFrac    float64
	CondFrac    float64
	CallFrac    float64
	JumpFrac    float64
	IndJumpFrac float64
	IndCallFrac float64

	LoopTripMean float64
	// BulkyFrac is the fraction of functions generated as long, mostly
	// straight-line code (serialization/logging-style paths). Cold visits
	// to bulky functions stream many sequential cache-line misses — the
	// pattern that lets a deep FTQ's out-of-order fetch overlap misses
	// while a 2-entry FTQ serializes them.
	BulkyFrac float64
	// Stickiness is the probability a branch repeats its previous dynamic
	// outcome (temporal correlation); it is what makes the synthetic
	// branches realistically predictable rather than capped at their
	// static bias.
	Stickiness float64
	// CalleeSkew shapes the hot/cold callee weight distribution; larger
	// values concentrate execution on fewer functions (smaller effective
	// instruction working set).
	CalleeSkew float64

	// Body instruction mix (remainder is ALU).
	LoadFrac  float64
	StoreFrac float64
	MulFrac   float64

	// Data working set regions.
	HotDataBytes  uint64
	WarmDataBytes uint64
	ColdDataBytes uint64
}

// Validate sanity-checks the generator parameters.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if s.Funcs < 2 || s.Levels < 1 || s.Funcs-1 < s.Levels {
		return fmt.Errorf("workload %s: funcs=%d levels=%d", s.Name, s.Funcs, s.Levels)
	}
	if s.Dispatchers < 1 || s.DispatchFanout < 1 {
		return fmt.Errorf("workload %s: dispatchers=%d fanout=%d", s.Name, s.Dispatchers, s.DispatchFanout)
	}
	if s.BlocksPerFunc < 2 {
		return fmt.Errorf("workload %s: BlocksPerFunc=%d", s.Name, s.BlocksPerFunc)
	}
	if s.BodyLenMean < 1 || s.BodyLenMean > 7 {
		return fmt.Errorf("workload %s: BodyLenMean=%v", s.Name, s.BodyLenMean)
	}
	sum := s.LoopFrac + s.CondFrac + s.CallFrac + s.JumpFrac + s.IndJumpFrac + s.IndCallFrac
	if sum > 1 {
		return fmt.Errorf("workload %s: terminator fractions sum %v > 1", s.Name, sum)
	}
	if s.LoopTripMean < 1 {
		return fmt.Errorf("workload %s: LoopTripMean=%v", s.Name, s.LoopTripMean)
	}
	if s.BulkyFrac < 0 || s.BulkyFrac > 1 {
		return fmt.Errorf("workload %s: BulkyFrac=%v", s.Name, s.BulkyFrac)
	}
	if s.Stickiness < 0 || s.Stickiness >= 1 {
		return fmt.Errorf("workload %s: Stickiness=%v", s.Name, s.Stickiness)
	}
	if s.LoadFrac+s.StoreFrac+s.MulFrac > 1 {
		return fmt.Errorf("workload %s: body fractions exceed 1", s.Name)
	}
	if s.HotDataBytes == 0 || s.WarmDataBytes == 0 || s.ColdDataBytes == 0 {
		return fmt.Errorf("workload %s: zero data region", s.Name)
	}
	return nil
}

const (
	hotDataBase  = isa.Addr(0x10000000)
	warmDataBase = isa.Addr(0x20000000)
	coldDataBase = isa.Addr(0x40000000)
	codeBase     = isa.Addr(0x00400000)
)

// Build deterministically generates the workload's program.
func (s Spec) Build() (*program.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := &generator{
		spec: s,
		r:    xrand.New(s.Seed),
		hot:  program.Region{Base: hotDataBase, Size: s.HotDataBytes},
		warm: program.Region{Base: warmDataBase, Size: s.WarmDataBytes},
		cold: program.Region{Base: coldDataBase, Size: s.ColdDataBytes},
	}
	p, err := g.build()
	if err != nil {
		return nil, fmt.Errorf("workload %s: generated invalid program: %w", s.Name, err)
	}
	return p, nil
}

// NewSource builds the program and returns an executor over it. The
// executor seed is derived from (not equal to) the structural seed so the
// dynamic draws are independent of generation draws.
func (s Spec) NewSource() (trace.Source, error) {
	p, err := s.Build()
	if err != nil {
		return nil, err
	}
	return program.NewExecutor(p, s.Seed^0x5eed5eed5eed5eed), nil
}

type generator struct {
	spec            Spec
	r               *xrand.Rand
	hot, warm, cold program.Region
	b               *program.Builder
}
