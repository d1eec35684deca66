package cache

import (
	"fmt"

	"frontsim/internal/isa"
	"frontsim/internal/obs"
)

// HierarchyConfig sizes the whole memory system. Defaults mirror the
// paper's Table I machine (a Sunny-Cove-class core).
type HierarchyConfig struct {
	L1I  LevelConfig
	L1D  LevelConfig
	L2   LevelConfig
	LLC  LevelConfig
	DRAM DRAMConfig
	// ITLB optionally models an instruction TLB on the fetch path with
	// TLB-aware prefetch dropping; the zero value disables it (the
	// default machine has no TLB model, matching the paper's simulator).
	ITLB ITLBConfig
}

// DefaultHierarchyConfig returns the Table I memory system: 32 KiB/8-way
// L1-I (4-cycle), 48 KiB/12-way L1-D (5-cycle), 512 KiB/8-way L2
// (15-cycle), 2 MiB/16-way LLC (40-cycle), ~200-cycle DRAM.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:  LevelConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4, Repl: ReplLRU},
		L1D:  LevelConfig{Name: "L1D", SizeBytes: 48 << 10, Ways: 12, HitLatency: 5, Repl: ReplLRU},
		L2:   LevelConfig{Name: "L2", SizeBytes: 512 << 10, Ways: 8, HitLatency: 15, Repl: ReplLRU},
		LLC:  LevelConfig{Name: "LLC", SizeBytes: 2 << 20, Ways: 16, HitLatency: 40, Repl: ReplSRRIP},
		DRAM: DRAMConfig{Latency: 200, BusCycles: 4, Channels: 2},
	}
}

// Validate checks every component.
func (c HierarchyConfig) Validate() error {
	for _, lc := range []LevelConfig{c.L1I, c.L1D, c.L2, c.LLC} {
		if err := lc.Validate(); err != nil {
			return err
		}
	}
	if err := c.ITLB.Validate(); err != nil {
		return err
	}
	return c.DRAM.Validate()
}

// Hierarchy wires the levels together: both L1s miss to a unified L2, which
// misses to the LLC, which misses to DRAM.
type Hierarchy struct {
	L1I  *Level
	L1D  *Level
	L2   *Level
	LLC  *Level
	DRAM *DRAM
	// ITLB is nil when the configuration disables the TLB model.
	ITLB *ITLB
}

// NewHierarchy constructs the memory system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dram, err := NewDRAM(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	llc, err := NewLevel(cfg.LLC, dram)
	if err != nil {
		return nil, err
	}
	l2, err := NewLevel(cfg.L2, llc)
	if err != nil {
		return nil, err
	}
	l1i, err := NewLevel(cfg.L1I, l2)
	if err != nil {
		return nil, err
	}
	l1d, err := NewLevel(cfg.L1D, l2)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, LLC: llc, DRAM: dram}
	if cfg.ITLB.Enabled() {
		if h.ITLB, err = NewITLB(cfg.ITLB); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// SetObserver attaches an observability sink to the instruction side (the
// L1-I, whose prefetch fills the front-end characterization cares about).
func (h *Hierarchy) SetObserver(s obs.Sink) { h.L1I.SetObserver(s) }

// FetchInstr requests the instruction cache line containing pc as a demand
// fetch and returns its availability cycle. With the I-TLB modelled, a
// translation miss adds the page-walk penalty to the completion; the L1-I
// access itself is untouched, so the cache-side stream is identical with
// the TLB on or off except where dropped prefetches changed the contents.
func (h *Hierarchy) FetchInstr(pc isa.Addr, now Cycle) Cycle {
	ready := h.L1I.Access(pc.Line(), now, Demand)
	if h.ITLB != nil {
		ready += h.ITLB.TranslateDemand(pc)
	}
	return ready
}

// PrefetchInstr fills the instruction line containing pc speculatively.
// With the I-TLB modelled in drop mode, a fill whose page is not resident
// is dropped before it reaches the L1-I (TLB-aware prefetch dropping).
func (h *Hierarchy) PrefetchInstr(pc isa.Addr, now Cycle) Cycle {
	if h.ITLB != nil {
		penalty, drop := h.ITLB.TranslatePrefetch(pc)
		if drop {
			return now
		}
		return h.L1I.Access(pc.Line(), now, Prefetch) + penalty
	}
	return h.L1I.Access(pc.Line(), now, Prefetch)
}

// ITLBStats returns the instruction-TLB counters (zero when disabled).
func (h *Hierarchy) ITLBStats() TLBStats {
	if h.ITLB == nil {
		return TLBStats{}
	}
	return h.ITLB.Stats()
}

// InstrPrefetcher is a hardware L1-I prefetcher: it observes demand line
// fetches and may issue speculative fills through a callback. An instance
// holds one run's learned state, so one run owns it.
type InstrPrefetcher interface {
	// OnFetch is called once per demand line fetch with whether it hit the
	// L1-I; issue fills the given line speculatively at the current cycle,
	// and is valid only during the call.
	OnFetch(line isa.Addr, now Cycle, hit bool, issue func(line isa.Addr))
}

// PrefetcherConfig configures a hardware L1-I prefetcher. It is plain
// data that any number of runs may share, concurrently too: each run
// builds its own prefetcher from it with New.
type PrefetcherConfig interface {
	// Validate checks the configuration.
	Validate() error
	// New builds a prefetcher with no learned state from a configuration
	// that Validate accepts.
	New() InstrPrefetcher
	// PrefetchFingerprint is the configuration's stable identity, which
	// the machine's fingerprint hashes (core.Config.Fingerprint).
	PrefetchFingerprint() string
}

// Load performs a demand data read.
func (h *Hierarchy) Load(addr isa.Addr, now Cycle) Cycle {
	return h.L1D.Access(addr.Line(), now, Demand)
}

// Store performs a demand data write (write-allocate, write-back; timing is
// the allocate path).
func (h *Hierarchy) Store(addr isa.Addr, now Cycle) Cycle {
	return h.L1D.Access(addr.Line(), now, Demand)
}

// ResetStats clears all level and DRAM counters, keeping contents warm.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.LLC.ResetStats()
	h.DRAM.ResetStats()
	if h.ITLB != nil {
		h.ITLB.ResetStats()
	}
}

// String summarizes the geometry, for Table I output.
func (h *Hierarchy) String() string {
	f := func(l *Level) string {
		c := l.Config()
		return fmt.Sprintf("%s %dKiB/%d-way %dcyc %s", c.Name, c.SizeBytes>>10, c.Ways, c.HitLatency, c.Repl)
	}
	return fmt.Sprintf("%s; %s; %s; %s; DRAM %dcyc", f(h.L1I), f(h.L1D), f(h.L2), f(h.LLC), h.DRAM.Config().Latency)
}
