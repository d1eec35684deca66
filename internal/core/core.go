// Package core assembles the whole simulated machine — decoupled FDP
// front-end, simplified OoO back-end, and the cache hierarchy — and runs
// trace-driven simulations with warmup handling, producing the full
// statistics snapshot behind every figure in the paper.
package core

import (
	"context"
	"errors"
	"fmt"

	"frontsim/internal/backend"
	"frontsim/internal/bpu"
	"frontsim/internal/cache"
	"frontsim/internal/frontend"
	"frontsim/internal/ftq"
	"frontsim/internal/isa"
	"frontsim/internal/obs"
	"frontsim/internal/trace"
)

// Config is the whole-machine configuration (the paper's Table I). It is
// plain data that any number of runs may share, concurrently too: each
// run builds its own machine from it, hardware prefetcher included. Obs
// is the exception, a sink that observes one run.
type Config struct {
	Name     string
	Frontend frontend.Config
	Backend  backend.Config
	Memory   cache.HierarchyConfig
	// DecodeWidth caps instructions moved from the FTQ to the back-end per
	// cycle.
	DecodeWidth int
	// WarmupInstrs are program instructions executed before statistics
	// reset.
	WarmupInstrs int64
	// MaxInstrs are program (non-prefetch) instructions measured after
	// warmup; the run ends when they retire or the source ends. In sampled
	// mode (Sampling.Enabled) it is the post-warm-up coverage budget:
	// functional gaps, detailed warm-up, measured windows and drains all
	// count toward it, so sampled and exact runs traverse the same stream
	// region.
	MaxInstrs int64
	// Sampling, when enabled, runs the simulation in SMARTS-style
	// systematic sampling mode: WarmupInstrs are consumed functionally,
	// then detailed windows of Sampling.DetailInstrs (each preceded by a
	// Sampling.WarmInstrs timing ramp) alternate with functional gaps, one
	// window per Sampling.IntervalInstrs. Per-window IPC samples feed the
	// confidence interval reported in Stats.Sampling. The whole block is
	// fingerprinted: sampled and exact runs never share cache entries.
	Sampling SamplingConfig
	// Triggers optionally maps trigger PCs to prefetch targets for the
	// no-insertion-overhead software prefetching mode.
	Triggers map[isa.Addr][]isa.Addr
	// Audit enables per-cycle invariant checking: FTQ cycle-conservation
	// (Scenario 1+2+3+empty == ticked cycles), occupancy bounds, and
	// in-order-delivery invariants, panicking with a minimal repro dump
	// (config fingerprint + cycle) on the first violation. Auditing is
	// pure observation — it cannot change simulated results — so it is
	// excluded from the fingerprint and audited and unaudited runs share
	// cache entries. The `audit` build tag forces it on for every run.
	Audit bool `json:"-"`
	// Obs, when non-nil, attaches an observability sink: a per-cycle
	// time-series sampler (at the sink's stride) plus structured front-end
	// events, threaded through the FTQ, fill engine and L1-I. Observation
	// is strictly read-only — simulated results are bit-identical with it
	// on or off — so, like Audit, it is excluded from the fingerprint and
	// observed and unobserved runs share cache entries.
	Obs obs.Sink `json:"-"`
	// FastForward enables the event-driven cycle-skipping fast path: when
	// the machine provably cannot change state before a known future cycle
	// (NextEventCycle), Run advances there in one jump, bulk-updating the
	// per-cycle counters algebraically instead of ticking through the
	// span (see DESIGN §10). The skipped cycles are accounted exactly, so
	// results are byte-identical with it on or off — pinned by
	// FuzzFastForwardEquivalence and internal/experiment.TestConformance —
	// and, like Audit and Obs, it is excluded from the fingerprint:
	// fast-forwarded and cycle-stepped runs share run-cache entries. Every
	// experiment cell and cmd/fesim run sets it; the cycle-by-cycle loop
	// stays as the reference the step-vs-jump tests compare against.
	FastForward bool `json:"-"`
}

// DefaultConfig returns the Table I machine with the industry-standard
// (24-entry FTQ) front-end.
func DefaultConfig() Config {
	return Config{
		Name:         "fdp24",
		Frontend:     frontend.DefaultConfig(),
		Backend:      backend.DefaultConfig(),
		Memory:       cache.DefaultHierarchyConfig(),
		DecodeWidth:  6,
		WarmupInstrs: 200_000,
		MaxInstrs:    2_000_000,
	}
}

// ConservativeConfig returns the Table I machine with the conservative
// 2-entry FTQ front-end.
func ConservativeConfig() Config {
	c := DefaultConfig()
	c.Name = "conservative"
	c.Frontend = frontend.ConservativeConfig()
	return c
}

// Validate checks every component configuration.
func (c Config) Validate() error {
	if c.DecodeWidth <= 0 {
		return fmt.Errorf("core: DecodeWidth %d", c.DecodeWidth)
	}
	if c.WarmupInstrs < 0 || c.MaxInstrs <= 0 {
		return fmt.Errorf("core: instruction budget warmup=%d max=%d", c.WarmupInstrs, c.MaxInstrs)
	}
	if err := c.Sampling.Validate(); err != nil {
		return err
	}
	if err := c.Frontend.Validate(); err != nil {
		return err
	}
	if err := c.Backend.Validate(); err != nil {
		return err
	}
	return c.Memory.Validate()
}

// Stats is the post-run statistics snapshot (warmup excluded).
type Stats struct {
	Config string

	Cycles int64
	// Instructions counts retired program instructions; software
	// prefetches are reported separately and excluded from IPC, matching
	// the paper's accounting.
	Instructions     int64
	SwPrefetchInstrs int64

	FTQ      ftq.Stats
	Frontend frontend.Stats
	BPU      bpu.Stats
	Backend  backend.Stats

	L1I cache.Stats
	L1D cache.Stats
	L2  cache.Stats
	LLC cache.Stats
	// ITLB holds instruction-TLB counters; all-zero when the config leaves
	// the TLB model disabled (Memory.ITLB.Entries == 0).
	ITLB cache.TLBStats

	DRAMAccesses int64
	DRAMQueueing int64

	// WarmupOvershoot counts the program instructions that retired past
	// WarmupInstrs before measurement began: the warmup flip is evaluated
	// once per cycle, so up to RetireWidth-1 instructions can slip into
	// warmup. They are excluded from the measured counters above; this
	// records how many, so warmup-boundary sensitivity is visible instead
	// of silent.
	WarmupOvershoot int64

	// Sampling carries a sampled run's coverage accounting and per-window
	// IPC estimate (mean, variance, 95% confidence interval); nil for
	// exact runs. In sampled snapshots every counter above is the sum over
	// the measured windows only, so IPC() is the ratio estimate across all
	// sampled cycles.
	Sampling *SamplingStats `json:",omitempty"`

	// Prefetcher holds the attached prefetcher's own counters, if any.
	Prefetcher *PrefetcherStats `json:",omitempty"`
}

// IPC returns retired program instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// L1IMPKI returns L1-I demand misses per thousand program instructions.
func (s *Stats) L1IMPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L1I.Misses) / float64(s.Instructions) * 1000
}

// DynamicBloat returns the fraction of extra fetched instructions due to
// software prefetches (Fig. 7b's metric).
func (s *Stats) DynamicBloat() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.SwPrefetchInstrs) / float64(s.Instructions)
}

// Sim is one simulation instance.
type Sim struct {
	cfg Config
	fe  *frontend.Frontend
	be  *backend.Backend
	mem *cache.Hierarchy

	now      cache.Cycle
	buf      []isa.Instr
	measured bool
	startCyc cache.Cycle

	// warmupOvershoot is the retired-instruction overshoot captured at the
	// warmup flip (see Stats.WarmupOvershoot).
	warmupOvershoot int64

	// obsStride caches the sink's sampling period (0 when no sink).
	obsStride cache.Cycle

	// auditCheck, when non-nil, runs at the end of every cycle and its
	// error panics the run with an AuditViolation repro dump. It defaults
	// to the front-end's CheckInvariants; tests inject failures here.
	auditCheck func(cache.Cycle) error

	// samp is the sampled-mode controller, nil for exact runs.
	samp *samplingState

	// ra reads the source's runs ahead of the front-end while RunCtx runs.
	ra *trace.ReadAhead
}

// New builds a simulator over the given true-path source.
func New(cfg Config, src trace.Source) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mem, err := cache.NewHierarchy(cfg.Memory)
	if err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, mem: mem, buf: make([]isa.Instr, 0, cfg.DecodeWidth)}
	// The front-end asks for every run with MaxBlockInstrs, so that is what
	// the producer reads.
	s.ra = trace.NewReadAhead(trace.Blocks(src), ftq.MaxBlockInstrs)
	fe, err := frontend.New(cfg.Frontend, s.ra, mem, cfg.Triggers)
	if err != nil {
		return nil, err
	}
	be, err := backend.New(cfg.Backend, mem, fe)
	if err != nil {
		return nil, err
	}
	s.fe = fe
	s.be = be
	if cfg.Sampling.Enabled() {
		s.samp = &samplingState{cfg: cfg.Sampling}
	}
	if s.auditing() {
		s.auditCheck = fe.CheckInvariants
	}
	if cfg.Obs != nil {
		fe.SetObserver(cfg.Obs)
		mem.SetObserver(cfg.Obs)
		s.obsStride = cfg.Obs.SampleStride()
		if s.obsStride <= 0 {
			s.obsStride = 1
		}
	}
	return s, nil
}

// Hierarchy exposes the memory system (examples and tests).
func (s *Sim) Hierarchy() *cache.Hierarchy { return s.mem }

// Now returns the current cycle (the next cycle Step will simulate).
func (s *Sim) Now() cache.Cycle { return s.now }

// Retired returns the program instructions retired so far in the current
// phase (the counter resets at the warmup boundary).
func (s *Sim) Retired() int64 { return s.be.RetiredProgramCount() }

// Frontend exposes the front-end (examples and tests).
func (s *Sim) Frontend() *frontend.Frontend { return s.fe }

// Done reports that the run has reached its post-warmup instruction
// budget, or that the source drained and the pipeline emptied. Like the
// historical Run loop it performs the warmup flip before the termination
// checks, so the flip-before-check ordering is preserved no matter how
// Done and Step calls interleave. In sampled mode it additionally drives
// the sampling state machine (functional phases run inline here, between
// cycles), so external drivers keep the canonical shape:
//
//	for !sim.Done() { sim.Step() }
func (s *Sim) Done() bool {
	if s.samp != nil {
		s.sampleSync()
		return s.samp.phase == sampDone
	}
	rp := s.be.RetiredProgramCount()
	if !s.measured && rp >= s.cfg.WarmupInstrs {
		s.beginMeasurement()
		rp = s.be.RetiredProgramCount() // counters reset at the flip
	}
	if s.measured && rp >= s.cfg.MaxInstrs {
		return true
	}
	return s.fe.Done() && s.be.Drained()
}

// Step advances the machine by exactly one cycle — warmup flip, front-end
// fill, dispatch, retire, audit, observation sample — and returns the
// number of instructions retired that cycle. Run drives it internally;
// external drivers (cmd/ftqtrace) use it for cycle-resolved control:
//
//	for !sim.Done() { sim.Step() }
func (s *Sim) Step() int {
	if s.samp == nil && !s.measured && s.be.RetiredProgramCount() >= s.cfg.WarmupInstrs {
		s.beginMeasurement()
	}
	s.fe.Cycle(s.now)
	budget := s.be.DispatchBudget()
	if budget > s.cfg.DecodeWidth {
		budget = s.cfg.DecodeWidth
	}
	if budget > 0 {
		s.buf = s.fe.Dequeue(s.now, budget, s.buf[:0])
		if len(s.buf) > 0 {
			s.be.Dispatch(s.buf, s.now)
		}
	}
	retired := s.be.Retire(s.now)
	if s.auditCheck != nil {
		s.audit(s.now)
	}
	if s.cfg.Obs != nil && s.now%s.obsStride == 0 {
		s.sample()
	}
	s.now++
	return retired
}

// sample emits one time-series point reflecting end-of-cycle state.
func (s *Sim) sample() {
	fes := s.fe.Stats()
	q := s.fe.FTQ()
	s.cfg.Obs.Sample(obs.Sample{
		Cycle:        int64(s.now),
		Retired:      s.be.Stats().RetiredProgram,
		FTQOcc:       q.Len(),
		FTQReadyMask: q.ReadyMask(s.now),
		Scenario:     q.LastState(),
		FillStall:    s.fe.FillStalled(),
		L1IAccesses:  s.mem.L1I.Stats().Accesses,
		L1IMisses:    s.mem.L1I.Stats().Misses,
		L2Misses:     s.mem.L2.Stats().Misses,
		SwPrefetches: fes.SwPrefetchesIssued + fes.TriggerPrefetchesIssued,
	})
}

// Run simulates until MaxInstrs program instructions retire after warmup,
// or the source drains. It returns the measured statistics. Run is the
// non-cancellable compatibility surface; anything that can be abandoned
// (the serve layer, the experiment harness's cells) calls RunCtx.
func (s *Sim) Run() (Stats, error) {
	return s.RunCtx(context.Background()) //lint:allow ctx-less wrapper by contract: callers with a lifetime use RunCtx
}

// cancelCheckInterval bounds how stale a cancellation can go unnoticed in
// cycle-stepping mode: ctx.Err takes a lock, so polling it every cycle
// would tax the hot loop; polling every few thousand cycles keeps the
// overhead unmeasurable while an abandoned run still stops within
// microseconds of wall time.
const cancelCheckInterval = 4096

// RunCtx is Run with cooperative cancellation. The context is polled only
// at cycle boundaries — every fast-forward jump, or every
// cancelCheckInterval plain steps — so a cancelled run always stops
// between fully-simulated cycles: every invariant the per-cycle audit
// checks still holds, and the partial counters (Snapshot) are internally
// consistent, never torn mid-cycle. On cancellation it returns zero Stats
// and an error wrapping ctx.Err(); the caller must not cache or publish
// results from a cancelled run.
//
// Cancellation never perturbs a run that completes: the poll is pure
// observation, so a run that finishes before its context dies is
// byte-identical to an uncancelled one (internal/experiment.TestConformance
// runs one mode under a live context).
//
// The source belongs to RunCtx while it runs. It is read on a second
// goroutine, ahead of the front-end, in the same runs the front-end would
// read itself; that goroutine is joined on every path out of RunCtx, and a
// panic in the source is re-raised here with the same value. Runs it read
// ahead and the run did not use stay queued for later Steps.
func (s *Sim) RunCtx(ctx context.Context) (Stats, error) {
	s.ra.Start()
	defer s.ra.Stop()
	const idleLimit = 1_000_000 // cycles without retirement => wedged
	idle := cache.Cycle(0)
	cancellable := ctx.Done() != nil
	sinceCheck := 0
	for !s.Done() {
		if cancellable {
			sinceCheck++
			if s.cfg.FastForward || sinceCheck >= cancelCheckInterval {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					return Stats{}, fmt.Errorf("core: run cancelled at cycle %d: %w", s.now, err)
				}
			}
		}
		retired := 0
		if s.cfg.FastForward {
			// Skipped spans retire nothing by construction, so they count
			// toward the idle window exactly as stepping through them would.
			n, r := s.StepN()
			retired = r
			idle += n - 1
		} else {
			retired = s.Step()
		}
		if retired == 0 {
			idle++
			if idle > idleLimit {
				return Stats{}, fmt.Errorf("core: no retirement for %d cycles at cycle %d (wedged pipeline)", idleLimit, s.now)
			}
		} else {
			idle = 0
		}
	}
	if err := s.fe.Err(); err != nil && !errors.Is(err, trace.ErrEnd) {
		return Stats{}, fmt.Errorf("core: source failed: %w", err)
	}
	if s.samp != nil {
		st := s.samp.finish(s.cfg.Name)
		st.Prefetcher = s.prefetcherStats()
		return st, nil
	}
	if !s.measured {
		// The source ended during warmup; measure what we have.
		s.startCyc = 0
	}
	return s.snapshot(), nil
}

// beginMeasurement resets all statistics at the warmup boundary, keeping
// microarchitectural state (caches, predictors) warm.
func (s *Sim) beginMeasurement() {
	s.measured = true
	s.startCyc = s.now
	// The flip is evaluated once per cycle, so the boundary can land up to
	// RetireWidth-1 instructions past WarmupInstrs; record the overshoot
	// before the counters reset.
	s.warmupOvershoot = s.be.RetiredProgramCount() - s.cfg.WarmupInstrs
	s.fe.ResetStats()
	s.be.ResetStats()
	s.mem.ResetStats()
}

func (s *Sim) snapshot() Stats {
	be := s.be.Stats()
	return Stats{
		Config:           s.cfg.Name,
		Cycles:           int64(s.now - s.startCyc),
		Instructions:     be.RetiredProgram,
		SwPrefetchInstrs: be.RetiredSwPf,
		FTQ:              s.fe.FTQ().Stats(),
		Frontend:         s.fe.Stats(),
		BPU:              s.fe.BPU().Stats(),
		Backend:          be,
		L1I:              s.mem.L1I.Stats(),
		L1D:              s.mem.L1D.Stats(),
		L2:               s.mem.L2.Stats(),
		LLC:              s.mem.LLC.Stats(),
		ITLB:             s.mem.ITLBStats(),
		DRAMAccesses:     s.mem.DRAM.Accesses(),
		DRAMQueueing:     s.mem.DRAM.QueueingCycles(),
		WarmupOvershoot:  s.warmupOvershoot,
		Prefetcher:       s.prefetcherStats(),
	}
}

// prefetcherStats reads the run's prefetcher's counters (PrefetchCounter).
func (s *Sim) prefetcherStats() *PrefetcherStats {
	if pc, ok := s.fe.Prefetcher().(PrefetchCounter); ok {
		st := pc.PrefetchCounters()
		return &st
	}
	return nil
}

// Snapshot returns the statistics accumulated so far in the current
// measurement phase. Unlike Run's return value it is valid mid-run — in
// particular after a cancelled RunCtx — and, because RunCtx only stops at
// cycle boundaries, a post-cancellation snapshot satisfies the same
// invariants a completed run's does (the FTQ scenario partition sums to
// the cycle count, occupancy bounds hold, and so on).
func (s *Sim) Snapshot() Stats { return s.snapshot() }

// RunSource is a convenience: build a Sim over src and run it. Like Run,
// it is the non-cancellable compatibility surface over RunSourceCtx.
func RunSource(cfg Config, src trace.Source) (Stats, error) {
	return RunSourceCtx(context.Background(), cfg, src) //lint:allow ctx-less wrapper by contract: callers with a lifetime use RunSourceCtx
}

// RunSourceCtx is RunSource with cooperative cancellation (see RunCtx).
func RunSourceCtx(ctx context.Context, cfg Config, src trace.Source) (Stats, error) {
	s, err := New(cfg, src)
	if err != nil {
		return Stats{}, err
	}
	return s.RunCtx(ctx)
}
