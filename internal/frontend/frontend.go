// Package frontend implements the fetch-directed-prefetching (FDP)
// decoupled front-end the paper characterizes: a branch-predictor-driven
// run-ahead engine that fills the FTQ with basic blocks along the predicted
// path, issues their L1-I fetches out of order, delivers instructions to
// decode in order, applies post-fetch correction (PFC) for BTB-missed
// direct branches, and fires software instruction prefetches at pre-decode.
//
// Because the simulator is trace-driven, the fill engine walks the *true*
// dynamic path while consulting the predictors; when a prediction diverges
// from the truth the fill engine has gone down a wrong path and must stall
// until the divergence is corrected — at pre-decode for PFC-recoverable
// BTB misses, or at branch resolution in the back-end otherwise. This is
// the standard ChampSim-style FDP model from the papers we follow.
package frontend

import (
	"errors"
	"fmt"

	"frontsim/internal/bpu"
	"frontsim/internal/cache"
	"frontsim/internal/ftq"
	"frontsim/internal/isa"
	"frontsim/internal/obs"
	"frontsim/internal/trace"
)

// Config parameterizes the front-end.
type Config struct {
	// FTQEntries is the fetch target queue depth: 2 models the paper's
	// conservative front-end, 24 the industry-standard one.
	FTQEntries int
	// FillWidth is the maximum basic blocks entered into the FTQ per
	// cycle.
	FillWidth int
	// EnablePFC turns on post-fetch correction: a BTB-missed direct branch
	// is discovered when its cache line is pre-decoded instead of at
	// execution.
	EnablePFC bool
	// PFCDelay is the pre-decode latency applied to PFC recovery, counted
	// from the block's fetch completion.
	PFCDelay cache.Cycle
	// RedirectPenalty is the front-end restart latency after a branch
	// resolves in the back-end.
	RedirectPenalty cache.Cycle
	// PredecodeDelay is the latency from a block's fetch completion to its
	// software prefetches issuing.
	PredecodeDelay cache.Cycle
	// BPU configures the branch prediction structures.
	BPU bpu.Config
	// Prefetcher optionally configures a hardware L1-I prefetcher observing
	// demand fetches (e.g. next-line or an entangling prefetcher); New
	// builds the run's own prefetcher from it.
	Prefetcher cache.PrefetcherConfig
	// Shadow enables shadow-branch decoding: every fetched line's
	// decodable branches (learned on first execution, standing in for raw
	// byte decode in this trace-driven model) pre-fill BTB entries that
	// steer FDP past otherwise-undiscovered branches. The zero value
	// disables it.
	Shadow bpu.ShadowConfig
	// BTBL2FillPenalty is the fill bubble paid when a branch is found
	// only in the second BTB level (two-level BTB configurations; see
	// bpu.Config.L1BTBEntries). Ignored with a single-level BTB.
	BTBL2FillPenalty cache.Cycle
	// WrongPathDepth, when positive, models the front-end continuing to
	// fetch sequential cache lines past an undiscovered taken branch (the
	// not-taken assumption real FDP hardware makes while pre-decode is in
	// flight): that many lines beyond the divergence are fetched
	// speculatively. They pollute the L1-I and consume bandwidth but act
	// as incidental next-line prefetching — quantified by ablation A6.
	WrongPathDepth int
}

// DefaultConfig returns the industry-standard front-end (24-entry FTQ with
// PFC and GHR filtering, per Ishii et al.).
func DefaultConfig() Config {
	return Config{
		FTQEntries:      24,
		FillWidth:       2,
		EnablePFC:       true,
		PFCDelay:        2,
		RedirectPenalty: 8,
		PredecodeDelay:  1,
		// WrongPathDepth defaults to 0: the paper's own trace-driven
		// ChampSim model cannot fetch wrong-path lines either, and the
		// reproduction targets the paper's simulator. Set it positive for
		// the hardware-faithful not-taken streaming variant (ablation A6).
		WrongPathDepth:   0,
		BTBL2FillPenalty: 2,
		BPU:              bpu.DefaultConfig(),
	}
}

// ConservativeConfig returns the paper's conservative baseline: a 2-entry
// FTQ.
func ConservativeConfig() Config {
	c := DefaultConfig()
	c.FTQEntries = 2
	return c
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.FTQEntries <= 0 {
		return fmt.Errorf("frontend: FTQEntries %d", c.FTQEntries)
	}
	if c.FillWidth <= 0 {
		return fmt.Errorf("frontend: FillWidth %d", c.FillWidth)
	}
	if c.PFCDelay < 0 || c.RedirectPenalty < 0 || c.PredecodeDelay < 0 {
		return fmt.Errorf("frontend: negative latency")
	}
	if c.WrongPathDepth < 0 {
		return fmt.Errorf("frontend: WrongPathDepth %d", c.WrongPathDepth)
	}
	if c.BTBL2FillPenalty < 0 {
		return fmt.Errorf("frontend: BTBL2FillPenalty %d", c.BTBL2FillPenalty)
	}
	if err := c.Shadow.Validate(); err != nil {
		return err
	}
	if c.Prefetcher != nil {
		if err := c.Prefetcher.Validate(); err != nil {
			return err
		}
	}
	return c.BPU.Validate()
}

// Stats counts front-end fill behaviour beyond what the FTQ tracks.
type Stats struct {
	BlocksFilled int64
	InstrsFilled int64
	// FillStallCycles: cycles the fill engine was blocked on a wrong-path
	// condition (FTQ-full cycles are not stalls).
	FillStallCycles int64
	// WrongPathEvents by recovery point.
	PFCRecoveries     int64
	ExecuteRecoveries int64
	// SwPrefetchesIssued counts prefetches fired by fetched prefetch
	// instructions; TriggerPrefetchesIssued counts no-overhead trigger
	// table firings.
	SwPrefetchesIssued      int64
	TriggerPrefetchesIssued int64
	// WrongPathFetches counts speculative sequential line fetches issued
	// past an undiscovered taken branch (WrongPathDepth > 0).
	WrongPathFetches int64
	// BTBL2FillBubbles counts fill pauses caused by second-level BTB
	// promotions (two-level BTB configurations).
	BTBL2FillBubbles int64
}

// Frontend is the FDP engine.
type Frontend struct {
	cfg Config
	bp  *bpu.BPU
	// sd is the shadow-branch decoder, nil when cfg.Shadow is disabled.
	sd  *bpu.ShadowDecoder
	q   *ftq.FTQ
	mem *cache.Hierarchy
	src trace.BlockSource

	// triggers maps a trigger PC to target addresses prefetched when the
	// trigger's block completes fetch (AsmDB "no insertion overhead"
	// mode). trigFilter is a bitset over hashed trigger PCs consulted
	// before the map: the fill loop probes every filled instruction, and
	// almost none are triggers, so the lookup must be branch-cheap.
	// False positives only cost a map miss; membership is unchanged.
	triggers   map[isa.Addr][]isa.Addr
	trigFilter []uint64

	blockBuf []isa.Instr
	srcDone  bool
	srcErr   error

	// pending holds scheduled software prefetches (a min-heap on cycle).
	// Prefetches trigger at a block's pre-decode, which lies in the future
	// at push time; issuing them immediately with a future timestamp would
	// feed the hierarchy's bandwidth model out of chronological order, so
	// they are queued and released by Cycle.
	pending prefetchHeap

	seq int64 // dynamic index of the next instruction to fill

	// Wrong-path stall state: fill resumes at stallUntil when known, or
	// once the branch with sequence stallSeq resolves.
	stalled    bool
	stallUntil cache.Cycle
	stallSeq   int64

	// fillGated suspends the fill engine while sampled simulation drains a
	// measured window out of the pipeline (SetFill).
	fillGated bool

	sink obs.Sink // nil when observation is off

	// pf is the run's hardware prefetcher, built from cfg.Prefetcher (nil
	// without one). issue is its fill callback, bound once in New so the
	// fetch loop allocates no closure; it fills at issueAt, the cycle of
	// the fetch that is calling the prefetcher.
	pf      cache.InstrPrefetcher
	issue   func(isa.Addr)
	issueAt cache.Cycle

	// warm is the two-stage functional-warming pipeline, built by the
	// first WarmFunctional call (warm.go).
	warm *warmPipeline

	stats Stats
}

// New builds a front-end reading the true path from src and fetching
// through mem. triggers may be nil.
func New(cfg Config, src trace.Source, mem *cache.Hierarchy, triggers map[isa.Addr][]isa.Addr) (*Frontend, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bp, err := bpu.New(cfg.BPU)
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		cfg:      cfg,
		bp:       bp,
		q:        ftq.New(cfg.FTQEntries),
		mem:      mem,
		src:      trace.Blocks(src),
		triggers: triggers,
		stallSeq: -1,
		blockBuf: make([]isa.Instr, 0, ftq.MaxBlockInstrs),
	}
	f.issue = func(l isa.Addr) { f.mem.PrefetchInstr(l, f.issueAt) }
	if cfg.Prefetcher != nil {
		f.pf = cfg.Prefetcher.New()
	}
	if cfg.Shadow.Enabled() {
		if f.sd, err = bpu.NewShadowDecoder(cfg.Shadow); err != nil {
			return nil, err
		}
	}
	if len(triggers) > 0 {
		f.trigFilter = make([]uint64, trigFilterWords)
		//lint:allow detmap bitset ORs commute, so insertion order cannot escape
		for pc := range triggers {
			h := trigHash(pc)
			f.trigFilter[h>>6] |= 1 << (h & 63)
		}
	}
	return f, nil
}

// trigFilterWords sizes the trigger pre-filter at 2^18 bits (32 KiB);
// trigger tables hold a few thousand PCs, keeping false positives rare.
const trigFilterWords = 1 << 12

func trigHash(pc isa.Addr) uint64 {
	return (uint64(pc) >> 2) & (trigFilterWords*64 - 1)
}

// FTQ exposes the queue (stats and inspection).
func (f *Frontend) FTQ() *ftq.FTQ { return f.q }

// BPU exposes the branch predictors.
func (f *Frontend) BPU() *bpu.BPU { return f.bp }

// ShadowDecoder exposes the shadow-branch decoder (nil when disabled).
func (f *Frontend) ShadowDecoder() *bpu.ShadowDecoder { return f.sd }

// Prefetcher exposes the run's hardware prefetcher (nil without one).
func (f *Frontend) Prefetcher() cache.InstrPrefetcher { return f.pf }

// SetObserver attaches an observability sink to the front-end and its FTQ
// (nil detaches). Observation is strictly read-only.
func (f *Frontend) SetObserver(s obs.Sink) {
	f.sink = s
	f.q.SetObserver(s)
}

// FillStalled reports whether the fill engine is currently blocked on a
// wrong-path condition (for time-series sampling).
func (f *Frontend) FillStalled() bool { return f.stalled }

// Stats returns a snapshot of fill counters.
func (f *Frontend) Stats() Stats { return f.stats }

// ResetStats clears front-end, FTQ and BPU counters (warmup boundary).
func (f *Frontend) ResetStats() {
	f.stats = Stats{}
	f.q.ResetStats()
	f.bp.ResetStats()
}

// Err returns the source error, if the stream failed (ErrEnd is not an
// error).
func (f *Frontend) Err() error { return f.srcErr }

// Done reports that the source is exhausted and every instruction has left
// the FTQ.
func (f *Frontend) Done() bool {
	return f.srcDone && f.q.Empty()
}

// nextBlock reads the next basic block from the true-path stream: one run
// of the source, up to MaxBlockInstrs contiguous instructions ended early
// by any branch (trace.BlockSource). It is empty once the source is done.
func (f *Frontend) nextBlock() []isa.Instr {
	if f.srcDone {
		return nil
	}
	blk, err := f.src.NextBlock(f.blockBuf[:0], ftq.MaxBlockInstrs)
	if err != nil {
		f.srcDone = true
		if !errors.Is(err, trace.ErrEnd) {
			f.srcErr = err
		}
	}
	return blk
}

// Cycle advances the front-end by one cycle: accounts FTQ state, releases
// due software prefetches, then runs the fill engine.
func (f *Frontend) Cycle(now cache.Cycle) {
	f.q.Tick(now)
	for f.pending.Len() > 0 && f.pending.Min().at <= now {
		p := f.pending.Pop()
		f.mem.PrefetchInstr(p.target, now)
		trig := int64(0)
		if p.trigger {
			f.stats.TriggerPrefetchesIssued++
			trig = 1
		} else {
			f.stats.SwPrefetchesIssued++
		}
		if f.sink != nil {
			f.sink.Event(obs.Event{Cycle: int64(now), Kind: obs.EvPrefetchIssue, Addr: uint64(p.target), Arg: trig})
		}
	}
	if f.fillGated {
		// A gated cycle is a drain cycle, not a stall: the timed-stall
		// check below must not run, so a wrong-path stall neither counts
		// nor expires while the window boundary drains.
		return
	}
	if f.srcDone {
		return
	}
	if f.stalled {
		if f.stallSeq >= 0 || now < f.stallUntil {
			f.stats.FillStallCycles++
			return
		}
		f.stalled = false
	}
	for i := 0; i < f.cfg.FillWidth; i++ {
		if f.q.Full() {
			return
		}
		// Assemble the next block without consuming it past a failed push:
		// Push cannot fail here because we checked Full, and nextBlock
		// consumes from the stream.
		blk := f.nextBlock()
		if len(blk) == 0 {
			return
		}
		ready, ok := f.q.Push(blk, now, f.fetchLine)
		if !ok {
			// Unreachable: guarded by Full above. Keep the stream sane by
			// pushing back is impossible, so panic loudly.
			panic("frontend: FTQ push failed after Full check")
		}
		f.stats.BlocksFilled++
		f.stats.InstrsFilled += int64(len(blk))
		f.firePrefetches(blk, ready)
		blockSeq := f.seq
		f.seq += int64(len(blk))

		last := blk[len(blk)-1]
		if last.Class.IsBranch() {
			if f.sd != nil {
				// First execution "decodes" the branch into its line's
				// shadow record; later fetches of the line replay it.
				f.sd.Observe(last)
			}
			res := f.bp.PredictAndTrain(last)
			if !res.CorrectPath {
				f.stallFill(res, ready, blockSeq+int64(len(blk))-1, last.PC, now)
				f.fetchWrongPath(last, now)
				return
			}
			if res.BTBL2Fill && f.cfg.BTBL2FillPenalty > 0 {
				// The branch was identified from the second BTB level:
				// fill pays a promotion bubble but stays on the true path.
				f.stalled = true
				f.stallSeq = -1
				f.stallUntil = now + f.cfg.BTBL2FillPenalty
				f.stats.BTBL2FillBubbles++
				return
			}
		}
	}
}

func (f *Frontend) fetchLine(line isa.Addr, now cache.Cycle) cache.Cycle {
	ready := f.mem.FetchInstr(line, now)
	if f.sd != nil {
		// Shadow decode: pre-fill the BTB with the fetched line's known
		// decodable branches, never displacing trained entries.
		for _, sb := range f.sd.DecodeLine(line) {
			f.bp.ShadowInstall(sb)
		}
	}
	if f.pf != nil {
		hit := ready-now <= f.mem.L1I.Config().HitLatency
		f.issueAt = now
		f.pf.OnFetch(line, now, hit, f.issue)
	}
	return ready
}

// firePrefetches schedules software prefetches carried by the block
// (inserted prefetch instructions) and trigger-table prefetches
// (no-overhead mode), both timed at the block's pre-decode.
func (f *Frontend) firePrefetches(blk []isa.Instr, ready cache.Cycle) {
	at := ready + f.cfg.PredecodeDelay
	for _, in := range blk {
		if in.Class == isa.ClassSwPrefetch {
			f.pending.Push(pendingPrefetch{at: at, target: in.Target})
		}
		if f.trigFilter != nil {
			h := trigHash(in.PC)
			if f.trigFilter[h>>6]&(1<<(h&63)) == 0 {
				continue
			}
			if targets, ok := f.triggers[in.PC]; ok {
				for _, t := range targets {
					f.pending.Push(pendingPrefetch{at: at, target: t, trigger: true})
				}
			}
		}
	}
}

// stallFill suspends run-ahead after a wrong-path divergence.
func (f *Frontend) stallFill(res bpu.Result, blockReady cache.Cycle, branchSeq int64, branchPC isa.Addr, now cache.Cycle) {
	f.stalled = true
	if res.Recovery == bpu.RecoverPreDecode && f.cfg.EnablePFC {
		// Pre-decode of the fetched line exposes the direct branch; fill
		// resumes with the corrected history.
		f.stallUntil = blockReady + f.cfg.PFCDelay
		f.stallSeq = -1
		f.stats.PFCRecoveries++
		if f.sink != nil {
			f.sink.Event(obs.Event{Cycle: int64(now), Kind: obs.EvPFC, Addr: uint64(branchPC), Arg: int64(f.stallUntil)})
		}
		return
	}
	// Wait for the branch to resolve in the back-end.
	f.stallSeq = branchSeq
	f.stallUntil = 0
	f.stats.ExecuteRecoveries++
}

// fetchWrongPath models the not-taken assumption: while the divergence is
// unresolved, the fetch engine streams sequential lines past the branch.
// The trace cannot supply wrong-path instructions, but the addresses are
// known (sequential), so the cache-side effects are exact.
func (f *Frontend) fetchWrongPath(branch isa.Instr, now cache.Cycle) {
	if f.cfg.WrongPathDepth <= 0 {
		return
	}
	line := branch.PC.Line()
	for i := 1; i <= f.cfg.WrongPathDepth; i++ {
		f.mem.PrefetchInstr(line+isa.Addr(i*isa.LineSize), now)
		f.stats.WrongPathFetches++
	}
}

// OnBranchResolved informs the front-end that the dynamic instruction with
// the given fill sequence number (a branch) finished executing at cycle
// done. If fill is waiting on it, run-ahead resumes after the redirect
// penalty.
func (f *Frontend) OnBranchResolved(seq int64, done cache.Cycle) {
	if f.stalled && f.stallSeq == seq {
		f.stallSeq = -1
		f.stallUntil = done + f.cfg.RedirectPenalty
		if f.sink != nil {
			f.sink.Event(obs.Event{Cycle: int64(done), Kind: obs.EvRedirect, Arg: int64(f.stallUntil)})
		}
	}
}

// Dequeue pulls up to max fetched instructions in program order.
func (f *Frontend) Dequeue(now cache.Cycle, max int, out []isa.Instr) []isa.Instr {
	return f.q.PopReady(now, max, out)
}
