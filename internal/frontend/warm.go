package frontend

import (
	"frontsim/internal/cache"
	"frontsim/internal/isa"
)

// SetFill enables or disables the fill engine. Sampled simulation
// (internal/core) gates fill off while a measured window's tail drains out
// of the FTQ and ROB: delivery, dispatch and retirement continue, but no
// new blocks enter, so the window boundary is crisp. While gated, Cycle
// still releases due software prefetches and the FTQ still ticks; only the
// fill loop (and its stall accounting) is suspended.
func (f *Frontend) SetFill(enabled bool) { f.fillGated = !enabled }

// WarmFunctional consumes up to n program (non-prefetch) instructions from
// the true-path source with no cycle accounting at all — the functional
// phase of SMARTS-style sampled simulation. Content state stays warm:
//
//   - instruction lines, the I-TLB and lower levels warm through the
//     hierarchy's Warm path (no timing, no counters);
//   - loads and stores warm the data path;
//   - the shadow decoder observes branches and pre-fills the BTB exactly
//     as detailed fetch would;
//   - branch predictors train on every block-ending branch (the predicted
//     path is ignored — there is no fill to steer);
//   - the hardware prefetcher observes fetches and its issued fills warm
//     content-only; software-prefetch instructions and trigger-table
//     entries likewise warm their targets immediately.
//
// The work runs as two stages on two goroutines. The caller reads the
// source, drives the shadow decoder and the predictors, and appends the
// memory side of each instruction to an op stream; a worker owns the
// hierarchy and the prefetcher and applies the ops in stream order. The
// two sides share no state, and each component sees exactly the calls,
// in exactly the order, of a serial walk. The worker is joined before
// WarmFunctional returns; a panic in it is re-raised here.
//
// Crucially the fill sequence counter does not advance: functionally
// consumed instructions never enter the FTQ or the back-end, so the
// front-end/back-end sequence lockstep (branch resolution is keyed by fill
// order) is preserved across the phase.
//
// It consumes whole basic blocks, so it may overshoot n by at most one
// block; the return value is the exact program-instruction count consumed,
// which is less than n only when the source drained. now is the frozen
// simulation cycle, passed to the prefetcher for its timestamp bookkeeping.
func (f *Frontend) WarmFunctional(n int64, now cache.Cycle) int64 {
	p := f.warmPipe()
	go p.run(now)
	defer f.joinWarm(p)
	ops := <-p.free // every chunk is free between calls
	sd, trig := f.sd, f.trigFilter
	var consumed int64
	var lastLine isa.Addr = ^isa.Addr(0)
	for consumed < n {
		blk := f.nextBlock()
		if len(blk) == 0 {
			break
		}
		if cap(ops)-len(ops) < 2*len(blk) {
			ops = p.next(ops)
		}
		consumed += int64(len(blk))
		for i := range blk {
			in := &blk[i]
			if line := in.PC.Line(); line != lastLine {
				lastLine = line
				ops = append(ops, uint64(line)|opFetch)
				if sd != nil {
					for _, sb := range sd.DecodeLine(line) {
						f.bp.ShadowInstall(sb)
					}
				}
			}
			switch {
			case in.Class.IsMem():
				ops = append(ops, uint64(in.DataAddr.Line())|opData)
			case in.Class == isa.ClassSwPrefetch:
				ops = append(ops, uint64(in.Target.Line())|opPrefetch)
				consumed-- // prefetches are not program instructions
			}
			if trig != nil {
				h := trigHash(in.PC)
				if trig[h>>6]&(1<<(h&63)) != 0 {
					for _, t := range f.triggers[in.PC] {
						if len(ops) == cap(ops) {
							ops = p.next(ops)
						}
						ops = append(ops, uint64(t.Line())|opPrefetch)
					}
				}
			}
		}
		if last := &blk[len(blk)-1]; last.Class.IsBranch() {
			if sd != nil {
				sd.Observe(*last)
			}
			f.bp.PredictAndTrain(*last)
		}
	}
	p.send(ops)
	return consumed
}

// Warm ops: one per uint64, a line-aligned address with its kind in the
// low bits. Prefetch targets and data addresses travel as their lines:
// the hierarchy's warm paths reduce both to the line and to its I-TLB
// page, and a page is never smaller than a line.
const (
	// opFetch is a demand fetch of a new line: the L1-I presence probe,
	// WarmInstr, then the prefetcher's observation, whose issued fills
	// warm at once. The prefetcher's hit flag is the probe's result, the
	// line's presence before warming, as the detailed path's access
	// would have seen it.
	opFetch uint64 = iota
	// opData is a load or store: WarmData.
	opData
	// opPrefetch is a software or trigger-table prefetch:
	// WarmPrefetchInstr.
	opPrefetch

	opKindMask uint64 = isa.LineSize - 1
)

// warmChunkOps sizes a chunk of ops. A chunk covers a few thousand
// instructions: large enough that the channel hand-off is noise, small
// enough that the stages overlap for all but one chunk per call.
// warmChunks chunks circulate, so the caller can run that many chunks
// ahead of the worker.
const (
	warmChunkOps = 4096
	warmChunks   = 4
)

// warmPipeline connects the two stages of WarmFunctional. Its chunks and
// channels are made on a Frontend's first functional phase and reused by
// every later one, so exact runs never allocate them and sampled runs
// allocate them once. The worker owns mem and pf for the duration of a
// call; chunks are copied values, so it never sees the caller's block
// buffer.
type warmPipeline struct {
	full chan []uint64 // filled chunks in stream order; nil ends a call
	free chan []uint64 // applied chunks, back to the caller
	done chan any      // the worker's exit: nil, or the value it panicked with
	dead bool          // the caller has already received the worker's panic

	mem   *cache.Hierarchy
	pf    cache.InstrPrefetcher
	issue func(isa.Addr) // the prefetcher's fill callback, bound once
}

func (f *Frontend) warmPipe() *warmPipeline {
	if f.warm != nil {
		return f.warm
	}
	p := &warmPipeline{
		full:  make(chan []uint64, warmChunks),
		free:  make(chan []uint64, warmChunks),
		done:  make(chan any, 1),
		mem:   f.mem,
		pf:    f.pf,
		issue: f.mem.WarmPrefetchInstr,
	}
	for i := 0; i < warmChunks; i++ {
		p.free <- make([]uint64, 0, warmChunkOps)
	}
	f.warm = p
	return p
}

// run is the worker stage: it applies chunks until a call's nil chunk and
// reports on done. A panic is reported there too, and the caller
// re-raises it.
func (p *warmPipeline) run(now cache.Cycle) {
	defer func() { p.done <- recover() }()
	for ops := <-p.full; ops != nil; ops = <-p.full {
		p.apply(ops, now)
		p.free <- ops[:0]
	}
}

func (p *warmPipeline) apply(ops []uint64, now cache.Cycle) {
	mem, pf := p.mem, p.pf
	for _, op := range ops {
		addr := isa.Addr(op &^ opKindMask)
		switch op & opKindMask {
		case opFetch:
			hit := mem.WarmInstr(addr)
			if pf != nil {
				pf.OnFetch(addr, now, hit, p.issue)
			}
		case opData:
			mem.WarmData(addr)
		default:
			mem.WarmPrefetchInstr(addr)
		}
	}
}

// next hands a filled chunk to the worker and returns an empty one.
func (p *warmPipeline) next(ops []uint64) []uint64 {
	p.send(ops)
	select {
	case free := <-p.free:
		return free
	case v := <-p.done:
		p.dead = true
		panic(v)
	}
}

// send queues a chunk for the worker. If the worker has died instead, its
// panic is re-raised here.
func (p *warmPipeline) send(ops []uint64) {
	select {
	case p.full <- ops:
	case v := <-p.done:
		p.dead = true
		panic(v)
	}
}

// joinWarm ends a functional phase on every path out of WarmFunctional: it
// tells a live worker the call is over, waits for it to exit, and
// re-raises a panic it reports. A phase that ends in a panic on either
// side leaves chunks unaccounted for, so the pipeline is dropped and the
// next phase builds a fresh one.
func (f *Frontend) joinWarm(p *warmPipeline) {
	var v any
	if !p.dead {
		select {
		case p.full <- nil:
			v = <-p.done
		case v = <-p.done:
		}
	}
	if len(p.free) != warmChunks {
		f.warm = nil
	}
	if v != nil {
		panic(v)
	}
}
