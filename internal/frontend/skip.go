package frontend

import "frontsim/internal/cache"

// FillBlockedUntil reports whether the fill engine can make no progress at
// cycle now, and if so the first cycle at which it might (cache.CycleMax
// when only an external event — a pop freeing an FTQ slot, or a branch
// dispatching — can unblock it). The checks mirror Cycle's early returns
// in order:
//
//   - a drained source never fills again;
//   - a wrong-path stall waiting on branch resolution (stallSeq >= 0)
//     clears only when the branch dispatches, which requires a pop;
//   - a timed stall (PFC, redirect, BTB promotion) clears at stallUntil;
//   - a full queue blocks fill until a pop frees a slot.
//
// Anything else means the fill engine would push blocks this cycle, so the
// fast-forward scheduler must not skip it.
func (f *Frontend) FillBlockedUntil(now cache.Cycle) (cache.Cycle, bool) {
	if f.fillGated {
		// A gated fill engine (sampled-mode drain, SetFill) does nothing
		// until an external actor re-enables it, which only happens between
		// cycles; within simulated time the block is indefinite.
		return cache.CycleMax, true
	}
	if f.srcDone {
		return cache.CycleMax, true
	}
	if f.stalled {
		if f.stallSeq >= 0 {
			return cache.CycleMax, true
		}
		if f.stallUntil > now {
			return f.stallUntil, true
		}
		return 0, false // stall expires this cycle; fill resumes
	}
	if f.q.Full() {
		return cache.CycleMax, true
	}
	return 0, false
}

// NextPendingPrefetchAt returns the release cycle of the earliest queued
// software prefetch, and ok=false when none are pending. Releases mutate
// the hierarchy, so the fast-forward scheduler bounds every jump by this.
func (f *Frontend) NextPendingPrefetchAt() (cache.Cycle, bool) {
	if f.pending.Len() == 0 {
		return 0, false
	}
	return f.pending.Min().at, true
}

// SkipTo bulk-accounts the front-end cycles [from, to), exactly as if
// Cycle had run once per cycle while FillBlockedUntil held for the whole
// span and no pending prefetch came due. The FTQ's per-cycle accounting
// integrates in closed form (ftq.SkipTo); the fill engine's only per-cycle
// counter is FillStallCycles, which Cycle increments on stalled cycles —
// but not after the source has drained (its early return precedes the
// stall check), and not when fill is merely blocked by a full queue.
func (f *Frontend) SkipTo(from, to cache.Cycle) {
	f.q.SkipTo(from, to)
	if f.fillGated {
		return // gated cycles are drain cycles, not stalls (mirrors Cycle)
	}
	if f.srcDone {
		return
	}
	if f.stalled {
		f.stats.FillStallCycles += int64(to - from)
	}
}
