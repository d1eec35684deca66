package cache

import "frontsim/internal/isa"

// Warm installs lineAddr's content with no timing or statistics side
// effects: the functional phase of sampled simulation (SMARTS-style,
// internal/core) streams instructions through the machine to keep cache
// contents, replacement state and inclusion behaviour warm between
// detailed windows, without perturbing the bandwidth model or the measured
// counters.
//
// Semantics relative to Access:
//
//   - a present line is touched (replacement recency advances) and, like a
//     demand hit, loses its prefetch mark — the functional stream did
//     demand the line, it just did so outside simulated time;
//   - a missing line recurses into lower cache levels (content inclusion
//     matches the demand path) and fills with ready=0: the line is
//     immediately usable when detailed simulation resumes, as if its fill
//     completed in the skipped-over past;
//   - DRAM is never told: channel busy state (nextFree) is timing, and a
//     phase that consumes no cycles must not occupy future bus slots;
//   - no counter moves, so measured-window statistics see none of it.
//
// It reports whether the line was present, as Probe would have before the
// call.
func (l *Level) Warm(lineAddr isa.Addr) bool {
	lineAddr = lineAddr.Line()
	rec, key := l.record(lineAddr)
	if wi := l.find(rec, key); wi >= 0 {
		rec[recMarks] &^= 1 << wi
		l.touch(rec, wi)
		return true
	}

	// Only cache levels below are warmed; the recursion stops at DRAM (or
	// any non-Level backend), which holds timing state, not content.
	if nl, ok := l.next.(*Level); ok {
		nl.Warm(lineAddr)
	}
	l.install(rec, key, 0, false, nil)
	return false
}

// Warm installs pc's translation with no statistics side effects: a
// resident page's recency advances, a missing page installs as if its walk
// completed outside simulated time.
func (t *ITLB) Warm(pc isa.Addr) {
	page := t.page(pc)
	if t.probe(page, true) {
		return
	}
	t.install(page)
}

// Resident reports whether pc's page is translated, with no side effects
// at all (no recency update, no counters).
func (t *ITLB) Resident(pc isa.Addr) bool {
	return t.probe(t.page(pc), false)
}

// WarmInstr warms the instruction path for pc: the L1-I line (recursing
// into L2/LLC) and, when modelled, the I-TLB translation. The functional
// counterpart of FetchInstr. It reports whether the line was already in
// the L1-I.
func (h *Hierarchy) WarmInstr(pc isa.Addr) bool {
	hit := h.L1I.Warm(pc.Line())
	if h.ITLB != nil {
		h.ITLB.Warm(pc)
	}
	return hit
}

// WarmPrefetchInstr warms an instruction line a prefetch would have
// filled. It mirrors PrefetchInstr's TLB interaction: in drop mode a
// non-resident page drops the fill (and leaves the TLB untouched — the
// detailed path's probe is a pure lookup there too); otherwise the page
// installs like a demand translation.
func (h *Hierarchy) WarmPrefetchInstr(pc isa.Addr) {
	if h.ITLB != nil {
		if h.ITLB.Config().DropPrefetchOnMiss {
			if !h.ITLB.Resident(pc) {
				return
			}
		} else {
			h.ITLB.Warm(pc)
		}
	}
	h.L1I.Warm(pc.Line())
}

// WarmData warms the data path for addr: the functional counterpart of
// Load and Store (both allocate through the L1-D).
func (h *Hierarchy) WarmData(addr isa.Addr) {
	h.L1D.Warm(addr.Line())
}
