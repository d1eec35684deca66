// Package ftq implements the Fetch Target Queue of a decoupled (FDP)
// front-end, together with the state accounting behind the paper's
// characterization: Scenario 1 (shoot-through: head ready), Scenario 2
// (stalling head with completed followers waiting) and Scenario 3 (shadow
// stalls: entries promoted to head before their fetch completes).
//
// Each entry holds one basic block of up to MaxBlockInstrs instructions
// (the paper's eight). Fetches issue to the L1-I as soon as an entry is
// pushed — out of program order with respect to other entries — while
// instructions leave for decode strictly in order. Entries whose cache
// line(s) are already covered by another resident entry merge and issue no
// request, producing the same-line aliasing that gives deeper FTQs their
// ~14% L1-I access reduction (§V-B).
package ftq

import (
	"frontsim/internal/cache"
	"frontsim/internal/isa"
	"frontsim/internal/obs"
)

// MaxBlockInstrs is the per-entry basic block capacity (8 instructions, as
// in the paper's FDP description: a 24-entry FTQ covers 192 32-bit
// instructions).
const MaxBlockInstrs = 8

// maxEntryLines is the most cache lines a block can span: 8 instructions *
// 4 bytes = 32 bytes, so at most 2 lines.
const maxEntryLines = 2

// FetchFunc issues a demand fetch for an instruction cache line and returns
// the cycle the line becomes available.
type FetchFunc func(line isa.Addr, now cache.Cycle) cache.Cycle

// Entry is one FTQ slot: a basic block awaiting fetch completion.
type Entry struct {
	pc     isa.Addr
	n      int
	instrs [MaxBlockInstrs]isa.Instr

	issue cache.Cycle // push/issue cycle
	ready cache.Cycle // all lines available

	lines  [maxEntryLines]isa.Addr
	nlines int

	waiting  bool        // completed fetch while an older resident entry had not
	partial  bool        // promoted to head before fetch completed (Scenario 3)
	headAt   cache.Cycle // promotion cycle (valid when partial)
	consumed int         // instructions already sent to decode
}

// PC returns the block start address.
func (e *Entry) PC() isa.Addr { return e.pc }

// Ready returns the cycle the entry's fetch completes.
func (e *Entry) Ready() cache.Cycle { return e.ready }

// Len returns the number of instructions in the block.
func (e *Entry) Len() int { return e.n }

// Stats aggregates the paper's FTQ-state measurements.
type Stats struct {
	// Pushed counts entries that entered the FTQ.
	Pushed int64
	// Instructions counts instructions dequeued to decode.
	Instructions int64

	// Cycles counts Tick calls — the denominator of the scenario
	// partition. Every ticked cycle is classified as exactly one of
	// Scenario 1 (shoot-through), Scenario 2, Scenario 3, or empty, so
	// ShootThroughCycles + Scenario2Cycles + Scenario3Cycles +
	// EmptyCycles == Cycles is a conservation identity the audit mode
	// (CheckInvariants) asserts every cycle.
	Cycles int64

	// HeadStallCycles: cycles a non-empty FTQ spent with an incomplete
	// head entry (Fig. 9); always Scenario2Cycles + Scenario3Cycles.
	HeadStallCycles int64
	// ShootThroughCycles: cycles with a ready head (Scenario 1).
	ShootThroughCycles int64
	// Scenario2Cycles: head-stall cycles with at least one completed
	// follower buffered behind the stalling head (the paper's Scenario 2:
	// the queue holds finished work the stall is blocking).
	Scenario2Cycles int64
	// Scenario3Cycles: head-stall cycles with no completed follower — the
	// head was promoted before its fetch finished and nothing behind it is
	// ready either (the paper's Scenario 3 shadow stalls).
	Scenario3Cycles int64
	// EmptyCycles: cycles with no entries (fill-side limited).
	EmptyCycles int64

	// WaitingEntries: entries that completed fetch while an older resident
	// entry was still incomplete — they waited on a stalling head before
	// progressing (counted once per entry).
	WaitingEntries int64
	// WaitingEntryCycles integrates, over every head-stall cycle, the
	// number of resident entries that had completed fetch and were blocked
	// behind the stalling head (Fig. 10's measure of buffered-but-blocked
	// work).
	WaitingEntryCycles int64
	// PartialEntries: entries promoted to head before completing fetch —
	// their latency was only partially covered by the previous head
	// (Scenario 3, Fig. 11).
	PartialEntries int64

	// Fetch-latency accounting split by whether the entry ended up
	// stalling at the head (Fig. 8).
	HeadFetchCycles     int64
	HeadFetchEntries    int64
	NonHeadFetchCycles  int64
	NonHeadFetchEntries int64

	// LinesRequested counts L1-I line fetches issued; LinesMerged counts
	// entry lines satisfied by another resident entry's outstanding or
	// completed request (the aliasing effect).
	LinesRequested int64
	LinesMerged    int64

	// HeadStallHist buckets each head-stall episode by its duration in
	// cycles (the latency level that caused it): boundaries are
	// HeadStallBuckets, with the final bucket open-ended. It refines
	// Figs 8/9: which memory level the stalling heads are waiting on.
	HeadStallHist [len(HeadStallBuckets) + 1]int64
}

// HeadStallBuckets are the histogram boundaries in cycles, aligned with
// the hierarchy's latency levels (L1 hit, L2, LLC, DRAM).
var HeadStallBuckets = [4]cache.Cycle{8, 24, 64, 256}

// histBucket returns the HeadStallHist index for a stall duration.
func histBucket(d cache.Cycle) int {
	for i, b := range HeadStallBuckets {
		if d < b {
			return i
		}
	}
	return len(HeadStallBuckets)
}

// AvgHeadFetch returns the mean fetch latency of entries that stalled the
// head.
func (s *Stats) AvgHeadFetch() float64 {
	if s.HeadFetchEntries == 0 {
		return 0
	}
	return float64(s.HeadFetchCycles) / float64(s.HeadFetchEntries)
}

// AvgNonHeadFetch returns the mean fetch latency of entries that completed
// before reaching the head.
func (s *Stats) AvgNonHeadFetch() float64 {
	if s.NonHeadFetchEntries == 0 {
		return 0
	}
	return float64(s.NonHeadFetchCycles) / float64(s.NonHeadFetchEntries)
}

type lineRef struct {
	key   isa.Addr // line address + 1; 0 marks an empty slot
	ready cache.Cycle
	count int32
}

// lineRefTable is a fixed-size open-addressing hash table over the cache
// lines covered by resident entries. The queue holds at most 2·capacity
// live lines (two per entry), so a table sized 4·capacity stays under 50%
// load and every operation is a short linear probe — much cheaper than a
// Go map on the per-push/per-retire path, and trivially deterministic.
type lineRefTable struct {
	slots []lineRef
	shift uint // Fibonacci-hash shift: index = key*phi64 >> shift
}

func newLineRefTable(capacity int) lineRefTable {
	n, shift := 16, uint(60)
	for n < capacity*4 {
		n <<= 1
		shift--
	}
	return lineRefTable{slots: make([]lineRef, n), shift: shift}
}

const phi64 = 0x9e3779b97f4a7c15

func (t *lineRefTable) home(key isa.Addr) int {
	return int(uint64(key) * phi64 >> t.shift)
}

// find returns the slot index holding line, or -1.
func (t *lineRefTable) find(line isa.Addr) int {
	key := line + 1
	for i := t.home(key); ; {
		s := &t.slots[i]
		if s.key == key {
			return i
		}
		if s.key == 0 {
			return -1
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

// insert adds line (which must be absent) with an initial count of 1.
func (t *lineRefTable) insert(line isa.Addr, ready cache.Cycle) {
	key := line + 1
	for i := t.home(key); ; {
		if t.slots[i].key == 0 {
			t.slots[i] = lineRef{key: key, ready: ready, count: 1}
			return
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

// del removes the slot at index i, backward-shifting any displaced
// followers so linear probing stays sound without tombstones.
func (t *lineRefTable) del(i int) {
	n := len(t.slots)
	for j := i; ; {
		t.slots[i] = lineRef{}
		for {
			if j++; j == n {
				j = 0
			}
			s := t.slots[j]
			if s.key == 0 {
				return
			}
			// s can stay at j only if its home lies cyclically after the
			// hole; otherwise the hole would break s's probe chain.
			h := t.home(s.key)
			if (j-h+n)%n >= (j-i+n)%n {
				t.slots[i] = s
				i = j
				break
			}
		}
	}
}

func (t *lineRefTable) clear() {
	for i := range t.slots {
		t.slots[i] = lineRef{}
	}
}

// FTQ is the fetch target queue.
type FTQ struct {
	entries []Entry // ring buffer
	head    int
	size    int

	lineRefs  lineRefTable
	prefixMax cache.Cycle // max ready over all entries ever pushed

	stats Stats

	sink      obs.Sink     // nil when observation is off
	lastState obs.Scenario // classification of the last ticked cycle
	lastNow   cache.Cycle  // most recent cycle seen by Tick/Push (sink != nil)
}

// New creates an FTQ with the given entry capacity.
func New(capacity int) *FTQ {
	if capacity <= 0 {
		panic("ftq: non-positive capacity")
	}
	return &FTQ{
		entries:  make([]Entry, capacity),
		lineRefs: newLineRefTable(capacity),
	}
}

// Cap returns the entry capacity.
func (q *FTQ) Cap() int { return len(q.entries) }

// Len returns the number of resident entries.
func (q *FTQ) Len() int { return q.size }

// Empty reports an empty queue.
func (q *FTQ) Empty() bool { return q.size == 0 }

// Full reports a full queue.
func (q *FTQ) Full() bool { return q.size == len(q.entries) }

// SetObserver attaches an observability sink (nil detaches). Observation
// is strictly read-only; queue behaviour is identical with or without it.
func (q *FTQ) SetObserver(s obs.Sink) { q.sink = s }

// LastState returns the scenario classification of the most recently
// ticked cycle (obs.ScenarioEmpty before the first Tick). It is only
// maintained while an observer is attached.
func (q *FTQ) LastState() obs.Scenario { return q.lastState }

// ReadyMask reports, for the low min(Len, 64) resident entries, which have
// completed their fetch as of now: bit i covers the i-th entry from the
// head.
func (q *FTQ) ReadyMask(now cache.Cycle) uint64 {
	n := q.size
	if n > 64 {
		n = 64
	}
	var mask uint64
	for i := 0; i < n; i++ {
		if q.at(i).ready <= now {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// Stats returns a snapshot of the counters.
func (q *FTQ) Stats() Stats { return q.stats }

// ResetStats zeroes the counters without disturbing queue state.
func (q *FTQ) ResetStats() { q.stats = Stats{} }

func (q *FTQ) at(i int) *Entry {
	if i += q.head; i >= len(q.entries) {
		i -= len(q.entries)
	}
	return &q.entries[i]
}

// Head returns the head entry, or nil when empty.
func (q *FTQ) Head() *Entry {
	if q.size == 0 {
		return nil
	}
	return q.at(0)
}

// Push appends a basic block (1..MaxBlockInstrs instructions, contiguous
// PCs) and immediately issues any line fetches not already covered by a
// resident entry. It returns the entry's fetch-ready cycle and ok=false
// when the queue is full.
func (q *FTQ) Push(instrs []isa.Instr, now cache.Cycle, fetch FetchFunc) (cache.Cycle, bool) {
	if q.Full() {
		return 0, false
	}
	if len(instrs) == 0 || len(instrs) > MaxBlockInstrs {
		panic("ftq: block size out of range")
	}
	e := q.at(q.size)
	*e = Entry{pc: instrs[0].PC, n: len(instrs), issue: now}
	copy(e.instrs[:], instrs)

	// Distinct cache lines covered by the block.
	first := instrs[0].PC.Line()
	last := instrs[len(instrs)-1].PC.Line()
	e.lines[0] = first
	e.nlines = 1
	if last != first {
		e.lines[1] = last
		e.nlines = 2
	}

	ready := cache.Cycle(0)
	for i := 0; i < e.nlines; i++ {
		line := e.lines[i]
		if si := q.lineRefs.find(line); si >= 0 {
			// Covered by a resident entry: merge.
			ref := &q.lineRefs.slots[si]
			ref.count++
			q.stats.LinesMerged++
			if q.sink != nil {
				q.sink.Event(obs.Event{Cycle: int64(now), Kind: obs.EvMergeHit, Addr: uint64(line)})
			}
			if ref.ready > ready {
				ready = ref.ready
			}
			continue
		}
		r := fetch(line, now)
		q.lineRefs.insert(line, r)
		q.stats.LinesRequested++
		if r > ready {
			ready = r
		}
	}
	e.ready = ready

	// Waiting-entry classification (Fig. 10): this entry will complete
	// while an older entry is still fetching. Ready times are known at
	// issue, so the relation is decidable now; see package docs for why
	// the monotonic prefix max is exact for entries that already left.
	if q.size > 0 && e.ready < q.prefixMax {
		e.waiting = true
		q.stats.WaitingEntries++
	}
	if e.ready > q.prefixMax {
		q.prefixMax = e.ready
	}

	wasEmpty := q.size == 0
	q.size++
	q.stats.Pushed++
	if q.sink != nil && now > q.lastNow {
		q.lastNow = now
	}
	if wasEmpty {
		q.promote(now)
	}
	return ready, true
}

// promote marks the current head entry as having just reached the head
// position at cycle now, counting Scenario-3 promotions.
func (q *FTQ) promote(now cache.Cycle) {
	if q.size == 0 {
		return
	}
	h := q.at(0)
	if h.ready > now && !h.partial {
		h.partial = true
		h.headAt = now
		q.stats.PartialEntries++
	}
}

// Tick accounts one cycle of FTQ state; the front-end calls it exactly once
// per cycle. Observation bookkeeping (lastState/lastNow) is skipped entirely
// when no sink is attached so the obs-disabled hot path performs exactly the
// seed's stores.
func (q *FTQ) Tick(now cache.Cycle) {
	q.stats.Cycles++
	state := obs.ScenarioEmpty
	if q.size == 0 {
		q.stats.EmptyCycles++
	} else if q.at(0).ready > now {
		q.stats.HeadStallCycles++
		waiting := 0
		for i := 1; i < q.size; i++ {
			if q.at(i).ready <= now {
				waiting++
			}
		}
		q.stats.WaitingEntryCycles += int64(waiting)
		if waiting > 0 {
			q.stats.Scenario2Cycles++
			state = obs.Scenario2
		} else {
			q.stats.Scenario3Cycles++
			state = obs.Scenario3
		}
	} else {
		q.stats.ShootThroughCycles++
		state = obs.ScenarioShootThrough
	}
	if q.sink != nil {
		q.lastState = state
		if now > q.lastNow {
			q.lastNow = now
		}
	}
}

// PopReady dequeues up to maxInstrs instructions from completed head
// entries, appending them to out and returning the extended slice.
// Instructions leave strictly in program order; an incomplete head blocks
// everything behind it regardless of readiness (Scenario 2).
func (q *FTQ) PopReady(now cache.Cycle, maxInstrs int, out []isa.Instr) []isa.Instr {
	for maxInstrs > 0 && q.size > 0 {
		h := q.at(0)
		if h.ready > now {
			break
		}
		take := h.n - h.consumed
		if take > maxInstrs {
			take = maxInstrs
		}
		out = append(out, h.instrs[h.consumed:h.consumed+take]...)
		h.consumed += take
		maxInstrs -= take
		q.stats.Instructions += int64(take)
		if h.consumed == h.n {
			q.retire(h)
			if q.head++; q.head == len(q.entries) {
				q.head = 0
			}
			q.size--
			q.promote(now)
		}
	}
	return out
}

// retire releases an entry's line references and records its fetch-latency
// classification.
func (q *FTQ) retire(e *Entry) {
	for i := 0; i < e.nlines; i++ {
		si := q.lineRefs.find(e.lines[i])
		ref := &q.lineRefs.slots[si]
		if ref.count--; ref.count <= 0 {
			q.lineRefs.del(si)
		}
	}
	lat := e.ready - e.issue
	if lat < 0 {
		lat = 0
	}
	if e.partial {
		q.stats.HeadFetchCycles += int64(lat)
		q.stats.HeadFetchEntries++
		stall := e.ready - e.headAt
		if stall < 0 {
			stall = 0
		}
		q.stats.HeadStallHist[histBucket(stall)]++
	} else {
		q.stats.NonHeadFetchCycles += int64(lat)
		q.stats.NonHeadFetchEntries++
	}
}

// Flush discards all entries (used on pipeline resets between experiment
// phases; the trace-driven front-end never fills wrong-path blocks, so
// mispredict recovery does not flush).
func (q *FTQ) Flush() {
	if q.sink != nil && q.size > 0 {
		q.sink.Event(obs.Event{Cycle: int64(q.lastNow), Kind: obs.EvFlush, Arg: int64(q.size)})
	}
	q.head = 0
	q.size = 0
	q.lineRefs.clear()
	// Discarded entries can never be resident again, so the waiting
	// baseline must not survive them.
	q.prefixMax = 0
}
