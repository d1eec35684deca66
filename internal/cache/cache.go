// Package cache implements the memory-side substrate: set-associative cache
// levels with pluggable replacement, in-flight-fill (MSHR-style) merging,
// prefetch fills, a bandwidth-limited DRAM model, and the multi-level
// hierarchy (L1-I, L1-D, unified L2, LLC, DRAM) from the paper's Table I.
//
// Timing model: an access at cycle `now` returns the cycle at which the
// requested line is available at the accessed level. Hits cost the level's
// hit latency; misses recurse into the next level and fill on return. A
// line whose fill is still in flight merges subsequent requests into the
// outstanding fill (this is what lets a deep FTQ alias many fetches to one
// L1-I access, the paper's §V-B effect).
package cache

import (
	"fmt"

	"frontsim/internal/isa"
	"frontsim/internal/obs"
	"frontsim/internal/xrand"
)

// Cycle is a simulation timestamp in core clock cycles.
type Cycle = int64

// AccessKind distinguishes demand from prefetch traffic for statistics.
type AccessKind uint8

const (
	// Demand is a fetch or load/store the core is waiting on.
	Demand AccessKind = iota
	// Prefetch is a speculative fill (hardware or software initiated).
	Prefetch
)

// ReplKind selects a replacement policy.
type ReplKind uint8

const (
	// ReplLRU is least-recently-used.
	ReplLRU ReplKind = iota
	// ReplSRRIP is 2-bit static re-reference interval prediction.
	ReplSRRIP
	// ReplRandom evicts a uniformly random way (ablation baseline).
	ReplRandom
)

// String names the policy.
func (k ReplKind) String() string {
	switch k {
	case ReplLRU:
		return "lru"
	case ReplSRRIP:
		return "srrip"
	case ReplRandom:
		return "random"
	}
	return fmt.Sprintf("repl(%d)", uint8(k))
}

// LevelConfig sizes one cache level.
type LevelConfig struct {
	Name string
	// SizeBytes and Ways determine the set count (SizeBytes / LineSize /
	// Ways), which must come out a power of two.
	SizeBytes int
	Ways      int
	// HitLatency is the cycles from access to data at this level.
	HitLatency Cycle
	Repl       ReplKind
}

// Sets returns the number of sets implied by the config.
func (c LevelConfig) Sets() int { return c.SizeBytes / isa.LineSize / c.Ways }

// Validate checks the configuration is realizable.
func (c LevelConfig) Validate() error {
	if c.Ways <= 0 || c.SizeBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	sets := c.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a positive power of two", c.Name, sets)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %s: negative latency", c.Name)
	}
	return nil
}

// Stats counts one level's traffic.
type Stats struct {
	Accesses       int64 // demand accesses
	Hits           int64 // demand hits (including hits on in-flight fills)
	Misses         int64 // demand misses
	MergedInflight int64 // demand accesses merged into an outstanding fill
	PrefetchReqs   int64 // prefetch accesses
	PrefetchFills  int64 // lines filled by prefetch
	PrefetchHits   int64 // demand hits on prefetched, not-yet-used lines
	Evictions      int64
	// PrefetchEvictedUnused counts prefetched lines evicted before any
	// demand touched them — the pollution component of prefetch cost.
	PrefetchEvictedUnused int64
}

// PrefetchAccuracy returns the fraction of prefetched lines that saw a
// demand hit before eviction (0 when no prefetch resolved yet).
func (s *Stats) PrefetchAccuracy() float64 {
	resolved := s.PrefetchHits + s.PrefetchEvictedUnused
	if resolved == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(resolved)
}

// HitRate returns demand hit rate.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	tag      uint64
	valid    bool
	ready    Cycle // fill completion; line usable for hits at/after this
	prefetch bool  // filled by a prefetch and not yet demanded
}

// Backend is anything a Level can miss to.
type Backend interface {
	// Access requests lineAddr at cycle now and returns availability time.
	Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle
}

// Level is one set-associative cache level.
type Level struct {
	cfg      LevelConfig
	sets     int
	shift    uint
	tagShift uint // when sets is a power of two, tagOf is a single shift
	mask     uint64
	lines    []line // sets*ways, row-major
	// keys mirrors lines: tag+1 when the way is valid, 0 when not. The hit
	// scan walks this dense array instead of the line structs, one cache
	// line of keys covering eight ways.
	keys []uint64
	// repl mirrors lines with per-way replacement state — the LRU
	// timestamp or the SRRIP re-reference value, depending on cfg.Repl —
	// so the victim scan is dense too.
	repl []uint64
	// mru holds each set's last-hit (or last-filled) way. Instruction and
	// data streams re-touch the same line in bursts, so checking the hint
	// before the way scan turns most hits into a single compare. Purely a
	// scan-order shortcut: hits, misses, victims and timing are identical
	// with or without it.
	mru    []int32
	lruClk uint64
	next   Backend
	rng    *xrand.Rand
	sink   obs.Sink // nil when observation is off
	stats  Stats
}

// NewLevel builds a level whose misses go to next.
func NewLevel(cfg LevelConfig, next Backend) (*Level, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("cache %s: nil backend", cfg.Name)
	}
	sets := cfg.Sets()
	shift := uint(0)
	for 1<<shift < isa.LineSize {
		shift++
	}
	l := &Level{
		cfg:   cfg,
		sets:  sets,
		shift: shift,
		mask:  uint64(sets - 1),
		lines: make([]line, sets*cfg.Ways),
		keys:  make([]uint64, sets*cfg.Ways),
		repl:  make([]uint64, sets*cfg.Ways),
		mru:   make([]int32, sets),
		next:  next,
		rng:   xrand.New(0xcafe ^ uint64(len(cfg.Name))),
	}
	if sets&(sets-1) == 0 {
		ts := shift
		for 1<<(ts-shift) < sets {
			ts++
		}
		l.tagShift = ts
	}
	return l, nil
}

// Config returns the level's configuration.
func (l *Level) Config() LevelConfig { return l.cfg }

// SetObserver attaches an observability sink (nil detaches). Observation
// is strictly read-only; access timing is identical with or without it.
func (l *Level) SetObserver(s obs.Sink) { l.sink = s }

// Stats returns a snapshot of the level's counters.
func (l *Level) Stats() Stats { return l.stats }

// ResetStats zeroes the counters (used to exclude warmup).
func (l *Level) ResetStats() { l.stats = Stats{} }

func (l *Level) setIndex(lineAddr isa.Addr) int {
	return int((uint64(lineAddr) >> l.shift) & l.mask)
}

func (l *Level) tagOf(lineAddr isa.Addr) uint64 {
	if l.tagShift != 0 {
		return uint64(lineAddr) >> l.tagShift
	}
	return uint64(lineAddr) >> l.shift / uint64(l.sets)
}

func (l *Level) setSlice(set int) []line {
	return l.lines[set*l.cfg.Ways : (set+1)*l.cfg.Ways]
}

// Access implements Backend. lineAddr must be line-aligned.
func (l *Level) Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle {
	lineAddr = lineAddr.Line()
	set := l.setIndex(lineAddr)
	key := l.tagOf(lineAddr) + 1
	base := set * l.cfg.Ways
	keys := l.keys[base : base+l.cfg.Ways]

	if kind == Demand {
		l.stats.Accesses++
	} else {
		l.stats.PrefetchReqs++
	}

	wi := -1
	if h := int(l.mru[set]); keys[h] == key {
		wi = h
	} else {
		for i, k := range keys {
			if k == key {
				wi = i
				l.mru[set] = int32(i)
				break
			}
		}
	}
	if wi >= 0 {
		// Present (possibly still in flight).
		w := &l.lines[base+wi]
		if kind == Demand {
			l.stats.Hits++
			if w.prefetch {
				l.stats.PrefetchHits++
				w.prefetch = false
			}
			if w.ready > now {
				l.stats.MergedInflight++
			}
		}
		l.touch(base + wi)
		if w.ready > now {
			return w.ready
		}
		return now + l.cfg.HitLatency
	}

	// Miss: fetch from below, fill now with a future ready time (the line
	// entry doubles as the MSHR; later requests merge on it).
	if kind == Demand {
		l.stats.Misses++
	}
	ready := l.next.Access(lineAddr, now+l.cfg.HitLatency, kind)
	vi := l.victim(base)
	v := &l.lines[base+vi]
	if v.valid {
		l.stats.Evictions++
		if v.prefetch {
			l.stats.PrefetchEvictedUnused++
		}
	}
	*v = line{tag: key - 1, valid: true, ready: ready, prefetch: kind == Prefetch}
	keys[vi] = key
	l.mru[set] = int32(vi)
	if kind == Prefetch {
		l.stats.PrefetchFills++
		if l.sink != nil {
			l.sink.Event(obs.Event{Cycle: now, Kind: obs.EvPrefetchFill, Addr: uint64(lineAddr), Arg: ready - now})
		}
	}
	l.fill(base + vi)
	return ready
}

// Probe reports whether the line is present (even in flight) without any
// side effects. Used by hardware prefetchers to filter redundant requests
// and by tests.
func (l *Level) Probe(lineAddr isa.Addr) bool {
	lineAddr = lineAddr.Line()
	set := l.setIndex(lineAddr)
	tag := l.tagOf(lineAddr)
	for _, w := range l.setSlice(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Ready returns the availability cycle of the line if present.
func (l *Level) Ready(lineAddr isa.Addr) (Cycle, bool) {
	lineAddr = lineAddr.Line()
	set := l.setIndex(lineAddr)
	tag := l.tagOf(lineAddr)
	for i := range l.setSlice(set) {
		w := &l.setSlice(set)[i]
		if w.valid && w.tag == tag {
			return w.ready, true
		}
	}
	return 0, false
}

func (l *Level) touch(idx int) {
	switch l.cfg.Repl {
	case ReplLRU, ReplRandom:
		l.lruClk++
		l.repl[idx] = l.lruClk
	case ReplSRRIP:
		l.repl[idx] = 0
	}
}

func (l *Level) fill(idx int) {
	switch l.cfg.Repl {
	case ReplLRU, ReplRandom:
		l.lruClk++
		l.repl[idx] = l.lruClk
	case ReplSRRIP:
		l.repl[idx] = 2 // long re-reference interval on insertion
	}
}

func (l *Level) victim(base int) int {
	w := l.cfg.Ways
	// Prefer an invalid way (key 0).
	for i, k := range l.keys[base : base+w] {
		if k == 0 {
			return i
		}
	}
	repl := l.repl[base : base+w]
	switch l.cfg.Repl {
	case ReplRandom:
		return l.rng.Intn(w)
	case ReplSRRIP:
		// Equivalent to the textbook scan-then-age loop: every way ages by
		// the same amount (3 minus the current maximum), and the victim is
		// the first way holding that maximum.
		var maxR uint64
		for _, r := range repl {
			if r > maxR {
				maxR = r
			}
		}
		if maxR < 3 {
			d := 3 - maxR
			for i := range repl {
				repl[i] += d
			}
		}
		for i, r := range repl {
			if r >= 3 {
				return i
			}
		}
		panic("cache: SRRIP victim scan found no way")
	default: // LRU
		v := 0
		for i := 1; i < w; i++ {
			if repl[i] < repl[v] {
				v = i
			}
		}
		return v
	}
}

// Flush invalidates every line (used between experiment phases).
func (l *Level) Flush() {
	for i := range l.lines {
		l.lines[i] = line{}
		l.keys[i] = 0
		l.repl[i] = 0
	}
	for i := range l.mru {
		l.mru[i] = 0
	}
}

// DRAMConfig models main memory timing.
type DRAMConfig struct {
	// Latency is the unloaded access latency in core cycles.
	Latency Cycle
	// BusCycles is the channel occupancy per line transfer; back-to-back
	// requests queue behind each other at this rate.
	BusCycles Cycle
	// Channels is the number of independent channels.
	Channels int
}

// Validate checks the DRAM parameters.
func (c DRAMConfig) Validate() error {
	if c.Latency <= 0 || c.BusCycles <= 0 || c.Channels <= 0 {
		return fmt.Errorf("dram: non-positive parameter %+v", c)
	}
	return nil
}

// DRAM is the bottom of the hierarchy: fixed latency plus a per-channel
// bandwidth queue.
type DRAM struct {
	cfg      DRAMConfig
	nextFree []Cycle
	accesses int64
	busy     int64 // cycles requests spent queued (congestion measure)
}

// NewDRAM builds the memory model.
func NewDRAM(cfg DRAMConfig) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRAM{cfg: cfg, nextFree: make([]Cycle, cfg.Channels)}, nil
}

// Access implements Backend.
func (d *DRAM) Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle {
	ch := int(lineAddr.LineIndex()) % d.cfg.Channels
	start := now
	if d.nextFree[ch] > start {
		d.busy += int64(d.nextFree[ch] - start)
		start = d.nextFree[ch]
	}
	d.nextFree[ch] = start + d.cfg.BusCycles
	d.accesses++
	return start + d.cfg.Latency
}

// Config returns the DRAM parameters.
func (d *DRAM) Config() DRAMConfig { return d.cfg }

// Accesses returns the total number of DRAM requests.
func (d *DRAM) Accesses() int64 { return d.accesses }

// QueueingCycles returns total cycles requests waited for a channel.
func (d *DRAM) QueueingCycles() int64 { return d.busy }

// ResetStats zeroes the DRAM counters (channel state is retained).
func (d *DRAM) ResetStats() { d.accesses = 0; d.busy = 0 }
