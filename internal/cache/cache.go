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
	"math/bits"

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
	// Ways), which must come out a power of two. Ways is at most 64.
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
	if c.Ways > maxWays {
		return fmt.Errorf("cache %s: %d ways, more than %d", c.Name, c.Ways, maxWays)
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

// Backend is anything a Level can miss to.
type Backend interface {
	// Access requests lineAddr at cycle now and returns availability time.
	Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle
}

// A set record is the whole state of one set, stride words long, so an
// access reads one short run of memory instead of one array per field.
// Words, for a level of W ways:
//
//	recMarks               prefetch marks: bit i is set while way i holds a
//	                       prefetched line no demand has touched yet
//	recMeta                the MRU hint in the low 32 bits, the count of
//	                       valid ways in the high 32
//	recKeys   .. +W        per-way key: tag+1 when valid, 0 when not
//	recKeys+W .. +2W       per-way replacement word: the LRU stamp or the
//	                       SRRIP re-reference value, by cfg.Repl
//	recKeys+2W .. +3W      per-way ready cycle: fill completion, the line is
//	                       usable for hits at or after it
//
// Valid ways always form a prefix: a fill takes the first invalid way, and
// only Flush invalidates, all ways at once. So the valid count is also the
// first invalid way.
const (
	recMarks = iota
	recMeta
	recKeys
)

// maxWays bounds associativity: the prefetch marks are one word per set.
const maxWays = 64

// Level is one set-associative cache level.
type Level struct {
	cfg      LevelConfig
	stride   int  // words per set record, recKeys + 3*Ways
	shift    uint // log2(LineSize)
	tagShift uint // log2(LineSize * sets): the tag is what lies above the set index
	mask     uint64
	recs     []uint64 // one record per set, row-major
	lruClk   uint64
	next     Backend
	rng      *xrand.Rand
	sink     obs.Sink // nil when observation is off
	stats    Stats
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
	l := &Level{
		cfg:    cfg,
		stride: recKeys + 3*cfg.Ways,
		shift:  uint(bits.TrailingZeros(isa.LineSize)),
		mask:   uint64(sets - 1),
		next:   next,
		rng:    xrand.New(0xcafe ^ uint64(len(cfg.Name))),
	}
	l.tagShift = l.shift + uint(bits.TrailingZeros(uint(sets)))
	l.recs = make([]uint64, sets*l.stride)
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

// record returns lineAddr's set record and the key its tag is stored as.
func (l *Level) record(lineAddr isa.Addr) ([]uint64, uint64) {
	base := l.setIndex(lineAddr) * l.stride
	return l.recs[base : base+l.stride : base+l.stride], uint64(lineAddr)>>l.tagShift + 1
}

// find returns the way of rec holding key, or -1. The MRU hint is checked
// before the scan: instruction and data streams re-touch the same line in
// bursts, so most hits cost one compare. A scan hit moves the hint. The
// hint only orders the search; what is found is the same without it.
func (l *Level) find(rec []uint64, key uint64) int {
	keys := rec[recKeys : recKeys+l.cfg.Ways]
	if h := int(uint32(rec[recMeta])); keys[h] == key {
		return h
	}
	for i, k := range keys {
		if k == key {
			rec[recMeta] = rec[recMeta]&^0xffffffff | uint64(i)
			return i
		}
	}
	return -1
}

// Access implements Backend. lineAddr must be line-aligned.
func (l *Level) Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle {
	lineAddr = lineAddr.Line()
	rec, key := l.record(lineAddr)

	if kind == Demand {
		l.stats.Accesses++
	} else {
		l.stats.PrefetchReqs++
	}

	if wi := l.find(rec, key); wi >= 0 {
		// Present (possibly still in flight).
		ready := Cycle(rec[recKeys+2*l.cfg.Ways+wi])
		if kind == Demand {
			l.stats.Hits++
			if bit := uint64(1) << wi; rec[recMarks]&bit != 0 {
				l.stats.PrefetchHits++
				rec[recMarks] &^= bit
			}
			if ready > now {
				l.stats.MergedInflight++
			}
		}
		l.touch(rec, wi)
		if ready > now {
			return ready
		}
		return now + l.cfg.HitLatency
	}

	// Miss: fetch from below, fill now with a future ready time (the line
	// entry doubles as the MSHR; later requests merge on it).
	if kind == Demand {
		l.stats.Misses++
	}
	ready := l.next.Access(lineAddr, now+l.cfg.HitLatency, kind)
	l.install(rec, key, ready, kind == Prefetch, &l.stats)
	if kind == Prefetch {
		l.stats.PrefetchFills++
		if l.sink != nil {
			l.sink.Event(obs.Event{Cycle: now, Kind: obs.EvPrefetchFill, Addr: uint64(lineAddr), Arg: ready - now})
		}
	}
	return ready
}

// Probe reports whether the line is present (even in flight). It moves no
// counter and no line's replacement state. Used by hardware prefetchers to
// filter redundant requests and by tests.
func (l *Level) Probe(lineAddr isa.Addr) bool {
	rec, key := l.record(lineAddr.Line())
	return l.find(rec, key) >= 0
}

// Ready returns the availability cycle of the line if present. Ready
// cycles are computed eagerly: Access and DRAM.Access decide every fill's
// ready cycle at access time and touch no per-cycle state afterward, so
// between accesses each line's ready cycle is a constant. That is what
// lets the fast-forward scheduler (internal/core) treat fill completions
// as future events it can jump toward without ticking the hierarchy.
func (l *Level) Ready(lineAddr isa.Addr) (Cycle, bool) {
	rec, key := l.record(lineAddr.Line())
	if wi := l.find(rec, key); wi >= 0 {
		return Cycle(rec[recKeys+2*l.cfg.Ways+wi]), true
	}
	return 0, false
}

// install fills key into rec's victim way with the given ready cycle and
// prefetch mark, and makes it the MRU way. An evicted line is counted in
// st; a nil st counts nothing.
func (l *Level) install(rec []uint64, key uint64, ready Cycle, prefetch bool, st *Stats) {
	vi := l.victim(rec)
	bit := uint64(1) << vi
	if n := int(rec[recMeta] >> 32); vi < n {
		if st != nil {
			st.Evictions++
			if rec[recMarks]&bit != 0 {
				st.PrefetchEvictedUnused++
			}
		}
		rec[recMeta] = uint64(n)<<32 | uint64(vi)
	} else {
		rec[recMeta] = uint64(n+1)<<32 | uint64(vi)
	}
	if prefetch {
		rec[recMarks] |= bit
	} else {
		rec[recMarks] &^= bit
	}
	rec[recKeys+vi] = key
	rec[recKeys+2*l.cfg.Ways+vi] = uint64(ready)
	l.touch(rec, vi)
	if l.cfg.Repl == ReplSRRIP {
		rec[recKeys+l.cfg.Ways+vi] = 2 // long re-reference interval on insertion
	}
}

func (l *Level) touch(rec []uint64, wi int) {
	switch l.cfg.Repl {
	case ReplLRU, ReplRandom:
		l.lruClk++
		rec[recKeys+l.cfg.Ways+wi] = l.lruClk
	case ReplSRRIP:
		rec[recKeys+l.cfg.Ways+wi] = 0
	}
}

// victim picks the way a fill replaces: the first invalid way while the set
// has one, else by policy.
func (l *Level) victim(rec []uint64) int {
	w := l.cfg.Ways
	if n := int(rec[recMeta] >> 32); n < w {
		return n
	}
	repl := rec[recKeys+w : recKeys+2*w]
	switch l.cfg.Repl {
	case ReplRandom:
		return l.rng.Intn(w)
	case ReplSRRIP:
		// Equivalent to the textbook scan-then-age loop: every way ages by
		// the same amount (3 minus the current maximum), and the victim is
		// the first way holding that maximum.
		v, maxR := 0, repl[0]
		for i, r := range repl {
			if r > maxR {
				v, maxR = i, r
			}
		}
		if maxR < 3 {
			for i := range repl {
				repl[i] += 3 - maxR
			}
		}
		return v
	default: // LRU: the first way holding the oldest stamp
		v, minR := 0, repl[0]
		for i, r := range repl {
			if r < minR {
				v, minR = i, r
			}
		}
		return v
	}
}

// Flush invalidates every line (used between experiment phases).
func (l *Level) Flush() { clear(l.recs) }

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
