package cache

import (
	"fmt"
	"slices"
	"testing"

	"frontsim/internal/isa"
	"frontsim/internal/obs"
	"frontsim/internal/xrand"
)

type refLine struct {
	tag      uint64
	valid    bool
	ready    Cycle // fill completion; line usable for hits at/after this
	prefetch bool  // filled by a prefetch and not yet demanded
}

// refLevel is the cache level as it stood before each set became one
// record: parallel lines, keys, repl and mru arrays, with a scan per
// question. FuzzLevelMatchesReference holds Level to it.
type refLevel struct {
	cfg      LevelConfig
	sets     int
	shift    uint
	tagShift uint // when sets is a power of two, tagOf is a single shift
	mask     uint64
	lines    []refLine // sets*ways, row-major
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

// newRefLevel builds a level whose misses go to next.
func newRefLevel(cfg LevelConfig, next Backend) (*refLevel, error) {
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
	l := &refLevel{
		cfg:   cfg,
		sets:  sets,
		shift: shift,
		mask:  uint64(sets - 1),
		lines: make([]refLine, sets*cfg.Ways),
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

// SetObserver attaches an observability sink (nil detaches). Observation
// is strictly read-only; access timing is identical with or without it.
func (l *refLevel) SetObserver(s obs.Sink) { l.sink = s }

// Stats returns a snapshot of the level's counters.
func (l *refLevel) Stats() Stats { return l.stats }

// ResetStats zeroes the counters (used to exclude warmup).
func (l *refLevel) ResetStats() { l.stats = Stats{} }

func (l *refLevel) setIndex(lineAddr isa.Addr) int {
	return int((uint64(lineAddr) >> l.shift) & l.mask)
}

func (l *refLevel) tagOf(lineAddr isa.Addr) uint64 {
	if l.tagShift != 0 {
		return uint64(lineAddr) >> l.tagShift
	}
	return uint64(lineAddr) >> l.shift / uint64(l.sets)
}

func (l *refLevel) setSlice(set int) []refLine {
	return l.lines[set*l.cfg.Ways : (set+1)*l.cfg.Ways]
}

// Access implements Backend. lineAddr must be line-aligned.
func (l *refLevel) Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle {
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
	*v = refLine{tag: key - 1, valid: true, ready: ready, prefetch: kind == Prefetch}
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
func (l *refLevel) Probe(lineAddr isa.Addr) bool {
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
func (l *refLevel) Ready(lineAddr isa.Addr) (Cycle, bool) {
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

func (l *refLevel) touch(idx int) {
	switch l.cfg.Repl {
	case ReplLRU, ReplRandom:
		l.lruClk++
		l.repl[idx] = l.lruClk
	case ReplSRRIP:
		l.repl[idx] = 0
	}
}

func (l *refLevel) fill(idx int) {
	switch l.cfg.Repl {
	case ReplLRU, ReplRandom:
		l.lruClk++
		l.repl[idx] = l.lruClk
	case ReplSRRIP:
		l.repl[idx] = 2 // long re-reference interval on insertion
	}
}

func (l *refLevel) victim(base int) int {
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
func (l *refLevel) Flush() {
	for i := range l.lines {
		l.lines[i] = refLine{}
		l.keys[i] = 0
		l.repl[i] = 0
	}
	for i := range l.mru {
		l.mru[i] = 0
	}
}

func (l *refLevel) Warm(lineAddr isa.Addr) bool {
	lineAddr = lineAddr.Line()
	set := l.setIndex(lineAddr)
	key := l.tagOf(lineAddr) + 1
	base := set * l.cfg.Ways
	keys := l.keys[base : base+l.cfg.Ways]

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
		w := &l.lines[base+wi]
		w.prefetch = false
		l.touch(base + wi)
		return true
	}

	// Only cache levels below are warmed; the recursion stops at DRAM (or
	// any non-Level backend), which holds timing state, not content.
	if nl, ok := l.next.(*refLevel); ok {
		nl.Warm(lineAddr)
	}
	vi := l.victim(base)
	l.lines[base+vi] = refLine{tag: key - 1, valid: true}
	keys[vi] = key
	l.mru[set] = int32(vi)
	l.fill(base + vi)
	return false
}

// backendCall is one request a level sent below it.
type backendCall struct {
	addr isa.Addr
	now  Cycle
	kind AccessKind
}

// recordingBackend answers every request after a latency that varies with
// the address, so fills complete out of order, and records each call.
type recordingBackend struct{ calls []backendCall }

func (r *recordingBackend) Access(lineAddr isa.Addr, now Cycle, kind AccessKind) Cycle {
	r.calls = append(r.calls, backendCall{lineAddr, now, kind})
	return now + 20 + Cycle(uint64(lineAddr)>>6%97)
}

// eventLog records the events a level emits.
type eventLog struct{ evs []obs.Event }

func (e *eventLog) Event(ev obs.Event)  { e.evs = append(e.evs, ev) }
func (e *eventLog) Sample(obs.Sample)   {}
func (e *eventLog) SampleStride() int64 { return 1 }
func (e *eventLog) Close() error        { return nil }

// levelPair is one level stacked on another over a recording backend,
// with the upper level observed: built twice, once from Level and once
// from the reference.
type levelPair struct {
	up, low interface {
		Access(isa.Addr, Cycle, AccessKind) Cycle
		Warm(isa.Addr) bool
		Probe(isa.Addr) bool
		Ready(isa.Addr) (Cycle, bool)
		Flush()
		Stats() Stats
		ResetStats()
	}
	back *recordingBackend
	log  *eventLog
}

// FuzzLevelMatchesReference drives Level and the reference model with the
// same random geometry (1–16 ways, 1–64 sets, each replacement policy, an
// upper level stacked on a lower one, so Warm's recursion is covered) and
// the same random sequence of demand and prefetch Access, Warm, Probe,
// Ready, Flush and ResetStats. After every operation each return value,
// every backend call, every emitted event and both levels' Stats must
// agree.
func FuzzLevelMatchesReference(f *testing.F) {
	rng := xrand.New(0x5e7)
	for _, g := range [][3]byte{{7, 0, 3}, {11, 1, 2}, {11, 2, 6}, {15, 1, 5}, {0, 2, 0}, {3, 0, 1}} {
		seed := []byte{g[0], g[1], g[2], 5, byte(rng.Intn(16)), byte(rng.Intn(3)), byte(rng.Intn(7))}
		for i := 0; i < 3000; i++ {
			seed = append(seed, byte(rng.Intn(256)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		level := func(name string, ways, sets, repl, lat byte) LevelConfig {
			w := 1 + int(ways)%16
			return LevelConfig{Name: name, SizeBytes: w * (1 << (int(sets) % 7)) * isa.LineSize, Ways: w,
				HitLatency: Cycle(lat % 8), Repl: ReplKind(repl % 3)}
		}
		upCfg := level("U", data[0], data[2], data[1], data[3])
		lowCfg := level("LOWER", data[4], data[6], data[5], data[3]+4)
		build := func(ref bool) levelPair {
			p := levelPair{back: &recordingBackend{}, log: &eventLog{}}
			if ref {
				low, err := newRefLevel(lowCfg, p.back)
				if err != nil {
					t.Fatal(err)
				}
				up, err := newRefLevel(upCfg, low)
				if err != nil {
					t.Fatal(err)
				}
				up.SetObserver(p.log)
				p.up, p.low = up, low
				return p
			}
			low, err := NewLevel(lowCfg, p.back)
			if err != nil {
				t.Fatal(err)
			}
			up, err := NewLevel(upCfg, low)
			if err != nil {
				t.Fatal(err)
			}
			up.SetObserver(p.log)
			p.up, p.low = up, low
			return p
		}
		got, want := build(false), build(true)
		// Addresses come from a pool three times the upper level's
		// capacity, so sets fill, evict and hit; the low byte leaves them
		// unaligned.
		lines := 3 * upCfg.Sets() * upCfg.Ways
		now := Cycle(0)
		for i, ops := 0, data[7:]; i+3 <= len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			addr := isa.Addr((int(a)<<8|int(b))%lines*isa.LineSize + int(b)%isa.LineSize)
			now += Cycle(b % 16)
			g, w := got.up, want.up
			if op&0x80 != 0 {
				g, w = got.low, want.low
			}
			var gv, wv any
			switch op % 16 {
			case 0, 1, 2, 3:
				gv, wv = g.Access(addr, now, Demand), w.Access(addr, now, Demand)
			case 4, 5, 6:
				gv, wv = g.Access(addr, now, Prefetch), w.Access(addr, now, Prefetch)
			case 7, 8, 9:
				gv, wv = g.Warm(addr), w.Warm(addr)
			case 10, 11:
				gv, wv = g.Probe(addr), w.Probe(addr)
			case 12, 13:
				gr, gok := g.Ready(addr)
				wr, wok := w.Ready(addr)
				gv, wv = [2]any{gr, gok}, [2]any{wr, wok}
			case 14:
				g.ResetStats()
				w.ResetStats()
			default:
				if op&0x40 != 0 { // rarely: every op type is otherwise four to eight times as likely
					g.Flush()
					w.Flush()
				}
			}
			if gv != wv {
				t.Fatalf("op %d (%d at %#x, cycle %d): got %v, reference %v", i/3, op, addr, now, gv, wv)
			}
			if gs, ws := got.up.Stats(), want.up.Stats(); gs != ws {
				t.Fatalf("op %d: upper stats %+v, reference %+v", i/3, gs, ws)
			}
			if gs, ws := got.low.Stats(), want.low.Stats(); gs != ws {
				t.Fatalf("op %d: lower stats %+v, reference %+v", i/3, gs, ws)
			}
			if !slices.Equal(got.back.calls, want.back.calls) {
				t.Fatalf("op %d: backend calls diverge:\n%v\n%v", i/3, got.back.calls, want.back.calls)
			}
			if !slices.Equal(got.log.evs, want.log.evs) {
				t.Fatalf("op %d: events diverge:\n%v\n%v", i/3, got.log.evs, want.log.evs)
			}
		}
	})
}
