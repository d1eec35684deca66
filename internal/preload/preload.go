// Package preload prototypes the first of the paper's §VI proposals:
// metadata preloading. Instead of inserting prefetch instructions into the
// instruction stream (paying fetch/decode bandwidth and shifting cache
// lines), the AsmDB plan is compiled into prefetch metadata carried with
// the binary and preloaded into a dedicated structure next to the LLC when
// the application starts. A small L1-side metadata cache is checked on
// every L1-I access; on a metadata miss, the entry is requested from the
// LLC-side store with LLC-like latency and installs for future use.
//
// The compiled Store is a cache.PrefetcherConfig, so it drops into any
// simulator configuration in place of (not alongside) the
// inserted-instruction mechanism; each run builds its own Preloader from
// it.
package preload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"frontsim/internal/asmdb"
	"frontsim/internal/cache"
	"frontsim/internal/core"
	"frontsim/internal/isa"
)

// Config sizes the metadata hierarchy.
type Config struct {
	// L1Entries is the trigger-line capacity of the L1-side metadata
	// cache (direct mapped).
	L1Entries int
	// FillLatency is the cycles from a metadata miss to the entry being
	// usable (the LLC-side store round trip).
	FillLatency cache.Cycle
	// MaxTargetsPerLine bounds targets stored per trigger line.
	MaxTargetsPerLine int
}

// DefaultConfig mirrors a small dedicated SRAM next to the L1-I.
func DefaultConfig() Config {
	return Config{L1Entries: 512, FillLatency: 40, MaxTargetsPerLine: 4}
}

// Validate checks parameters.
func (c Config) Validate() error {
	if c.L1Entries <= 0 || c.L1Entries&(c.L1Entries-1) != 0 {
		return fmt.Errorf("preload: L1Entries %d must be a positive power of two", c.L1Entries)
	}
	if c.FillLatency < 0 || c.MaxTargetsPerLine <= 0 {
		return fmt.Errorf("preload: invalid parameters %+v", c)
	}
	return nil
}

type l1Entry struct {
	line    isa.Addr
	valid   bool
	readyAt cache.Cycle // fill completion after a metadata miss
	targets []isa.Addr
}

// Store is the compiled prefetch metadata: the hierarchy's sizes and the
// full LLC-side table, trigger line -> targets. Compile makes it and
// nothing changes it after, so any number of runs may share it; each
// builds its own Preloader from it (New).
type Store struct {
	cfg   Config
	lines map[isa.Addr][]isa.Addr
}

// Compile builds the store from an AsmDB plan: each insertion's site block
// maps to its target lines, keyed by the site's cache line (hardware
// observes line-granular fetches).
func Compile(cfg Config, plan *asmdb.Plan) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, lines: make(map[isa.Addr][]isa.Addr)}
	for _, ins := range plan.Insertions {
		line := ins.Site.Line()
		targets := s.lines[line]
		targetLine := ins.Target.Line()
		if len(targets) < cfg.MaxTargetsPerLine && !contains(targets, targetLine) {
			s.lines[line] = append(targets, targetLine)
		}
	}
	return s, nil
}

// Entries returns the number of trigger lines in the store (the binary's
// metadata section size, in entries).
func (s *Store) Entries() int { return len(s.lines) }

// Validate implements cache.PrefetcherConfig.
func (s *Store) Validate() error { return s.cfg.Validate() }

// New builds a preloader over the store with an empty L1-side metadata
// cache.
func (s *Store) New() cache.InstrPrefetcher {
	return &Preloader{store: s, l1: make([]l1Entry, s.cfg.L1Entries)}
}

// PrefetchFingerprint implements cache.PrefetcherConfig: the identity of
// a preloader is its configuration plus the compiled metadata store
// (site-sorted so map iteration order cannot leak into the hash).
func (s *Store) PrefetchFingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "preload.Config{L1Entries:%d,FillLatency:%d,MaxTargetsPerLine:%d}",
		s.cfg.L1Entries, s.cfg.FillLatency, s.cfg.MaxTargetsPerLine)
	sites := make([]isa.Addr, 0, len(s.lines))
	for site := range s.lines {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, site := range sites {
		fmt.Fprintf(h, ";%d:%v", site, s.lines[site])
	}
	return "preload:" + hex.EncodeToString(h.Sum(nil))
}

// Preloader is the metadata-driven prefetch engine of one run.
type Preloader struct {
	store *Store
	l1    []l1Entry

	stats core.PrefetcherStats
}

// PrefetchCounters implements core.PrefetchCounter: a snapshot of the
// preloader's counters.
func (p *Preloader) PrefetchCounters() core.PrefetcherStats { return p.stats }

func (p *Preloader) slot(line isa.Addr) *l1Entry {
	return &p.l1[line.LineIndex()&uint64(p.store.cfg.L1Entries-1)]
}

// OnFetch implements cache.InstrPrefetcher: every demand L1-I access
// checks the metadata hierarchy; hits issue the stored prefetches, misses
// schedule a metadata fill.
func (p *Preloader) OnFetch(line isa.Addr, now cache.Cycle, hit bool, issue func(isa.Addr)) {
	line = line.Line()
	p.stats.Lookups++
	e := p.slot(line)
	if e.valid && e.line == line {
		if now < e.readyAt {
			// Metadata still in flight from the LLC store.
			return
		}
		p.stats.L1Hits++
		for _, t := range e.targets {
			issue(t)
			p.stats.Prefetches++
		}
		return
	}
	targets, ok := p.store.lines[line]
	if !ok {
		return
	}
	// Metadata miss: request the entry from the LLC-side store; it becomes
	// usable after the fill latency.
	p.stats.MetadataMisses++
	*e = l1Entry{line: line, valid: true, readyAt: now + p.store.cfg.FillLatency, targets: targets}
}

func contains(xs []isa.Addr, a isa.Addr) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}
