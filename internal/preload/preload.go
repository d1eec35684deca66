// Package preload prototypes the first of the paper's §VI proposals:
// metadata preloading. Instead of inserting prefetch instructions into the
// instruction stream (paying fetch/decode bandwidth and shifting cache
// lines), the AsmDB plan is compiled into prefetch metadata carried with
// the binary and preloaded into a dedicated structure next to the LLC when
// the application starts. A small L1-side metadata cache is checked on
// every L1-I access; on a metadata miss, the entry is requested from the
// LLC-side store with LLC-like latency and installs for future use.
//
// The prototype implements the frontend.InstrPrefetcher hook, so it drops
// into any simulator configuration in place of (not alongside) the
// inserted-instruction mechanism.
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

// Preloader is the metadata-driven prefetch engine.
type Preloader struct {
	cfg Config
	// store is the full LLC-side metadata table: trigger line -> targets.
	store map[isa.Addr][]isa.Addr
	l1    []l1Entry

	stats core.PrefetcherStats
}

// New builds a preloader whose store is compiled from an AsmDB plan: each
// insertion's site block maps to its target lines, keyed by the site's
// cache line (hardware observes line-granular fetches).
func New(cfg Config, plan *asmdb.Plan) (*Preloader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Preloader{
		cfg:   cfg,
		store: make(map[isa.Addr][]isa.Addr),
		l1:    make([]l1Entry, cfg.L1Entries),
	}
	for _, ins := range plan.Insertions {
		line := ins.Site.Line()
		targets := p.store[line]
		targetLine := ins.Target.Line()
		if len(targets) < cfg.MaxTargetsPerLine && !contains(targets, targetLine) {
			p.store[line] = append(targets, targetLine)
		}
	}
	return p, nil
}

// StoreEntries returns the number of trigger lines in the metadata store
// (the binary's metadata section size, in entries).
func (p *Preloader) StoreEntries() int { return len(p.store) }

// PrefetchCounters implements core.PrefetchCounter: a snapshot of the
// preloader's counters.
func (p *Preloader) PrefetchCounters() core.PrefetcherStats { return p.stats }

func (p *Preloader) slot(line isa.Addr) *l1Entry {
	return &p.l1[line.LineIndex()&uint64(p.cfg.L1Entries-1)]
}

// OnFetch implements frontend.InstrPrefetcher: every demand L1-I access
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
	targets, ok := p.store[line]
	if !ok {
		return
	}
	// Metadata miss: request the entry from the LLC-side store; it becomes
	// usable after the fill latency.
	p.stats.MetadataMisses++
	*e = l1Entry{line: line, valid: true, readyAt: now + p.cfg.FillLatency, targets: targets}
}

func contains(xs []isa.Addr, a isa.Addr) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

// PrefetchFingerprint implements core.PrefetchFingerprinter: the identity
// of a preloader is its configuration plus the compiled metadata store
// (site-sorted so map iteration order cannot leak into the hash).
func (p *Preloader) PrefetchFingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "preload.Config{L1Entries:%d,FillLatency:%d,MaxTargetsPerLine:%d}",
		p.cfg.L1Entries, p.cfg.FillLatency, p.cfg.MaxTargetsPerLine)
	sites := make([]isa.Addr, 0, len(p.store))
	for site := range p.store {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, site := range sites {
		fmt.Fprintf(h, ";%d:%v", site, p.store[site])
	}
	return "preload:" + hex.EncodeToString(h.Sum(nil))
}
