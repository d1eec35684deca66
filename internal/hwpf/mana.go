// MANA-style spatial-region prefetcher (Ansari et al., "MANA: Microarchitecting
// an Instruction Prefetcher"): a record table keyed by spatial region, each
// record a bit-vector over the region's cache lines, trained on the demand
// miss stream and replayed on every fetch that lands in a recorded region.
// The published design chains records through a metadata hierarchy; this
// comparator keeps the core spatial-record idea at the same table scale.

package hwpf

import (
	"fmt"

	"frontsim/internal/cache"
	"frontsim/internal/isa"
)

// MANAConfig sizes the spatial-region prefetcher.
type MANAConfig struct {
	// RecordEntries is the number of spatial records tracked (direct-mapped
	// by region, a power of two).
	RecordEntries int
	// RegionLines is the spatial region width in cache lines (a power of
	// two, at most 64 — one bit-vector word).
	RegionLines int
	// MaxIssue caps the prefetches replayed per triggering fetch.
	MaxIssue int
}

// DefaultMANAConfig mirrors the published design's scale: 2K records over
// 8-line (512 B) regions.
func DefaultMANAConfig() MANAConfig {
	return MANAConfig{RecordEntries: 2048, RegionLines: 8, MaxIssue: 4}
}

// Validate checks the configuration.
func (c MANAConfig) Validate() error {
	if c.RecordEntries <= 0 || c.RecordEntries&(c.RecordEntries-1) != 0 {
		return fmt.Errorf("hwpf: RecordEntries %d must be a positive power of two", c.RecordEntries)
	}
	if c.RegionLines <= 1 || c.RegionLines > 64 || c.RegionLines&(c.RegionLines-1) != 0 {
		return fmt.Errorf("hwpf: RegionLines %d must be a power of two in [2,64]", c.RegionLines)
	}
	if c.MaxIssue <= 0 {
		return fmt.Errorf("hwpf: non-positive MaxIssue %d", c.MaxIssue)
	}
	return nil
}

// manaRecord is one spatial record: the region's base line address and the
// bit-vector of lines within it that demand-missed.
type manaRecord struct {
	base  isa.Addr
	valid bool
	vec   uint64
}

// MANA observes the demand fetch stream: misses set the line's bit in its
// region's record (allocating the record on first miss, direct-mapped);
// any fetch into a recorded region replays the record, prefetching the
// region's other recorded lines in wrap-around order starting just past
// the triggering line's offset.
type MANA struct {
	cfg   MANAConfig
	table []manaRecord

	issued  int64
	trained int64
	records int64
}

// New builds a spatial-region prefetcher.
func (c MANAConfig) New() cache.InstrPrefetcher {
	return &MANA{cfg: c, table: make([]manaRecord, c.RecordEntries)}
}

// PrefetchFingerprint implements cache.PrefetcherConfig.
func (c MANAConfig) PrefetchFingerprint() string {
	return fmt.Sprintf("hwpf.MANA{RecordEntries:%d,RegionLines:%d,MaxIssue:%d}",
		c.RecordEntries, c.RegionLines, c.MaxIssue)
}

// region decomposes a line address into its region base and line offset.
func (p *MANA) region(line isa.Addr) (base isa.Addr, off int) {
	regionBytes := isa.Addr(p.cfg.RegionLines * isa.LineSize)
	base = line &^ (regionBytes - 1)
	off = int((line - base) / isa.LineSize)
	return base, off
}

func (p *MANA) slot(base isa.Addr) *manaRecord {
	return &p.table[(base.LineIndex()/uint64(p.cfg.RegionLines))&uint64(p.cfg.RecordEntries-1)]
}

// OnFetch implements cache.InstrPrefetcher.
func (p *MANA) OnFetch(line isa.Addr, now cache.Cycle, hit bool, issue func(isa.Addr)) {
	line = line.Line()
	base, off := p.region(line)
	// Replay: walk the region's bit-vector starting one line past the
	// trigger, wrapping around the region, so nearby successors issue first.
	if r := p.slot(base); r.valid && r.base == base {
		issued := 0
		for i := 1; i < p.cfg.RegionLines && issued < p.cfg.MaxIssue; i++ {
			o := (off + i) & (p.cfg.RegionLines - 1)
			if r.vec&(1<<o) != 0 {
				issue(base + isa.Addr(o*isa.LineSize))
				p.issued++
				issued++
			}
		}
	}
	// Train on the demand miss stream: record the missing line in its
	// region's bit-vector, allocating (and on conflict resetting) the
	// direct-mapped record.
	if !hit {
		r := p.slot(base)
		if !r.valid || r.base != base {
			*r = manaRecord{base: base, valid: true}
			p.records++
		}
		if r.vec&(1<<off) == 0 {
			r.vec |= 1 << off
			p.trained++
		}
	}
}

// Issued returns the number of prefetches issued.
func (p *MANA) Issued() int64 { return p.issued }

// Trained returns the number of (region, line) bits learned.
func (p *MANA) Trained() int64 { return p.trained }

// Records returns the number of record allocations (including conflict
// re-allocations).
func (p *MANA) Records() int64 { return p.records }
