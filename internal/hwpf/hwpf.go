// Package hwpf implements hardware L1-I prefetchers used as comparators in
// the paper's Figure 1 and the mechanism matrix: a simple next-line
// prefetcher, an EIP-style entangling prefetcher ("EIP" is the entangling
// instruction prefetcher series shown alongside FDP in the figure) and a
// MANA-style spatial-region prefetcher. Each configuration type
// (NextLineConfig, EIPConfig, MANAConfig) is a cache.PrefetcherConfig: a
// machine configuration carries it as plain data, and every run builds its
// own prefetcher from it, which observes that run's demand fetches.
package hwpf

import (
	"fmt"

	"frontsim/internal/cache"
	"frontsim/internal/isa"
)

// NextLineConfig configures the next-line prefetcher.
type NextLineConfig struct {
	// Degree is how many successor lines to prefetch.
	Degree int
	// OnMissOnly restricts prefetching to demand misses.
	OnMissOnly bool
}

// Validate checks the configuration.
func (c NextLineConfig) Validate() error {
	if c.Degree <= 0 {
		return fmt.Errorf("hwpf: next-line degree %d must be positive", c.Degree)
	}
	return nil
}

// New builds a next-line prefetcher.
func (c NextLineConfig) New() cache.InstrPrefetcher { return &NextLine{cfg: c} }

// PrefetchFingerprint implements cache.PrefetcherConfig.
func (c NextLineConfig) PrefetchFingerprint() string {
	return fmt.Sprintf("hwpf.NextLine{Degree:%d,OnMissOnly:%v}", c.Degree, c.OnMissOnly)
}

// NextLine prefetches the next Degree sequential lines after every demand
// fetch. Sequential instruction streams make this surprisingly effective
// (Smith, 1978), and it is the classic low-cost baseline.
type NextLine struct {
	cfg    NextLineConfig
	issued int64
}

// OnFetch implements cache.InstrPrefetcher.
func (p *NextLine) OnFetch(line isa.Addr, now cache.Cycle, hit bool, issue func(isa.Addr)) {
	if p.cfg.OnMissOnly && hit {
		return
	}
	for i := 1; i <= p.cfg.Degree; i++ {
		issue(line + isa.Addr(i*isa.LineSize))
		p.issued++
	}
}

// Issued returns the number of prefetches issued.
func (p *NextLine) Issued() int64 { return p.issued }

// EIPConfig sizes the entangling prefetcher.
type EIPConfig struct {
	// TableEntries is the number of source lines tracked (direct-mapped).
	TableEntries int
	// MaxEntangled is the number of destination lines per source.
	MaxEntangled int
	// HistoryDepth is how many recently fetched lines are candidates for
	// entangling with a new miss (the "who fetched long enough ago to have
	// hidden this miss" window).
	HistoryDepth int
}

// DefaultEIPConfig mirrors the published design's scale.
func DefaultEIPConfig() EIPConfig {
	return EIPConfig{TableEntries: 4096, MaxEntangled: 3, HistoryDepth: 16}
}

// Validate checks the configuration.
func (c EIPConfig) Validate() error {
	if c.TableEntries <= 0 || c.TableEntries&(c.TableEntries-1) != 0 {
		return fmt.Errorf("hwpf: TableEntries %d must be a positive power of two", c.TableEntries)
	}
	if c.MaxEntangled <= 0 || c.HistoryDepth <= 0 {
		return fmt.Errorf("hwpf: non-positive EIP parameter")
	}
	return nil
}

type eipEntry struct {
	src   isa.Addr
	valid bool
	dsts  []isa.Addr
}

// EIP is a simplified entangling instruction prefetcher: on a demand miss
// for line D, it entangles D with a line S fetched earlier (far enough back
// that prefetching D when S is fetched would have hidden D's latency); on
// every fetch of S it prefetches S's entangled lines.
type EIP struct {
	cfg     EIPConfig
	table   []eipEntry
	history []isa.Addr // ring of recent fetched lines
	hpos    int
	hlen    int

	issued    int64
	entangled int64
}

// New builds an entangling prefetcher. Every entry's destination list is a
// full-capacity window of one array, so training appends without
// allocating.
func (c EIPConfig) New() cache.InstrPrefetcher {
	p := &EIP{cfg: c, table: make([]eipEntry, c.TableEntries), history: make([]isa.Addr, c.HistoryDepth)}
	dsts := make([]isa.Addr, c.TableEntries*c.MaxEntangled)
	for i := range p.table {
		p.table[i].dsts = dsts[i*c.MaxEntangled : i*c.MaxEntangled : (i+1)*c.MaxEntangled]
	}
	return p
}

// PrefetchFingerprint implements cache.PrefetcherConfig.
func (c EIPConfig) PrefetchFingerprint() string {
	return fmt.Sprintf("hwpf.EIP{TableEntries:%d,MaxEntangled:%d,HistoryDepth:%d}",
		c.TableEntries, c.MaxEntangled, c.HistoryDepth)
}

func (p *EIP) slot(line isa.Addr) *eipEntry {
	return &p.table[line.LineIndex()&uint64(p.cfg.TableEntries-1)]
}

// OnFetch implements cache.InstrPrefetcher.
func (p *EIP) OnFetch(line isa.Addr, now cache.Cycle, hit bool, issue func(isa.Addr)) {
	line = line.Line()
	// Replay: if this line is a known source, prefetch its entangled
	// destinations.
	if e := p.slot(line); e.valid && e.src == line {
		for _, d := range e.dsts {
			issue(d)
			p.issued++
		}
	}
	// Train: on a miss, entangle with the oldest line in the history
	// window — the fetch far enough in the past to have hidden this miss.
	if !hit && p.hlen > 0 {
		src := p.history[(p.hpos-p.hlen+len(p.history))%len(p.history)]
		if src != line {
			e := p.slot(src)
			if !e.valid || e.src != src {
				*e = eipEntry{src: src, valid: true, dsts: e.dsts[:0]}
			}
			if !containsAddr(e.dsts, line) {
				if len(e.dsts) >= p.cfg.MaxEntangled {
					copy(e.dsts, e.dsts[1:])
					e.dsts = e.dsts[:len(e.dsts)-1]
				}
				e.dsts = append(e.dsts, line)
				p.entangled++
			}
		}
	}
	// Record the fetch in the history ring.
	p.history[p.hpos] = line
	p.hpos = (p.hpos + 1) % len(p.history)
	if p.hlen < len(p.history) {
		p.hlen++
	}
}

// Issued returns the number of prefetches issued.
func (p *EIP) Issued() int64 { return p.issued }

// Entangled returns the number of (source, destination) pairs learned.
func (p *EIP) Entangled() int64 { return p.entangled }

func containsAddr(xs []isa.Addr, a isa.Addr) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}
