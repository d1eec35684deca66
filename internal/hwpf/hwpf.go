// Package hwpf implements hardware L1-I prefetchers used as comparators in
// the paper's Figure 1: a simple next-line prefetcher and an EIP-style
// entangling prefetcher ("EIP" is the entangling instruction prefetcher
// series shown alongside FDP in the figure). Both observe demand fetches
// through the frontend.InstrPrefetcher hook.
package hwpf

import (
	"fmt"

	"frontsim/internal/cache"
	"frontsim/internal/isa"
)

// NextLine prefetches the next Degree sequential lines after every demand
// fetch. Sequential instruction streams make this surprisingly effective
// (Smith, 1978), and it is the classic low-cost baseline.
type NextLine struct {
	// Degree is how many successor lines to prefetch.
	Degree int
	// OnMissOnly restricts prefetching to demand misses.
	OnMissOnly bool

	issued int64
}

// NewNextLine builds a next-line prefetcher of the given degree.
func NewNextLine(degree int) *NextLine {
	if degree <= 0 {
		panic("hwpf: non-positive next-line degree")
	}
	return &NextLine{Degree: degree}
}

// OnFetch implements frontend.InstrPrefetcher.
func (p *NextLine) OnFetch(line isa.Addr, now cache.Cycle, hit bool, issue func(isa.Addr)) {
	if p.OnMissOnly && hit {
		return
	}
	for i := 1; i <= p.Degree; i++ {
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
	dsts    []isa.Addr // backs every entry's dsts
	history []isa.Addr // ring of recent fetched lines
	hpos    int
	hlen    int

	issued    int64
	entangled int64
}

// NewEIP builds the prefetcher.
func NewEIP(cfg EIPConfig) (*EIP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &EIP{cfg: cfg, history: make([]isa.Addr, cfg.HistoryDepth)}, nil
}

func (p *EIP) slot(line isa.Addr) *eipEntry {
	return &p.table[line.LineIndex()&uint64(p.cfg.TableEntries-1)]
}

// OnFetch implements frontend.InstrPrefetcher.
func (p *EIP) OnFetch(line isa.Addr, now cache.Cycle, hit bool, issue func(isa.Addr)) {
	if p.table == nil {
		// Made on the first fetch, like the entangled lists below, so a
		// prefetcher built only to fingerprint a cell holds no table.
		p.table = make([]eipEntry, p.cfg.TableEntries)
	}
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
			if e.dsts == nil {
				// Every entry's destination list is a full-capacity window
				// of one array, made on the first training, so training
				// appends without allocating and a prefetcher built only
				// to fingerprint a cell holds no lists.
				if p.dsts == nil {
					p.dsts = make([]isa.Addr, p.cfg.TableEntries*p.cfg.MaxEntangled)
				}
				i := int(src.LineIndex()&uint64(p.cfg.TableEntries-1)) * p.cfg.MaxEntangled
				e.dsts = p.dsts[i : i : i+p.cfg.MaxEntangled]
			}
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

// PrefetchFingerprint implements core.PrefetchFingerprinter: the stable
// identity of a freshly constructed next-line prefetcher is its static
// configuration (learned state is per-run and excluded by design).
func (p *NextLine) PrefetchFingerprint() string {
	return fmt.Sprintf("hwpf.NextLine{Degree:%d,OnMissOnly:%v}", p.Degree, p.OnMissOnly)
}

// PrefetchFingerprint implements core.PrefetchFingerprinter for EIP; as
// with NextLine, only the static configuration identifies the run.
func (p *EIP) PrefetchFingerprint() string {
	return fmt.Sprintf("hwpf.EIP{TableEntries:%d,MaxEntangled:%d,HistoryDepth:%d}",
		p.cfg.TableEntries, p.cfg.MaxEntangled, p.cfg.HistoryDepth)
}
