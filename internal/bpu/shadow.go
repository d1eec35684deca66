// Shadow-branch decoding ("Exposing Shadow Branches", Chacon et al. —
// note the source-paper author overlap): the fetch engine decodes the
// unused bytes of every fetched cache line and pre-fills BTB entries for
// the direct branches it finds there, so a later fetch that actually
// steers through those branches finds them identified and FDP stays on
// path. The simulator is trace-driven and has no raw bytes, so the
// decoder learns each line's decodable branches the first time they
// execute and replays them — installing into the BTB without displacing
// trained entries — whenever the line is fetched again.

package bpu

import (
	"fmt"

	"frontsim/internal/isa"
)

// ShadowConfig sizes the shadow-branch decoder. The zero value
// (LineEntries == 0) disables the mechanism.
type ShadowConfig struct {
	// LineEntries is the number of decoded-line records tracked
	// (direct-mapped by line, a power of two); 0 disables shadow decoding.
	LineEntries int
	// MaxPerLine caps the branch records retained per cache line; a line
	// holds at most LineSize/InstrSize branches, and the decoder keeps the
	// first MaxPerLine it observes.
	MaxPerLine int
}

// DefaultShadowConfig tracks 4K lines with up to 4 branches each.
func DefaultShadowConfig() ShadowConfig {
	return ShadowConfig{LineEntries: 4096, MaxPerLine: 4}
}

// Enabled reports whether the configuration models shadow decoding.
func (c ShadowConfig) Enabled() bool { return c.LineEntries > 0 }

// Validate checks the configuration; the disabled zero value is valid.
func (c ShadowConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.LineEntries&(c.LineEntries-1) != 0 {
		return fmt.Errorf("bpu: shadow LineEntries %d must be a power of two", c.LineEntries)
	}
	maxSlots := isa.LineSize / isa.InstrSize
	if c.MaxPerLine <= 0 || c.MaxPerLine > maxSlots {
		return fmt.Errorf("bpu: shadow MaxPerLine %d out of (0,%d]", c.MaxPerLine, maxSlots)
	}
	return nil
}

// ShadowBranch is one decodable branch found in a cache line: a direct
// branch whose target is encoded in its bytes (conditionals, jumps,
// calls), or a return, whose existence — though not its target — decodes
// from the bytes and whose target the RAS supplies.
type ShadowBranch struct {
	PC     isa.Addr
	Target isa.Addr
	Class  isa.Class
}

// decodable reports whether a branch of this class is discoverable by
// decoding raw line bytes: indirect branches read their target from a
// register, so shadow decode cannot expose them.
func decodable(c isa.Class) bool {
	switch c {
	case isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassReturn:
		return true
	}
	return false
}

// shadowLine is one line's decoded-branch record.
type shadowLine struct {
	line     isa.Addr
	valid    bool
	branches []ShadowBranch
}

// ShadowStats counts decoder behaviour.
type ShadowStats struct {
	Observed     int64 // decodable branches recorded
	LineConflict int64 // records reset by a different line mapping in
	CapDropped   int64 // branches dropped by the per-line cap
}

// ShadowDecoder is the learned stand-in for a byte-level shadow decoder:
// a direct-mapped table of per-line branch records.
type ShadowDecoder struct {
	cfg   ShadowConfig
	table []shadowLine

	stats ShadowStats
}

// NewShadowDecoder builds the decoder; the config must validate and be
// enabled.
func NewShadowDecoder(cfg ShadowConfig) (*ShadowDecoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, fmt.Errorf("bpu: constructing a disabled shadow decoder")
	}
	d := &ShadowDecoder{cfg: cfg, table: make([]shadowLine, cfg.LineEntries)}
	// Every record's branch list is a full-capacity window of one array,
	// so Observe appends without allocating.
	branches := make([]ShadowBranch, cfg.LineEntries*cfg.MaxPerLine)
	for i := range d.table {
		d.table[i].branches = branches[i*cfg.MaxPerLine : i*cfg.MaxPerLine : (i+1)*cfg.MaxPerLine]
	}
	return d, nil
}

// Stats returns a snapshot of the decoder counters.
func (d *ShadowDecoder) Stats() ShadowStats { return d.stats }

func (d *ShadowDecoder) slot(line isa.Addr) *shadowLine {
	return &d.table[line.LineIndex()&uint64(d.cfg.LineEntries-1)]
}

// Observe records one executed instruction into its line's record when its
// class is byte-decodable. A direct branch with no encoded target (the
// trace carries none) is skipped — there is nothing to decode. A conflict
// (different line mapping to the slot) resets the record, as the decoded
// metadata belongs to whatever line the table tracks.
func (d *ShadowDecoder) Observe(in isa.Instr) {
	if !decodable(in.Class) {
		return
	}
	if in.Target == 0 && in.Class != isa.ClassReturn {
		return
	}
	line := in.PC.Line()
	s := d.slot(line)
	if !s.valid || s.line != line {
		if s.valid {
			d.stats.LineConflict++
		}
		*s = shadowLine{line: line, valid: true, branches: s.branches[:0]}
	}
	for i := range s.branches {
		if s.branches[i].PC == in.PC {
			s.branches[i].Target = in.Target
			s.branches[i].Class = in.Class
			return
		}
	}
	if len(s.branches) >= d.cfg.MaxPerLine {
		d.stats.CapDropped++
		return
	}
	s.branches = append(s.branches, ShadowBranch{PC: in.PC, Target: in.Target, Class: in.Class})
	d.stats.Observed++
}

// DecodeLine returns the branches decodable from the given fetched line,
// in observation order, or nil when the line has no record. The returned
// slice aliases the record: callers must not retain it across Observe
// calls.
func (d *ShadowDecoder) DecodeLine(line isa.Addr) []ShadowBranch {
	line = line.Line()
	if s := d.slot(line); s.valid && s.line == line {
		return s.branches
	}
	return nil
}
