// Package trace provides the dynamic instruction stream abstraction the
// simulator consumes, plus a compact binary on-disk format so synthetic
// workloads can be generated once and replayed (the ChampSim workflow the
// paper follows). A stream may come from a serialized trace file or be
// produced on the fly by a program executor; both implement Source.
package trace

import (
	"errors"
	"io"

	"frontsim/internal/isa"
)

// ErrEnd is returned by Source.Next when the stream is exhausted.
var ErrEnd = errors.New("trace: end of stream")

// Source yields dynamic instructions in program order. Implementations are
// not required to be safe for concurrent use; every simulator instance owns
// its source.
type Source interface {
	// Next returns the next dynamic instruction, or ErrEnd.
	Next() (isa.Instr, error)
}

// BlockSource is a Source that yields a whole fetch block per call, saving
// the consumer one interface call and one instruction copy per instruction
// on the simulator's hottest path. Every consumer that cuts the stream into
// blocks reads it this way (the front-end's FTQ entries, the read-ahead's
// runs, cfg.Profile's blocks), so they all cut it alike; Blocks gives any
// Source this form.
//
// NextBlock appends the next run of instructions to buf and returns the
// extended slice. The runs together are the stream repeated Next calls
// yield. A run ends:
//
//   - after a branch-class instruction (inclusive), or
//   - when len grows by max instructions, or
//   - before an instruction whose PC does not follow the previous one in
//     the run, which starts the next run, or
//   - at stream end — reported as ErrEnd together with any non-branch
//     tail, exactly when a consumer reading ahead one instruction past a
//     non-branch would hit the end. A run ending in a branch reports nil;
//     the ErrEnd surfaces on the next call.
//
// A failing source's error comes back the same way, with the run read
// before it.
type BlockSource interface {
	Source
	NextBlock(buf []isa.Instr, max int) ([]isa.Instr, error)
}

// Blocks returns src as a BlockSource: src itself when it yields runs, and
// otherwise a cutter that reads src's Next and ends each run by
// BlockSource's rule.
func Blocks(src Source) BlockSource {
	if bs, ok := src.(BlockSource); ok {
		return bs
	}
	return &cutter{src: src}
}

// cutter cuts a Source that only has Next into runs. held is the
// instruction that ended the last run by not following it, which starts the
// next run: a PC jump without a branch cannot happen in an executor's
// stream, but a serialized trace is external input.
type cutter struct {
	src  Source
	held isa.Instr
	hold bool
}

// Next implements Source.
func (c *cutter) Next() (isa.Instr, error) {
	if c.hold {
		c.hold = false
		return c.held, nil
	}
	return c.src.Next()
}

// NextBlock implements BlockSource. It compares PCs only within the run it
// appends, never with what buf already held.
func (c *cutter) NextBlock(buf []isa.Instr, max int) ([]isa.Instr, error) {
	start := len(buf)
	for len(buf)-start < max {
		in, err := c.Next()
		if err != nil {
			return buf, err
		}
		if n := len(buf); n > start && in.PC != buf[n-1].PC+isa.InstrSize {
			c.held, c.hold = in, true
			break
		}
		buf = append(buf, in)
		if in.Class.IsBranch() {
			break
		}
	}
	return buf, nil
}

// Slice is an in-memory Source over a fixed instruction sequence.
type Slice struct {
	instrs []isa.Instr
	pos    int
}

// NewSlice wraps instrs (not copied) as a Source.
func NewSlice(instrs []isa.Instr) *Slice { return &Slice{instrs: instrs} }

// Next implements Source.
func (s *Slice) Next() (isa.Instr, error) {
	if s.pos >= len(s.instrs) {
		return isa.Instr{}, ErrEnd
	}
	in := s.instrs[s.pos]
	s.pos++
	return in, nil
}

// Len returns the total number of instructions in the slice.
func (s *Slice) Len() int { return len(s.instrs) }

// Limit wraps a Source and stops after n instructions. It is used to run
// the paper's fixed-instruction-count simulations over unbounded executors.
type Limit struct {
	src  BlockSource
	n    int64
	seen int64
}

// NewLimit returns a BlockSource that yields at most n instructions from
// src, which it reads through Blocks.
func NewLimit(src Source, n int64) *Limit { return &Limit{src: Blocks(src), n: n} }

// Next implements Source.
func (l *Limit) Next() (isa.Instr, error) {
	if l.seen >= l.n {
		return isa.Instr{}, ErrEnd
	}
	in, err := l.src.Next()
	if err != nil {
		return isa.Instr{}, err
	}
	l.seen++
	return in, nil
}

// NextBlock implements BlockSource by budget-chopping the wrapped stream's
// runs.
func (l *Limit) NextBlock(buf []isa.Instr, max int) ([]isa.Instr, error) {
	if l.seen >= l.n {
		return buf, ErrEnd
	}
	m := max
	if rem := l.n - l.seen; int64(m) > rem {
		m = int(rem)
	}
	out, err := l.src.NextBlock(buf, m)
	l.seen += int64(len(out) - len(buf))
	if err != nil {
		return out, err
	}
	// The budget ran out mid-block: a consumer reading one instruction
	// ahead past the final non-branch instruction would see the end now.
	// A branch-final or max-sized run ends naturally without the probe.
	if l.seen >= l.n && len(out)-len(buf) < max {
		if n := len(out); n == len(buf) || !out[n-1].Class.IsBranch() {
			return out, ErrEnd
		}
	}
	return out, nil
}

// Collect drains up to max instructions from src into a slice. max < 0
// drains everything.
func Collect(src Source, max int64) ([]isa.Instr, error) {
	var out []isa.Instr
	for max < 0 || int64(len(out)) < max {
		in, err := src.Next()
		if errors.Is(err, ErrEnd) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, in)
	}
	return out, nil
}

// Copy streams src into w until the source ends, returning the instruction
// count written.
func Copy(w *Writer, src Source) (int64, error) {
	var n int64
	for {
		in, err := src.Next()
		if errors.Is(err, ErrEnd) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := w.Write(in); err != nil {
			return n, err
		}
		n++
	}
}

// Stats summarizes a stream's composition; used by workload tuning tests
// and the tracegen tool's report.
type Stats struct {
	Instructions int64
	ByClass      [isa.NumClasses]int64
	TakenBranch  int64
	// UniqueLines is the number of distinct instruction cache lines touched
	// (the instruction footprint in 64-byte lines).
	UniqueLines int
}

// Footprint returns the instruction footprint in bytes.
func (s *Stats) Footprint() int64 { return int64(s.UniqueLines) * isa.LineSize }

// BranchFraction returns the fraction of instructions that are branches.
func (s *Stats) BranchFraction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	var b int64
	for c := 0; c < isa.NumClasses; c++ {
		if isa.Class(c).IsBranch() {
			b += s.ByClass[c]
		}
	}
	return float64(b) / float64(s.Instructions)
}

// Measure consumes src and accumulates statistics.
func Measure(src Source) (Stats, error) {
	var st Stats
	lines := make(map[uint64]struct{})
	for {
		in, err := src.Next()
		if errors.Is(err, ErrEnd) {
			st.UniqueLines = len(lines)
			return st, nil
		}
		if err != nil {
			return st, err
		}
		st.Instructions++
		st.ByClass[in.Class]++
		if in.Class.IsBranch() && in.Taken {
			st.TakenBranch++
		}
		lines[in.PC.LineIndex()] = struct{}{}
	}
}

// readFull is a tiny helper shared by the codec.
func readFull(r io.Reader, buf []byte) error {
	_, err := io.ReadFull(r, buf)
	return err
}
