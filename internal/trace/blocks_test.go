package trace

import (
	"errors"
	"slices"
	"testing"

	"frontsim/internal/isa"
)

// peekLoop is the front-end's per-instruction fill loop that Blocks
// replaced, kept as the oracle for the cutter's run boundaries: it reads one
// instruction ahead and keeps it for the next block when it does not follow
// the block built so far.
type peekLoop struct {
	src     Source
	peeked  *isa.Instr
	peekBuf isa.Instr
	done    bool
	err     error // what ended the source, ErrEnd included
}

func (r *peekLoop) peek() *isa.Instr {
	if r.peeked != nil || r.done {
		return r.peeked
	}
	in, err := r.src.Next()
	if err != nil {
		r.done, r.err = true, err
		return nil
	}
	r.peekBuf = in
	r.peeked = &r.peekBuf
	return r.peeked
}

// next returns the next block of at most max instructions, and the error
// the lookahead hit once the source is done.
func (r *peekLoop) next(max int) ([]isa.Instr, error) {
	var blk []isa.Instr
	for len(blk) < max {
		p := r.peek()
		if p == nil {
			break
		}
		if len(blk) > 0 && p.PC != blk[len(blk)-1].PC+isa.InstrSize {
			break
		}
		r.peeked = nil
		blk = append(blk, *p)
		if p.Class.IsBranch() {
			break
		}
	}
	if r.done {
		return blk, r.err
	}
	return blk, nil
}

var errFail = errors.New("trace test: source failed")

// nextOnly is a Source with no NextBlock. It fails with errFail once
// failAt instructions have been read, unless failAt is negative, and ends
// after its instructions.
type nextOnly struct {
	instrs      []isa.Instr
	pos, failAt int
}

func (s *nextOnly) Next() (isa.Instr, error) {
	if s.pos == s.failAt {
		return isa.Instr{}, errFail
	}
	if s.pos == len(s.instrs) {
		return isa.Instr{}, ErrEnd
	}
	s.pos++
	return s.instrs[s.pos-1], nil
}

// fuzzStream decodes one instruction per byte: the low two bits choose an
// ALU instruction, a load, a branch or a return, and the next two, when
// zero, make the PC jump forward by the top four bits (plus one) without a
// branch before it.
func fuzzStream(data []byte) []isa.Instr {
	out := make([]isa.Instr, len(data))
	pc := isa.Addr(0x1000)
	for i, b := range data {
		if b>>2&3 == 0 {
			pc += isa.Addr(1+b>>4) * isa.InstrSize
		}
		in := isa.Instr{PC: pc, Class: isa.ClassALU}
		switch b & 3 {
		case 1:
			in.Class, in.DataAddr = isa.ClassLoad, 0x80000
		case 2:
			in.Class, in.Taken, in.Target = isa.ClassBranch, b&0x80 != 0, 0x1000
		case 3:
			in.Class, in.Taken, in.Target = isa.ClassReturn, true, 0x1000
		}
		out[i] = in
		pc += isa.InstrSize
	}
	return out
}

// FuzzBlocksMatchPeekLoop reads streams that only have Next, with PC jumps
// without a branch, branches, an end or a failure, through Blocks and
// through NewLimit at a fuzzed budget. At every step each run must be the
// peek loop's block and each error the one its lookahead hit; the runs are
// appended to a buffer that already holds instructions, which must be left
// as they were and must not take part in the PC comparison.
func FuzzBlocksMatchPeekLoop(f *testing.F) {
	f.Add([]byte{0x04, 0x04, 0x06, 0x00, 0x04, 0x14, 0x07, 0x04}, uint8(7), uint16(5), int16(-1), uint8(1))
	f.Add([]byte{0x04, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04}, uint8(2), uint16(7), int16(9), uint8(3))
	f.Add([]byte{0x00, 0x00, 0x06, 0x30, 0x05, 0x04}, uint8(0), uint16(0), int16(3), uint8(0))
	f.Add([]byte{0x06, 0x00}, uint8(7), uint16(2), int16(-1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, maxSeed uint8, budget uint16, failAt int16, prefixSeed uint8) {
		if len(data) > 512 {
			return
		}
		instrs := fuzzStream(data)
		max := 1 + int(maxSeed%8)
		fail := int(failAt)
		if fail < 0 || fail > len(instrs) {
			fail = -1
		}
		prefix := make([]isa.Instr, 1+int(prefixSeed%4))
		for i := range prefix {
			prefix[i] = isa.Instr{PC: isa.Addr(0xdead0000 + 4*i), Class: isa.ClassALU}
		}
		src := func() Source { return &nextOnly{instrs: instrs, failAt: fail} }
		compare := func(name string, got BlockSource, ref *peekLoop) {
			buf := make([]isa.Instr, 0, len(prefix)+max)
			for step := 0; step <= len(instrs)+1; step++ {
				out, err := got.NextBlock(append(buf[:0], prefix...), max)
				want, wantErr := ref.next(max)
				if !slices.Equal(out[:len(prefix)], prefix) {
					t.Fatalf("%s step %d: the run overwrote the buffer's contents", name, step)
				}
				if run := out[len(prefix):]; !slices.Equal(run, want) || err != wantErr {
					t.Fatalf("%s step %d (max %d): run %v, %v; peek loop %v, %v", name, step, max, run, err, want, wantErr)
				}
				if wantErr != nil {
					return
				}
			}
			t.Fatalf("%s: no error after %d runs", name, len(instrs)+2)
		}
		compare("Blocks", Blocks(src()), &peekLoop{src: src()})
		n := int64(budget)
		// The peek loop reads through Limit.Next, which counts each
		// instruction as it is read, the one it holds back included.
		compare("NewLimit", NewLimit(src(), n), &peekLoop{src: NewLimit(src(), n)})
	})
}

// TestBlocksKeepsRunSources checks that Blocks hands a source that yields
// runs back as it is, and cuts one that does not.
func TestBlocksKeepsRunSources(t *testing.T) {
	l := NewLimit(NewSlice(sampleInstrs()), 3)
	if got := Blocks(l); got != BlockSource(l) {
		t.Fatalf("Blocks(Limit) = %T, want the Limit", got)
	}
	if _, ok := Blocks(NewSlice(sampleInstrs())).(*cutter); !ok {
		t.Fatal("Blocks(Slice) is not a cutter")
	}
}
