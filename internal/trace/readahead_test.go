package trace

import (
	"errors"
	"slices"
	"testing"

	"frontsim/internal/isa"
)

// genSource is a block source of n contiguous instructions with a branch
// every fifth one and at the end. It panics with val once panicAt
// instructions have been read, if val is set.
type genSource struct {
	n, i, panicAt int
	val           any
}

func (g *genSource) instr() isa.Instr {
	if g.val != nil && g.i == g.panicAt {
		panic(g.val)
	}
	in := isa.Instr{PC: isa.Addr(0x1000 + 4*g.i), Class: isa.ClassALU}
	if g.i%5 == 4 || g.i == g.n-1 {
		in.Class, in.Taken = isa.ClassBranch, true
	}
	g.i++
	return in
}

func (g *genSource) Next() (isa.Instr, error) {
	if g.i == g.n {
		return isa.Instr{}, ErrEnd
	}
	return g.instr(), nil
}

func (g *genSource) NextBlock(buf []isa.Instr, max int) ([]isa.Instr, error) {
	if g.i == g.n {
		return buf, ErrEnd
	}
	for end := len(buf) + max; len(buf) < end; {
		buf = append(buf, g.instr())
		if buf[len(buf)-1].Class.IsBranch() {
			break
		}
	}
	return buf, nil
}

// runs reads src to its end in runs of max, calling at(k) before the k-th
// call, and returns the runs and the error that ended them.
func runs(src BlockSource, max int, at func(k int)) ([][]isa.Instr, error) {
	var out [][]isa.Instr
	for k := 0; ; k++ {
		at(k)
		run, err := src.NextBlock(nil, max)
		out = append(out, run)
		if err != nil {
			return out, err
		}
	}
}

// TestReadAheadServesTheSourcesRuns reads a source through a read-ahead
// that is started, stopped mid-stream and restarted, and checks it yields
// the runs, and the final error, of the source read directly.
func TestReadAheadServesTheSourcesRuns(t *testing.T) {
	const n, max = 3*readAheadChunkInstrs + 7, 4
	want, wantErr := runs(&genSource{n: n}, max, func(int) {})
	for _, stopAt := range []int{-1, 1, 300, 2500} {
		ra := NewReadAhead(&genSource{n: n}, max)
		got, err := runs(ra, max, func(k int) {
			switch k {
			case 0:
				ra.Start()
			case stopAt:
				ra.Stop() // what was read ahead is served first, then the source
			case 2 * stopAt:
				ra.Start()
			}
		})
		ra.Stop()
		if !errors.Is(err, wantErr) || !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("stop at run %d: %d runs ending in %v, want %d ending in %v", stopAt, len(got), err, len(want), wantErr)
		}
	}
}

// TestReadAheadPanicsWhereTheSourceDoes checks a panic on the producer
// reaches the consumer with the same value, at the run where reading the
// source directly panics, and that Next refuses to run while runs are
// read ahead.
func TestReadAheadPanicsWhereTheSourceDoes(t *testing.T) {
	val := &struct{ msg string }{"boom"}
	read := func(src BlockSource) (k int, p any) {
		defer func() { p = recover() }()
		for ; ; k++ {
			if _, err := src.NextBlock(nil, 8); err != nil {
				return k, nil
			}
		}
	}
	wantK, wantP := read(&genSource{n: 20_000, panicAt: 9_000, val: val})
	ra := NewReadAhead(&genSource{n: 20_000, panicAt: 9_000, val: val}, 8)
	ra.Start()
	k, p := read(ra)
	ra.Stop()
	if wantP != val || p != val || k != wantK {
		t.Fatalf("read ahead: panic %v at run %d; direct: panic %v at run %d", p, k, wantP, wantK)
	}

	ra = NewReadAhead(&genSource{n: 100}, 8)
	ra.Start()
	defer ra.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("Next did not panic while the producer ran")
		}
	}()
	ra.Next()
}
