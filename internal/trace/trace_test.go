package trace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"frontsim/internal/isa"
	"frontsim/internal/xrand"
)

func sampleInstrs() []isa.Instr {
	return []isa.Instr{
		{PC: 0x1000, Class: isa.ClassALU},
		{PC: 0x1004, Class: isa.ClassLoad, DataAddr: 0x20000},
		{PC: 0x1008, Class: isa.ClassBranch, Taken: true, Target: 0x1100},
		{PC: 0x1100, Class: isa.ClassStore, DataAddr: 0x20040},
		{PC: 0x1104, Class: isa.ClassCall, Taken: true, Target: 0x2000},
		{PC: 0x2000, Class: isa.ClassSwPrefetch, Target: 0x3000},
		{PC: 0x2004, Class: isa.ClassReturn, Taken: true, Target: 0x1108},
	}
}

func TestSliceSource(t *testing.T) {
	s := NewSlice(sampleInstrs())
	if s.Len() != 7 {
		t.Fatalf("Len = %d", s.Len())
	}
	got, err := Collect(s, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("collected %d", len(got))
	}
	if _, err := s.Next(); !errors.Is(err, ErrEnd) {
		t.Fatalf("want ErrEnd, got %v", err)
	}
}

func TestLimit(t *testing.T) {
	l := NewLimit(NewSlice(sampleInstrs()), 3)
	got, err := Collect(l, -1)
	if err != nil || len(got) != 3 {
		t.Fatalf("got %d err %v", len(got), err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleInstrs()
	for _, in := range want {
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func randInstrs(seed uint64, n int) []isa.Instr {
	r := xrand.New(seed)
	out := make([]isa.Instr, 0, n)
	pc := isa.Addr(0x400000)
	for i := 0; i < n; i++ {
		var in isa.Instr
		in.PC = pc
		switch r.Intn(6) {
		case 0:
			in.Class = isa.ClassALU
		case 1:
			in.Class = isa.ClassLoad
			in.DataAddr = isa.Addr(r.Uint64n(1 << 32))
		case 2:
			in.Class = isa.ClassStore
			in.DataAddr = isa.Addr(r.Uint64n(1 << 32))
		case 3:
			in.Class = isa.ClassBranch
			in.Taken = r.Bool(0.5)
			in.Target = isa.Addr(0x400000 + r.Uint64n(1<<20)*4)
		case 4:
			in.Class = isa.ClassJump
			in.Taken = true
			in.Target = isa.Addr(0x400000 + r.Uint64n(1<<20)*4)
		case 5:
			in.Class = isa.ClassSwPrefetch
			in.Target = isa.Addr(0x400000 + r.Uint64n(1<<20)*4)
		}
		out = append(out, in)
		pc = in.NextPC()
	}
	return out
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		want := randInstrs(seed, 500)
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, in := range want {
			if err := w.Write(in); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := Collect(r, -1)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecCompact(t *testing.T) {
	// Mostly-sequential code should compress far below the naive ~25 bytes
	// per record.
	instrs := randInstrs(1, 20000)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, in := range instrs {
		if err := w.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	perInstr := float64(buf.Len()) / float64(len(instrs))
	if perInstr > 8 {
		t.Fatalf("codec too fat: %.2f bytes/instr", perInstr)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a gzip"))); err == nil {
		t.Fatal("expected error on non-gzip input")
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Close()
	raw := buf.Bytes()
	// Re-compress with corrupted magic.
	var bad bytes.Buffer
	badW, _ := NewWriter(&bad)
	_ = badW
	_ = raw
	// Simpler: gzip of wrong magic.
	var b2 bytes.Buffer
	gw := newGzip(&b2)
	gw.Write([]byte("WRONGMAG"))
	gw.Close()
	if _, err := NewReader(&b2); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Close()
	if err := w.Write(isa.Instr{}); err == nil {
		t.Fatal("expected error writing after Close")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double Close should be nil, got %v", err)
	}
}

func TestWriteRejectsInvalidClass(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Write(isa.Instr{Class: isa.Class(99)}); err == nil {
		t.Fatal("expected invalid-class error")
	}
}

func TestMeasure(t *testing.T) {
	st, err := Measure(NewSlice(sampleInstrs()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Instructions != 7 {
		t.Fatalf("Instructions = %d", st.Instructions)
	}
	if st.ByClass[isa.ClassALU] != 1 || st.ByClass[isa.ClassLoad] != 1 {
		t.Fatalf("class counts wrong: %v", st.ByClass)
	}
	if st.TakenBranch != 3 {
		t.Fatalf("TakenBranch = %d, want 3", st.TakenBranch)
	}
	// PCs 0x1000..0x1104 share line group 0x1000/0x1100; 0x2000/0x2004 one
	// line => lines {0x1000,0x1100,0x2000} = 3.
	if st.UniqueLines != 3 {
		t.Fatalf("UniqueLines = %d, want 3", st.UniqueLines)
	}
	if st.Footprint() != 3*isa.LineSize {
		t.Fatalf("Footprint = %d", st.Footprint())
	}
	if bf := st.BranchFraction(); bf <= 0.3 || bf >= 0.6 {
		t.Fatalf("BranchFraction = %v", bf)
	}
}

func TestCopy(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	n, err := Copy(w, NewSlice(sampleInstrs()))
	if err != nil || n != 7 {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	w.Close()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := Collect(r, -1)
	if len(got) != 7 {
		t.Fatalf("round trip through Copy lost records: %d", len(got))
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Close()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrEnd) {
		t.Fatalf("want ErrEnd on empty trace, got %v", err)
	}
}
