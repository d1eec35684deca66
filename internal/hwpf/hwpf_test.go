package hwpf

import (
	"testing"

	"frontsim/internal/cache"
	"frontsim/internal/isa"
)

// build validates c and builds its prefetcher.
func build[P cache.InstrPrefetcher](t *testing.T, c cache.PrefetcherConfig) P {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c.New().(P)
}

type issueRecorder struct {
	lines []isa.Addr
}

func (r *issueRecorder) issue(l isa.Addr) { r.lines = append(r.lines, l) }

func TestNextLineDegree(t *testing.T) {
	p := build[*NextLine](t, NextLineConfig{Degree: 3})
	rec := &issueRecorder{}
	p.OnFetch(0x1000, 0, false, rec.issue)
	if len(rec.lines) != 3 {
		t.Fatalf("issued %d", len(rec.lines))
	}
	want := []isa.Addr{0x1040, 0x1080, 0x10c0}
	for i, w := range want {
		if rec.lines[i] != w {
			t.Fatalf("line %d = %v, want %v", i, rec.lines[i], w)
		}
	}
	if p.Issued() != 3 {
		t.Fatalf("Issued = %d", p.Issued())
	}
}

func TestNextLineOnMissOnly(t *testing.T) {
	p := build[*NextLine](t, NextLineConfig{Degree: 1, OnMissOnly: true})
	rec := &issueRecorder{}
	p.OnFetch(0x1000, 0, true, rec.issue)
	if len(rec.lines) != 0 {
		t.Fatal("prefetched on a hit with OnMissOnly")
	}
	p.OnFetch(0x1000, 0, false, rec.issue)
	if len(rec.lines) != 1 {
		t.Fatal("no prefetch on miss")
	}
}

func TestNextLineConfigValidate(t *testing.T) {
	if err := (NextLineConfig{Degree: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, degree := range []int{0, -1} {
		if err := (NextLineConfig{Degree: degree}).Validate(); err == nil {
			t.Errorf("degree %d accepted", degree)
		}
	}
}

func TestEIPConfigValidate(t *testing.T) {
	if err := DefaultEIPConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []EIPConfig{
		{TableEntries: 0, MaxEntangled: 1, HistoryDepth: 1},
		{TableEntries: 100, MaxEntangled: 1, HistoryDepth: 1}, // non-pow2
		{TableEntries: 16, MaxEntangled: 0, HistoryDepth: 1},
		{TableEntries: 16, MaxEntangled: 1, HistoryDepth: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEIPLearnsAndReplays(t *testing.T) {
	p := build[*EIP](t, EIPConfig{TableEntries: 64, MaxEntangled: 2, HistoryDepth: 2})
	rec := &issueRecorder{}
	// Sequence: src fetched (hit), filler, then dst misses. dst entangles
	// with the oldest history entry = src.
	p.OnFetch(0x1000, 0, true, rec.issue)  // src
	p.OnFetch(0x2000, 1, true, rec.issue)  // filler
	p.OnFetch(0x9000, 2, false, rec.issue) // miss -> entangle 0x9000 with 0x1000
	if p.Entangled() != 1 {
		t.Fatalf("entangled = %d", p.Entangled())
	}
	// Refetching src must now prefetch dst.
	rec.lines = nil
	p.OnFetch(0x1000, 10, true, rec.issue)
	if len(rec.lines) != 1 || rec.lines[0] != 0x9000 {
		t.Fatalf("replay issued %v", rec.lines)
	}
	if p.Issued() != 1 {
		t.Fatalf("Issued = %d", p.Issued())
	}
}

func TestEIPMaxEntangledEvictsOldest(t *testing.T) {
	p := build[*EIP](t, EIPConfig{TableEntries: 64, MaxEntangled: 2, HistoryDepth: 1})
	rec := &issueRecorder{}
	// With HistoryDepth=1 the entangle source is always the previous
	// fetch.
	p.OnFetch(0x1000, 0, true, rec.issue)
	p.OnFetch(0x9000, 1, false, rec.issue) // 0x1000 -> 0x9000
	p.OnFetch(0x1000, 2, true, rec.issue)
	p.OnFetch(0xa000, 3, false, rec.issue) // 0x1000 -> 0xa000
	p.OnFetch(0x1000, 4, true, rec.issue)
	p.OnFetch(0xb000, 5, false, rec.issue) // evicts 0x9000
	rec.lines = nil
	p.OnFetch(0x1000, 6, true, rec.issue)
	if len(rec.lines) != 2 {
		t.Fatalf("issued %v", rec.lines)
	}
	for _, l := range rec.lines {
		if l == 0x9000 {
			t.Fatal("oldest entangling not evicted")
		}
	}
}

func TestEIPNoSelfEntangle(t *testing.T) {
	p := build[*EIP](t, EIPConfig{TableEntries: 64, MaxEntangled: 2, HistoryDepth: 1})
	rec := &issueRecorder{}
	p.OnFetch(0x1000, 0, false, rec.issue)
	p.OnFetch(0x1000, 1, false, rec.issue) // would self-entangle
	if p.Entangled() != 0 {
		t.Fatalf("self-entangled: %d", p.Entangled())
	}
}

func TestEIPDedupDestinations(t *testing.T) {
	p := build[*EIP](t, EIPConfig{TableEntries: 64, MaxEntangled: 4, HistoryDepth: 1})
	rec := &issueRecorder{}
	for i := 0; i < 3; i++ {
		p.OnFetch(0x1000, 0, true, rec.issue)
		p.OnFetch(0x9000, 1, false, rec.issue)
	}
	if p.Entangled() != 1 {
		t.Fatalf("duplicate destinations: %d", p.Entangled())
	}
}
