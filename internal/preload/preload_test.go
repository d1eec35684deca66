package preload

import (
	"testing"

	"frontsim/internal/asmdb"
	"frontsim/internal/isa"
)

func testPlan() *asmdb.Plan {
	return &asmdb.Plan{
		Insertions: []asmdb.Insertion{
			{Site: 0x1008, Target: 0x9000},
			{Site: 0x1010, Target: 0xa040}, // same trigger line as 0x1008
			{Site: 0x5000, Target: 0xb000},
		},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{L1Entries: 0, FillLatency: 1, MaxTargetsPerLine: 1},
		{L1Entries: 100, FillLatency: 1, MaxTargetsPerLine: 1},
		{L1Entries: 16, FillLatency: -1, MaxTargetsPerLine: 1},
		{L1Entries: 16, FillLatency: 1, MaxTargetsPerLine: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// preloader compiles plan under cfg and builds a run's preloader from the
// store.
func preloader(t *testing.T, cfg Config, plan *asmdb.Plan) *Preloader {
	t.Helper()
	s, err := Compile(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	return s.New().(*Preloader)
}

func TestStoreCompilation(t *testing.T) {
	s, err := Compile(DefaultConfig(), testPlan())
	if err != nil {
		t.Fatal(err)
	}
	// 0x1008 and 0x1010 share line 0x1000; 0x5000 is its own line.
	if s.Entries() != 2 {
		t.Fatalf("store entries = %d, want 2", s.Entries())
	}
}

func TestMetadataMissThenHit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FillLatency = 40
	p := preloader(t, cfg, testPlan())
	var issued []isa.Addr
	issue := func(l isa.Addr) { issued = append(issued, l) }

	// First access: metadata miss — no prefetch yet.
	p.OnFetch(0x1000, 0, false, issue)
	if len(issued) != 0 {
		t.Fatal("prefetched before metadata arrived")
	}
	if p.PrefetchCounters().MetadataMisses != 1 {
		t.Fatalf("stats %+v", p.PrefetchCounters())
	}
	// Before the fill completes: still nothing.
	p.OnFetch(0x1000, 20, false, issue)
	if len(issued) != 0 {
		t.Fatal("prefetched while metadata in flight")
	}
	// After the fill: both targets on the trigger line fire.
	p.OnFetch(0x1000, 50, false, issue)
	if len(issued) != 2 {
		t.Fatalf("issued %v", issued)
	}
	want := map[isa.Addr]bool{isa.Addr(0x9000).Line(): true, isa.Addr(0xa040).Line(): true}
	for _, l := range issued {
		if !want[l] {
			t.Fatalf("unexpected prefetch %v", l)
		}
	}
	st := p.PrefetchCounters()
	if st.L1Hits != 1 || st.Prefetches != 2 || st.Lookups != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUnknownLineIsQuiet(t *testing.T) {
	p := preloader(t, DefaultConfig(), testPlan())
	p.OnFetch(0xdead000, 0, false, func(isa.Addr) { t.Fatal("issued for unknown line") })
	if p.PrefetchCounters().MetadataMisses != 0 {
		t.Fatal("unknown line counted as metadata miss")
	}
}

func TestMaxTargetsPerLine(t *testing.T) {
	plan := &asmdb.Plan{}
	for i := 0; i < 10; i++ {
		plan.Insertions = append(plan.Insertions, asmdb.Insertion{
			Site:   0x1000,
			Target: isa.Addr(0x9000 + i*isa.LineSize),
		})
	}
	cfg := DefaultConfig()
	cfg.MaxTargetsPerLine = 3
	cfg.FillLatency = 0
	p := preloader(t, cfg, plan)
	var issued []isa.Addr
	p.OnFetch(0x1000, 0, false, func(l isa.Addr) { issued = append(issued, l) })
	p.OnFetch(0x1000, 1, false, func(l isa.Addr) { issued = append(issued, l) })
	if len(issued) != 3 {
		t.Fatalf("issued %d targets, want capped 3", len(issued))
	}
}

func TestConflictEviction(t *testing.T) {
	// Two trigger lines mapping to the same direct-mapped slot evict each
	// other; both still work after re-fill.
	cfg := Config{L1Entries: 1, FillLatency: 0, MaxTargetsPerLine: 4}
	p := preloader(t, cfg, testPlan())
	count := 0
	issue := func(isa.Addr) { count++ }
	p.OnFetch(0x1000, 0, false, issue) // miss, installs
	p.OnFetch(0x1000, 1, false, issue) // hit: 2 prefetches
	p.OnFetch(0x5000, 2, false, issue) // conflict miss, installs over
	p.OnFetch(0x5000, 3, false, issue) // hit: 1 prefetch
	p.OnFetch(0x1000, 4, false, issue) // must re-miss
	st := p.PrefetchCounters()
	if st.MetadataMisses != 3 {
		t.Fatalf("metadata misses = %d, want 3", st.MetadataMisses)
	}
	if count != 3 {
		t.Fatalf("prefetches = %d, want 3", count)
	}
}
