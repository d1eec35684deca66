package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEventKindWireNames(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "unknown_") {
			t.Fatalf("kind %d has no wire name", k)
		}
		b, err := k.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal kind %v: %v", k, err)
		}
		var back EventKind
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Fatalf("round trip: %v -> %s -> %v", k, b, back)
		}
	}
	var bad EventKind
	if err := bad.UnmarshalJSON([]byte(`"no_such_kind"`)); err == nil {
		t.Fatal("unknown kind name should not unmarshal")
	}
}

func TestObserverRingChronology(t *testing.T) {
	cases := []struct {
		name  string
		cap   int
		n     int64
		first int64 // expected cycle of oldest retained sample
	}{
		{"underfull", 8, 5, 0},
		{"exact", 8, 8, 0},
		{"wrapped", 8, 13, 5},
		{"wrapped-multi", 4, 103, 99},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := NewObserver(Options{SampleCap: tc.cap})
			for i := int64(0); i < tc.n; i++ {
				o.Sample(Sample{Cycle: i})
			}
			got := o.Samples()
			want := tc.n
			if int64(tc.cap) < want {
				want = int64(tc.cap)
			}
			if int64(len(got)) != want {
				t.Fatalf("retained %d samples, want %d", len(got), want)
			}
			for i, s := range got {
				if s.Cycle != tc.first+int64(i) {
					t.Fatalf("sample %d has cycle %d, want %d (not chronological)", i, s.Cycle, tc.first+int64(i))
				}
			}
			if o.TotalSamples() != tc.n {
				t.Fatalf("TotalSamples = %d, want %d", o.TotalSamples(), tc.n)
			}
		})
	}
}

func TestObserverEventStream(t *testing.T) {
	var buf bytes.Buffer
	o := NewObserver(Options{Events: &buf, MaxEvents: 3})
	events := []Event{
		{Cycle: 1, Kind: EvRedirect, Arg: 9},
		{Cycle: 2, Kind: EvMergeHit, Addr: 0x40},
		{Cycle: 3, Kind: EvPrefetchIssue, Addr: 0x80, Arg: 1},
		{Cycle: 4, Kind: EvFlush, Arg: 5},
		{Cycle: 5, Kind: EvFlush, Arg: 2},
	}
	for _, e := range events {
		o.Event(e)
	}
	if err := o.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if o.DroppedEvents() != 2 {
		t.Fatalf("DroppedEvents = %d, want 2", o.DroppedEvents())
	}
	if got := o.EventCount(EvFlush); got != 2 {
		t.Fatalf("EventCount(EvFlush) = %d, want 2 (dropped events still counted)", got)
	}
	back, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(back) != 3 {
		t.Fatalf("wrote %d events, want 3 (MaxEvents cap)", len(back))
	}
	for i, e := range back {
		if e != events[i] {
			t.Fatalf("event %d round trip: got %+v want %+v", i, e, events[i])
		}
	}
}

func TestObserverStrideDefaults(t *testing.T) {
	if got := NewObserver(Options{}).SampleStride(); got != 1 {
		t.Fatalf("default stride = %d, want 1", got)
	}
	if got := NewObserver(Options{Stride: -5}).SampleStride(); got != 1 {
		t.Fatalf("negative stride = %d, want 1", got)
	}
	if got := NewObserver(Options{Stride: 64}).SampleStride(); got != 64 {
		t.Fatalf("stride = %d, want 64", got)
	}
}

func TestFileObserverLifecycle(t *testing.T) {
	dir := t.TempDir()
	o, err := NewFileObserver(dir, "spec/gcc o2", Options{Stride: 8, SampleCap: 4})
	if err != nil {
		t.Fatalf("NewFileObserver: %v", err)
	}
	for i := int64(0); i < 6; i++ {
		o.Sample(Sample{Cycle: i * 8})
	}
	o.Event(Event{Cycle: 3, Kind: EvPFC, Addr: 0x1234})
	if err := o.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	evPath := filepath.Join(dir, "spec_gcc_o2.events.jsonl")
	f, err := os.Open(evPath)
	if err != nil {
		t.Fatalf("sanitized event file missing: %v", err)
	}
	defer f.Close()
	evs, err := ReadEvents(f)
	if err != nil || len(evs) != 1 || evs[0].Kind != EvPFC {
		t.Fatalf("events = %v, %v; want one EvPFC", evs, err)
	}

	sb, err := os.ReadFile(filepath.Join(dir, "spec_gcc_o2.samples.jsonl"))
	if err != nil {
		t.Fatalf("sample file missing: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(sb)), "\n")
	if len(lines) != 4 {
		t.Fatalf("sample file has %d lines, want 4 (ring cap)", len(lines))
	}
	if !strings.Contains(lines[0], `"cycle":16`) {
		t.Fatalf("oldest retained sample should be cycle 16, got %q", lines[0])
	}
}

func TestSanitizeLabel(t *testing.T) {
	cases := [][2]string{
		{"gcc/fdp24", "gcc_fdp24"},
		{"a b\tc", "a_b_c"},
		{"safe-name.v2", "safe-name.v2"},
		{"", "run"},
	}
	for _, c := range cases {
		if got := SanitizeLabel(c[0]); got != c[1] {
			t.Errorf("SanitizeLabel(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestMetricSetJSONDeterminism(t *testing.T) {
	build := func(order []int) MetricSet {
		metrics := []Metric{
			{Name: "frontsim_ipc", Help: "ipc", Labels: []Label{{Key: "workload", Value: "b"}}, Value: 1.5},
			{Name: "frontsim_ipc", Help: "ipc", Labels: []Label{{Key: "workload", Value: "a"}}, Value: 2.5},
			{Name: "frontsim_cycles", Labels: []Label{{Key: "workload", Value: "a"}}, Value: 100},
		}
		var ms MetricSet
		for _, i := range order {
			ms.Add(metrics[i])
		}
		return ms
	}
	var a, b bytes.Buffer
	if err := build([]int{0, 1, 2}).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build([]int{2, 0, 1}).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("insertion order leaked into JSON:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !strings.HasSuffix(a.String(), "\n]\n") {
		t.Fatalf("canonical JSON should end with newline-bracket-newline: %q", a.String())
	}
}

func TestMetricSetPrometheusFormat(t *testing.T) {
	var ms MetricSet
	ms.Add(Metric{
		Name: "frontsim_ipc", Help: "Instructions per cycle.",
		Labels: []Label{{Key: "workload", Value: `we"ird\lab` + "\nel"}, {Key: "config", Value: "fdp24"}},
		Value:  1.25,
	})
	ms.Add(Metric{Name: "frontsim_ipc", Labels: []Label{{Key: "workload", Value: "plain"}}, Value: 2})
	ms.Add(Metric{Name: "frontsim_cycles", Value: 12345})

	var buf bytes.Buffer
	if err := ms.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "# TYPE frontsim_cycles gauge\n" +
		"frontsim_cycles 12345\n" +
		"# HELP frontsim_ipc Instructions per cycle.\n" +
		"# TYPE frontsim_ipc gauge\n" +
		"frontsim_ipc{config=\"fdp24\",workload=\"we\\\"ird\\\\lab\\nel\"} 1.25\n" +
		"frontsim_ipc{workload=\"plain\"} 2\n"
	if got != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", got, want)
	}
}

func TestPromValueSpecials(t *testing.T) {
	if got := promValue(math.NaN()); got != "NaN" {
		t.Errorf("NaN -> %q", got)
	}
	if got := promValue(math.Inf(1)); got != "+Inf" {
		t.Errorf("+Inf -> %q", got)
	}
	if got := promValue(math.Inf(-1)); got != "-Inf" {
		t.Errorf("-Inf -> %q", got)
	}
}

func TestSuiteCollectorRollups(t *testing.T) {
	c := &SuiteCollector{}
	var ms1, ms2, ms3 MetricSet
	ms1.Add(Metric{Name: "frontsim_ipc", Labels: []Label{{Key: "workload", Value: "a"}}, Value: 1})
	ms2.Add(Metric{Name: "frontsim_ipc", Labels: []Label{{Key: "workload", Value: "b"}}, Value: 3})
	ms3.Add(Metric{Name: "frontsim_lone", Value: 7})
	c.Record(ms1)
	c.Record(ms2)
	c.Record(ms3)

	out := c.Export()
	find := func(name, stat string) (float64, bool) {
		for _, m := range out {
			if m.Name != name {
				continue
			}
			for _, l := range m.Labels {
				if l.Key == "stat" && l.Value == stat {
					return m.Value, true
				}
			}
		}
		return 0, false
	}
	if v, ok := find("frontsim_ipc_suite", "mean"); !ok || math.Abs(v-2) > 1e-12 {
		t.Fatalf("ipc suite mean = %v (found=%v), want 2", v, ok)
	}
	if v, ok := find("frontsim_ipc_suite", "min"); !ok || math.Abs(v-1) > 1e-12 {
		t.Fatalf("ipc suite min = %v (found=%v), want 1", v, ok)
	}
	if v, ok := find("frontsim_ipc_suite", "max"); !ok || math.Abs(v-3) > 1e-12 {
		t.Fatalf("ipc suite max = %v (found=%v), want 3", v, ok)
	}
	if _, ok := find("frontsim_lone_suite", "mean"); ok {
		t.Fatal("single-point family should not get a rollup")
	}

	// Export must be byte-stable regardless of record order.
	c2 := &SuiteCollector{}
	c2.Record(ms3)
	c2.Record(ms2)
	c2.Record(ms1)
	var a, b bytes.Buffer
	if err := c.Export().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := c2.Export().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("SuiteCollector export depends on record order")
	}
}

func TestEventCountsMetricSet(t *testing.T) {
	o := NewObserver(Options{})
	o.Event(Event{Kind: EvMergeHit})
	o.Event(Event{Kind: EvMergeHit})
	ms := o.EventCountsMetricSet(Label{Key: "workload", Value: "w"})
	if len(ms) != int(numEventKinds) {
		t.Fatalf("got %d metrics, want %d (one per kind)", len(ms), numEventKinds)
	}
	found := false
	for _, m := range ms {
		for _, l := range m.Labels {
			if l.Key == "kind" && l.Value == "merge_hit" {
				found = true
				if math.Abs(m.Value-2) > 1e-12 {
					t.Fatalf("merge_hit count = %v, want 2", m.Value)
				}
			}
		}
	}
	if !found {
		t.Fatal("no merge_hit metric emitted")
	}
}
