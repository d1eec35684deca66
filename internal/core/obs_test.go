package core

import (
	"bytes"
	"testing"

	"frontsim/internal/obs"
)

// TestObsFastForwardSampleIdentity pins the fast path's sample synthesis:
// at every stride, a fast-forwarded run must deliver exactly the samples —
// same cycles, same contents, same order — and exactly the event trace
// bytes a cycle-by-cycle run produces. Skipped spans are invisible to the
// observer.
func TestObsFastForwardSampleIdentity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 10_000
	cfg.MaxInstrs = 60_000

	for _, stride := range []int64{1, 7, 64} {
		observe := func(ff bool) (*obs.Observer, *bytes.Buffer) {
			var events bytes.Buffer
			o := obs.NewObserver(obs.Options{Stride: stride, SampleCap: 1 << 20, Events: &events})
			c := cfg
			c.Obs = o
			c.FastForward = ff
			if _, err := RunSource(c, source(t, "secret_srv12")); err != nil {
				t.Fatalf("stride %d ff=%v: %v", stride, ff, err)
			}
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
			return o, &events
		}
		slow, slowEvents := observe(false)
		fast, fastEvents := observe(true)

		ss, fs := slow.Samples(), fast.Samples()
		if len(ss) != len(fs) {
			t.Fatalf("stride %d: %d samples cycle-by-cycle vs %d fast-forwarded", stride, len(ss), len(fs))
		}
		if len(ss) == 0 {
			t.Fatalf("stride %d: no samples delivered", stride)
		}
		for i := range ss {
			if ss[i] != fs[i] {
				t.Fatalf("stride %d: sample %d diverges:\ncycle-by-cycle %+v\nfast-forward  %+v", stride, i, ss[i], fs[i])
			}
		}
		if !bytes.Equal(slowEvents.Bytes(), fastEvents.Bytes()) {
			t.Fatalf("stride %d: event traces diverge", stride)
		}
	}
}

// TestObsSampleStrideRespected checks the sampler fires every stride
// cycles (cycle numbers divisible by the stride) and that sample contents
// carry plausible, monotone cumulative counters.
func TestObsSampleStrideRespected(t *testing.T) {
	const stride = 16
	o := obs.NewObserver(obs.Options{Stride: stride, SampleCap: 1 << 16})
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 10_000
	cfg.MaxInstrs = 50_000
	cfg.Obs = o
	st, err := RunSource(cfg, source(t, "secret_int_44"))
	if err != nil {
		t.Fatal(err)
	}
	samples := o.Samples()
	if len(samples) < 10 {
		t.Fatalf("only %d samples", len(samples))
	}
	prev := obs.Sample{Cycle: -1}
	for i, s := range samples {
		if s.Cycle%stride != 0 {
			t.Fatalf("sample %d at cycle %d, not a stride multiple", i, s.Cycle)
		}
		if s.Cycle <= prev.Cycle {
			t.Fatalf("sample %d cycle %d not increasing (prev %d)", i, s.Cycle, prev.Cycle)
		}
		if s.FTQOcc < 0 || s.FTQOcc > cfg.Frontend.FTQEntries {
			t.Fatalf("sample %d FTQ occupancy %d out of range", i, s.FTQOcc)
		}
		if i > 0 && (s.L1IAccesses < prev.L1IAccesses || s.SwPrefetches < prev.SwPrefetches) {
			// Counters are cumulative within a measurement phase; the one
			// allowed drop is the warmup-boundary reset.
			if prev.Retired > s.Retired {
				// warmup reset: fine
			} else {
				t.Fatalf("sample %d cumulative counters regressed: %+v -> %+v", i, prev, s)
			}
		}
		prev = s
	}
	if st.Cycles == 0 {
		t.Fatal("run measured nothing")
	}
}

// TestStatsMetricSetExports sanity-checks the per-run metrics export:
// labels propagate, headline values match the snapshot, and the set
// serializes deterministically.
func TestStatsMetricSetExports(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 10_000
	cfg.MaxInstrs = 50_000
	st, err := RunSource(cfg, source(t, "secret_srv12"))
	if err != nil {
		t.Fatal(err)
	}
	ms := st.MetricSet(obs.Label{Key: "workload", Value: "secret_srv12"}, obs.Label{Key: "config", Value: cfg.Name})
	var ipcSeen, overshootSeen bool
	for _, m := range ms {
		if len(m.Labels) != 2 {
			t.Fatalf("metric %s has %d labels, want 2", m.Name, len(m.Labels))
		}
		switch m.Name {
		case "frontsim_ipc":
			ipcSeen = true
			if diff := m.Value - st.IPC(); diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("ipc metric %v != %v", m.Value, st.IPC())
			}
		case "frontsim_warmup_overshoot":
			overshootSeen = true
		}
	}
	if !ipcSeen || !overshootSeen {
		t.Fatalf("missing headline metrics (ipc=%v overshoot=%v)", ipcSeen, overshootSeen)
	}
	var a, b bytes.Buffer
	if err := ms.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := ms.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("MetricSet JSON not deterministic")
	}
	var prom bytes.Buffer
	if err := ms.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if prom.Len() == 0 {
		t.Fatal("empty Prometheus export")
	}
}
