package core

import (
	"bytes"
	"testing"

	"frontsim/internal/cache"
	"frontsim/internal/workload"
	"frontsim/internal/xrand"
)

// stepPair drives fast via StepN and slow via plain Step to the same
// cycle, asserting the architectural and accounting state agree at every
// jump boundary. It returns when either sim reports Done.
func stepPair(t *testing.T, fast, slow *Sim) {
	t.Helper()
	jumps := 0
	for !fast.Done() {
		if slow.Done() {
			t.Fatalf("slow sim done at cycle %d while fast sim is not", slow.Now())
		}
		n, _ := fast.StepN()
		if n > 1 {
			jumps++
		}
		for i := cache.Cycle(0); i < n; i++ {
			slow.Step()
		}
		if fast.Now() != slow.Now() {
			t.Fatalf("cycle divergence: fast %d, slow %d", fast.Now(), slow.Now())
		}
		if fast.Retired() != slow.Retired() {
			t.Fatalf("retired divergence at cycle %d: fast %d, slow %d", fast.Now(), fast.Retired(), slow.Retired())
		}
		fq, sq := fast.Frontend().FTQ().Stats(), slow.Frontend().FTQ().Stats()
		if fq != sq {
			t.Fatalf("FTQ stats divergence at cycle %d:\nfast %+v\nslow %+v", fast.Now(), fq, sq)
		}
		if ff, sf := fast.Frontend().Stats(), slow.Frontend().Stats(); ff != sf {
			t.Fatalf("frontend stats divergence at cycle %d:\nfast %+v\nslow %+v", fast.Now(), ff, sf)
		}
	}
	if !slow.Done() {
		t.Fatalf("fast sim done at cycle %d while slow sim is not", fast.Now())
	}
	if jumps == 0 {
		t.Fatal("fast path never jumped; the test exercised nothing")
	}
	fj, err := fast.snapshot().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sj, err := slow.snapshot().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fj, sj) {
		t.Fatalf("final stats diverge:\nfast: %s\nslow: %s", fj, sj)
	}
}

// TestStepNEquivalence pins the paired step-vs-jump equality on real suite
// workloads under both front-end configurations.
func TestStepNEquivalence(t *testing.T) {
	for _, wl := range []string{"secret_srv12", "secret_crypto52"} {
		for _, conservative := range []bool{false, true} {
			wl, conservative := wl, conservative
			name := wl + "/fdp24"
			if conservative {
				name = wl + "/cons"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := smallConfig("ffpair", conservative)
				fast, err := New(cfg, source(t, wl))
				if err != nil {
					t.Fatal(err)
				}
				slow, err := New(cfg, source(t, wl))
				if err != nil {
					t.Fatal(err)
				}
				stepPair(t, fast, slow)
			})
		}
	}
}

// fuzzSpec derives a randomized workload from a fuzz seed: a suite spec
// with its structural seed replaced, so program shape, branch outcomes and
// memory behaviour all vary with the input.
func fuzzSpec(t testing.TB, raw uint64) workload.Spec {
	sm := xrand.NewSplitMix64(raw)
	names := []string{"public_srv_60", "secret_crypto52", "secret_int_44"}
	spec, ok := workload.Lookup(names[sm.Next()%uint64(len(names))])
	if !ok {
		t.Fatal("suite workload missing")
	}
	spec.Seed = sm.Next()
	return spec
}

// FuzzFastForwardEquivalence fuzzes the paired step-vs-jump property over
// randomized workload seeds: whatever program the seed generates, the
// event-driven fast path must visit the same cycles with the same
// accounting as the cycle-by-cycle loop.
func FuzzFastForwardEquivalence(f *testing.F) {
	f.Add(uint64(1), false)
	f.Add(uint64(0x5eed), true)
	f.Add(uint64(0xdeadbeef), false)
	f.Fuzz(func(t *testing.T, raw uint64, conservative bool) {
		spec := fuzzSpec(t, raw)
		cfg := smallConfig("fffuzz", conservative)
		cfg.WarmupInstrs = 2_000
		cfg.MaxInstrs = 20_000
		newSim := func() *Sim {
			src, err := spec.NewSource()
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		fast, slow := newSim(), newSim()
		jumps := 0
		for !fast.Done() {
			if slow.Done() {
				t.Fatalf("slow sim done at cycle %d while fast sim is not", slow.Now())
			}
			n, _ := fast.StepN()
			if n > 1 {
				jumps++
			}
			for i := cache.Cycle(0); i < n; i++ {
				slow.Step()
			}
			if fast.Now() != slow.Now() || fast.Retired() != slow.Retired() {
				t.Fatalf("divergence: fast (cycle %d, retired %d), slow (cycle %d, retired %d)",
					fast.Now(), fast.Retired(), slow.Now(), slow.Retired())
			}
			if fq, sq := fast.Frontend().FTQ().Stats(), slow.Frontend().FTQ().Stats(); fq != sq {
				t.Fatalf("seed %#x: FTQ stats divergence at cycle %d:\nfast %+v\nslow %+v", raw, fast.Now(), fq, sq)
			}
		}
		if !slow.Done() {
			t.Fatalf("fast sim done at cycle %d while slow sim is not", fast.Now())
		}
		fj, err := fast.snapshot().CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		sj, err := slow.snapshot().CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fj, sj) {
			t.Fatalf("seed %#x: final stats diverge:\nfast: %s\nslow: %s", raw, fj, sj)
		}
		_ = jumps // sparse seeds may produce jump-free runs; equality still holds
	})
}
