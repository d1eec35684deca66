package frontend

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"frontsim/internal/bpu"
	"frontsim/internal/cache"
	"frontsim/internal/hwpf"
	"frontsim/internal/isa"
	"frontsim/internal/program"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// executor returns a suite workload's executor: a stream long enough for
// any functional phase a test asks for.
func executor(t *testing.T) trace.Source {
	t.Helper()
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("workload missing")
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return program.NewExecutor(prog, spec.Seed)
}

func warmFE(t *testing.T, cfg Config, src trace.Source) *Frontend {
	t.Helper()
	fe, err := New(cfg, src, newHierarchy(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

// panicAfter is an instruction prefetcher that panics on its n-th
// observed fetch, deep enough into the phase that chunks are in flight.
type panicAfter struct {
	n   int
	val any
}

func (p *panicAfter) OnFetch(isa.Addr, cache.Cycle, bool, func(isa.Addr)) {
	if p.n--; p.n == 0 {
		panic(p.val)
	}
}

// panicSource panics on its n-th instruction: a fault on the calling
// stage while the worker is busy.
type panicSource struct {
	src trace.Source
	n   int
	val any
}

func (s *panicSource) Next() (isa.Instr, error) {
	if s.n--; s.n == 0 {
		panic(s.val)
	}
	return s.src.Next()
}

// TestWarmFunctionalPanicJoinsWorker pins the pipeline's failure paths: a
// panic on either stage surfaces on the caller with the same value, the
// worker has exited by the time the caller has recovered, and the
// pipeline, which lost chunks to the panic, is not kept for reuse.
func TestWarmFunctionalPanicJoinsWorker(t *testing.T) {
	boom := &struct{ msg string }{"stage failed"}
	prefetcherPanics := DefaultConfig()
	prefetcherPanics.Prefetcher = testPrefetcher{build: func() cache.InstrPrefetcher { return &panicAfter{n: 20_000, val: boom} }}
	for _, c := range []struct {
		stage string
		fe    *Frontend
	}{
		{"worker", warmFE(t, prefetcherPanics, executor(t))},
		{"caller", warmFE(t, DefaultConfig(), &panicSource{src: executor(t), n: 150_000, val: boom})},
	} {
		before := runtime.NumGoroutine()
		got := func() (v any) {
			defer func() { v = recover() }()
			c.fe.WarmFunctional(2_000_000, 0)
			return nil
		}()
		if got != boom {
			t.Fatalf("%s panic: WarmFunctional panicked with %v, want %v", c.stage, got, boom)
		}
		// The worker's last act is reporting its exit, so it may still be
		// unwinding for a moment after the caller has recovered.
		for i := 0; i < 500 && runtime.NumGoroutine() > before; i++ {
			time.Sleep(2 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n != before {
			t.Fatalf("%s panic: %d goroutines after, %d before", c.stage, n, before)
		}
		if c.fe.warm != nil {
			t.Fatalf("%s panic: a pipeline that lost chunks was kept for reuse", c.stage)
		}
	}
}

// TestWarmFunctionalAllocsIndependentOfLength pins the buffer reuse: after
// the first phase builds the pipeline, a phase allocates the same small
// constant however many instructions it warms, so chunk buffers are never
// re-made per call or per chunk.
func TestWarmFunctionalAllocsIndependentOfLength(t *testing.T) {
	fe := warmFE(t, DefaultConfig(), executor(t))
	short := testing.AllocsPerRun(5, func() { fe.WarmFunctional(20_000, 0) })
	long := testing.AllocsPerRun(3, func() { fe.WarmFunctional(1_000_000, 0) })
	if short != long {
		t.Fatalf("allocs per call: %v at 20k instructions, %v at 1M", short, long)
	}
	if short > 1 {
		t.Fatalf("allocs per call: %v, want at most 1 (starting the worker)", short)
	}
}

// serialWarm is the single-goroutine functional walk the pipeline
// replaced, kept as the oracle: every component's calls in program order,
// with unaligned prefetch targets passed through as they are.
func serialWarm(f *Frontend, n int64, now cache.Cycle) int64 {
	var consumed int64
	lastLine := ^isa.Addr(0)
	for consumed < n {
		blk := f.nextBlock()
		if len(blk) == 0 {
			break
		}
		for _, in := range blk {
			if line := in.PC.Line(); line != lastLine {
				lastLine = line
				hit := f.mem.L1I.Probe(line)
				f.mem.WarmInstr(line)
				if f.sd != nil {
					for _, sb := range f.sd.DecodeLine(line) {
						f.bp.ShadowInstall(sb)
					}
				}
				if f.pf != nil {
					f.pf.OnFetch(line, now, hit, f.mem.WarmPrefetchInstr)
				}
			}
			switch {
			case in.Class.IsMem():
				f.mem.WarmData(in.DataAddr)
			case in.Class == isa.ClassSwPrefetch:
				f.mem.WarmPrefetchInstr(in.Target)
			}
			if f.trigFilter != nil {
				for _, t := range f.triggers[in.PC] {
					f.mem.WarmPrefetchInstr(t)
				}
			}
			if in.Class != isa.ClassSwPrefetch {
				consumed++
			}
		}
		if last := blk[len(blk)-1]; last.Class.IsBranch() {
			if f.sd != nil {
				f.sd.Observe(last)
			}
			f.bp.PredictAndTrain(last)
		}
	}
	return consumed
}

// sprinkledSource turns every 40th ALU instruction of an executor into a
// software prefetch of an unaligned address 8 KiB ahead, so functional
// phases carry prefetch ops. It yields one instruction at a time, so the
// front-end reads it through trace.Blocks' cutter.
type sprinkledSource struct {
	src trace.Source
	n   int
}

func (s *sprinkledSource) Next() (isa.Instr, error) {
	in, err := s.src.Next()
	if err == nil && in.Class == isa.ClassALU {
		if s.n++; s.n%40 == 0 {
			in.Class = isa.ClassSwPrefetch
			in.Target = in.PC + 8<<10 + 4
		}
	}
	return in, err
}

// TestWarmFunctionalMatchesSerialWalk compares the two-stage pipeline with
// the serial walk on twin machines that exercise every op kind: an EIP
// prefetcher (trains on the probe's miss flag), shadow decoding, the I-TLB
// in prefetch-drop mode, software prefetches and a trigger table. After
// each of several phases, the consumed counts and the whole state of the
// hierarchy, predictors, shadow decoder and prefetcher must be equal.
func TestWarmFunctionalMatchesSerialWalk(t *testing.T) {
	spec, ok := workload.Lookup("public_srv_60")
	if !ok {
		t.Fatal("workload missing")
	}
	prog, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	triggers := map[isa.Addr][]isa.Addr{}
	exe := program.NewExecutor(prog, spec.Seed)
	for i := 0; i < 50_000; i++ {
		in, err := exe.Next()
		if err != nil {
			t.Fatal(err)
		}
		if i%61 == 0 {
			triggers[in.PC] = []isa.Addr{in.PC + 16<<10, in.PC + 24<<10 + 8}
		}
	}
	hc := cache.DefaultHierarchyConfig()
	hc.ITLB = cache.DefaultITLBConfig()
	twin := func() (*Frontend, *cache.Hierarchy, *hwpf.EIP) {
		h, err := cache.NewHierarchy(hc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Prefetcher = hwpf.DefaultEIPConfig()
		cfg.Shadow = bpu.DefaultShadowConfig()
		src := &sprinkledSource{src: program.NewExecutor(prog, spec.Seed)}
		fe, err := New(cfg, src, h, triggers)
		if err != nil {
			t.Fatal(err)
		}
		return fe, h, fe.Prefetcher().(*hwpf.EIP)
	}
	fa, ha, pa := twin()
	fb, hb, pb := twin()
	for phase, n := range []int64{1, 30_000, 250_000, 7_777, 400_000} {
		now := cache.Cycle(1000 * phase)
		got, want := fa.WarmFunctional(n, now), serialWarm(fb, n, now)
		if got != want {
			t.Fatalf("phase %d: consumed %d, serial walk %d", phase, got, want)
		}
		for _, c := range []struct {
			name string
			a, b any
		}{
			{"hierarchy", ha, hb},
			{"predictors", fa.bp, fb.bp},
			{"shadow decoder", fa.sd, fb.sd},
			{"prefetcher", pa, pb},
		} {
			if !reflect.DeepEqual(c.a, c.b) {
				t.Fatalf("phase %d: %s state differs from the serial walk", phase, c.name)
			}
		}
	}
}
