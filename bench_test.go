// Benchmarks regenerating the paper's tables and figures: one testing.B
// benchmark per artifact (see DESIGN.md §5 for the experiment index).
// Each benchmark runs a scaled-down version of its experiment and reports
// the headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the shape of every result. cmd/experiments runs the same
// experiments at full suite scale with tabular output.
package frontsim_test

import (
	"testing"

	"frontsim/internal/asmdb"
	"frontsim/internal/cfg"
	"frontsim/internal/core"
	"frontsim/internal/experiment"
	"frontsim/internal/feedback"
	"frontsim/internal/hwpf"
	"frontsim/internal/obs"
	"frontsim/internal/preload"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/stats"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// benchParams returns the scaled-down experiment parameters used by every
// benchmark.
func benchParams() experiment.Params {
	p := experiment.DefaultParams()
	p.WarmupInstrs = 150_000
	p.MeasureInstrs = 400_000
	p.ProfileInstrs = 500_000
	return p
}

// benchSpecs is the representative sub-suite (one crypto, two int, three
// srv) the benchmarks sweep; the full 48 run through cmd/experiments.
func benchSpecs() []workload.Spec {
	names := []string{
		"secret_crypto52", "secret_int_44", "secret_int_124",
		"public_srv_60", "secret_srv12", "secret_srv41",
	}
	out := make([]workload.Spec, 0, len(names))
	for _, n := range names {
		s, ok := workload.Lookup(n)
		if !ok {
			panic("missing workload " + n)
		}
		out = append(out, s)
	}
	return out
}

// runSuite regenerates the benchmark sub-suite, optionally through a run
// cache — pass nil for the always-cold path the figure benchmarks use, or
// a runner.Cache to measure cold/warm cache behavior.
func runSuite(b *testing.B, c *runner.Cache) []*experiment.Matrix {
	b.Helper()
	p := benchParams()
	p.Cache = c
	ms, err := experiment.RunSuite(benchSpecs(), p, nil)
	if err != nil {
		b.Fatal(err)
	}
	return ms
}

func speedups(ms []*experiment.Matrix, f func(*experiment.Matrix) core.Stats) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Speedup(f(m))
	}
	return out
}

// BenchmarkTable1Config regenerates Table I (machine parameters) and
// verifies the configuration validates; reported metric is the FTQ depth
// ratio between the two front-ends.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.TableI()
		if len(t.Rows) == 0 {
			b.Fatal("empty Table I")
		}
		if err := core.DefaultConfig().Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(core.DefaultConfig().Frontend.FTQEntries), "ftq-industry")
	b.ReportMetric(float64(core.ConservativeConfig().Frontend.FTQEntries), "ftq-conservative")
}

// BenchmarkFigure1IPC regenerates Figure 1: IPC speedups over the
// conservative baseline for every series (geomean reported).
func BenchmarkFigure1IPC(b *testing.B) {
	var ms []*experiment.Matrix
	for i := 0; i < b.N; i++ {
		ms = runSuite(b, nil)
	}
	b.ReportMetric(stats.Geomean(speedups(ms, func(m *experiment.Matrix) core.Stats { return m.AsmdbCons })), "asmdb")
	b.ReportMetric(stats.Geomean(speedups(ms, func(m *experiment.Matrix) core.Stats { return m.AsmdbConsIdeal })), "asmdb-ideal")
	b.ReportMetric(stats.Geomean(speedups(ms, func(m *experiment.Matrix) core.Stats { return m.FDP })), "fdp24")
	b.ReportMetric(stats.Geomean(speedups(ms, func(m *experiment.Matrix) core.Stats { return m.AsmdbFDP })), "asmdb+fdp24")
	b.ReportMetric(stats.Geomean(speedups(ms, func(m *experiment.Matrix) core.Stats { return m.AsmdbFDPIdeal })), "ideal+fdp24")
	b.ReportMetric(stats.Geomean(speedups(ms, func(m *experiment.Matrix) core.Stats { return m.EIPFDP })), "eip+fdp24")
}

// BenchmarkFigure7Bloat regenerates Figure 7: static and dynamic code
// bloat from AsmDB's insertions (averages reported, percent).
func BenchmarkFigure7Bloat(b *testing.B) {
	var ms []*experiment.Matrix
	for i := 0; i < b.N; i++ {
		ms = runSuite(b, nil)
	}
	var static, dynamic []float64
	for _, m := range ms {
		static = append(static, 100*m.StaticBloat)
		dynamic = append(dynamic, 100*m.AsmdbFDP.DynamicBloat())
	}
	b.ReportMetric(stats.Mean(static), "static-bloat-%")
	b.ReportMetric(stats.Mean(dynamic), "dynamic-bloat-%")
}

// BenchmarkFigure8FetchLatency regenerates Figure 8: average cycles to
// fetch head vs non-head FTQ entries at both depths.
func BenchmarkFigure8FetchLatency(b *testing.B) {
	var ms []*experiment.Matrix
	for i := 0; i < b.N; i++ {
		ms = runSuite(b, nil)
	}
	mean := func(f func(*experiment.Matrix) float64) float64 {
		var xs []float64
		for _, m := range ms {
			xs = append(xs, f(m))
		}
		return stats.Mean(xs)
	}
	b.ReportMetric(mean(func(m *experiment.Matrix) float64 { return m.FDP.FTQ.AvgHeadFetch() }), "head@24-cyc")
	b.ReportMetric(mean(func(m *experiment.Matrix) float64 { return m.Cons.FTQ.AvgHeadFetch() }), "head@2-cyc")
	b.ReportMetric(mean(func(m *experiment.Matrix) float64 { return m.FDP.FTQ.AvgNonHeadFetch() }), "nonhead@24-cyc")
	b.ReportMetric(mean(func(m *experiment.Matrix) float64 { return m.Cons.FTQ.AvgNonHeadFetch() }), "nonhead@2-cyc")
}

// stallMetric reports a per-million-instruction FTQ counter across the
// Fig 9/10/11 series.
func stallMetric(b *testing.B, ms []*experiment.Matrix, metric func(core.Stats) int64) {
	per := func(st core.Stats) float64 {
		if st.Instructions == 0 {
			return 0
		}
		return float64(metric(st)) / float64(st.Instructions) * 1e6
	}
	mean := func(f func(*experiment.Matrix) core.Stats) float64 {
		var xs []float64
		for _, m := range ms {
			xs = append(xs, per(f(m)))
		}
		return stats.Mean(xs)
	}
	b.ReportMetric(mean(func(m *experiment.Matrix) core.Stats { return m.Cons }), "ftq2")
	b.ReportMetric(mean(func(m *experiment.Matrix) core.Stats { return m.AsmdbCons }), "ftq2+asmdb")
	b.ReportMetric(mean(func(m *experiment.Matrix) core.Stats { return m.FDP }), "ftq24")
	b.ReportMetric(mean(func(m *experiment.Matrix) core.Stats { return m.AsmdbFDP }), "ftq24+asmdb")
}

// BenchmarkFigure9HeadStalls regenerates Figure 9: head-entry stall cycles.
func BenchmarkFigure9HeadStalls(b *testing.B) {
	var ms []*experiment.Matrix
	for i := 0; i < b.N; i++ {
		ms = runSuite(b, nil)
	}
	stallMetric(b, ms, func(st core.Stats) int64 { return st.FTQ.HeadStallCycles })
}

// BenchmarkFigure10Waiting regenerates Figure 10: entries waiting behind a
// stalling head.
func BenchmarkFigure10Waiting(b *testing.B) {
	var ms []*experiment.Matrix
	for i := 0; i < b.N; i++ {
		ms = runSuite(b, nil)
	}
	stallMetric(b, ms, func(st core.Stats) int64 { return st.FTQ.WaitingEntryCycles })
}

// BenchmarkFigure11Partial regenerates Figure 11: Scenario-3 entries
// promoted to head before completing fetch.
func BenchmarkFigure11Partial(b *testing.B) {
	var ms []*experiment.Matrix
	for i := 0; i < b.N; i++ {
		ms = runSuite(b, nil)
	}
	stallMetric(b, ms, func(st core.Stats) int64 { return st.FTQ.PartialEntries })
}

// BenchmarkMethodologyMPKI regenerates the §IV workload characterization:
// the L1-I MPKI band on the 24-entry baseline.
func BenchmarkMethodologyMPKI(b *testing.B) {
	var ms []*experiment.Matrix
	for i := 0; i < b.N; i++ {
		ms = runSuite(b, nil)
	}
	var mpki []float64
	for _, m := range ms {
		mpki = append(mpki, m.FDP.L1IMPKI())
	}
	b.ReportMetric(stats.Min(mpki), "mpki-min")
	b.ReportMetric(stats.Mean(mpki), "mpki-mean")
	b.ReportMetric(stats.Max(mpki), "mpki-max")
}

// BenchmarkL1IAccessReduction regenerates the §V-B observation: the deep
// FTQ's same-line merging reduces L1-I accesses versus the 2-entry FTQ.
func BenchmarkL1IAccessReduction(b *testing.B) {
	var ms []*experiment.Matrix
	for i := 0; i < b.N; i++ {
		ms = runSuite(b, nil)
	}
	var reductions []float64
	for _, m := range ms {
		a2 := float64(m.Cons.L1I.Accesses) / float64(m.Cons.Instructions)
		a24 := float64(m.FDP.L1I.Accesses) / float64(m.FDP.Instructions)
		if a2 > 0 {
			reductions = append(reductions, 100*(1-a24/a2))
		}
	}
	b.ReportMetric(stats.Mean(reductions), "l1i-access-reduction-%")
}

// benchOneWorkload builds the standard single-workload AsmDB pipeline used
// by the extension benchmarks.
func benchPipeline(b *testing.B, name string) (*program.Program, *cfg.Graph, *asmdb.Plan, uint64) {
	b.Helper()
	spec, _ := workload.Lookup(name)
	prog, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	seed := spec.Seed ^ 0x5eed5eed5eed5eed
	graph, err := cfg.Profile(trace.NewLimit(program.NewExecutor(prog, seed), 500_000), cfg.Options{IPC: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := asmdb.Build(graph, asmdb.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return prog, graph, plan, seed
}

// BenchmarkExtensionPreload runs the §VI metadata-preloading prototype on
// the industry front-end and reports its speedup over plain FDP.
func BenchmarkExtensionPreload(b *testing.B) {
	prog, _, plan, seed := benchPipeline(b, "public_srv_60")
	var fdpIPC, preIPC float64
	for i := 0; i < b.N; i++ {
		mk := func() core.Config {
			c := core.DefaultConfig()
			c.WarmupInstrs, c.MaxInstrs = 150_000, 400_000
			return c
		}
		base, err := core.RunSource(mk(), program.NewExecutor(prog, seed))
		if err != nil {
			b.Fatal(err)
		}
		pl, err := preload.New(preload.DefaultConfig(), plan)
		if err != nil {
			b.Fatal(err)
		}
		c := mk()
		c.Frontend.Prefetcher = pl
		st, err := core.RunSource(c, program.NewExecutor(prog, seed))
		if err != nil {
			b.Fatal(err)
		}
		fdpIPC, preIPC = base.IPC(), st.IPC()
	}
	b.ReportMetric(fdpIPC, "fdp-ipc")
	b.ReportMetric(preIPC, "preload-ipc")
	b.ReportMetric(preIPC/fdpIPC, "speedup")
}

// BenchmarkExtensionFeedback runs the §VI feedback-directed tuning loop
// and reports the best candidate's speedup over the untuned baseline.
func BenchmarkExtensionFeedback(b *testing.B) {
	prog, graph, _, seed := benchPipeline(b, "public_srv_60")
	var best float64
	for i := 0; i < b.N; i++ {
		eval := core.DefaultConfig()
		eval.WarmupInstrs, eval.MaxInstrs = 100_000, 250_000
		opts := feedback.DefaultOptions(eval, seed)
		opts.Fanouts = []float64{0.3, 0.6}
		opts.SiteCounts = []int{2}
		res, err := feedback.Tune(prog, graph, opts)
		if err != nil {
			b.Fatal(err)
		}
		best = res.Best.Speedup
	}
	b.ReportMetric(best, "best-speedup")
}

// BenchmarkAblationFTQDepth sweeps FTQ depth (ablation A1).
func BenchmarkAblationFTQDepth(b *testing.B) {
	specs := benchSpecs()[3:4] // one server workload
	var tab *stats.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = experiment.AblationFTQDepth(specs, []int{2, 8, 24, 32}, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = tab
}

// BenchmarkAblationFanout sweeps AsmDB's fanout threshold (ablation A2).
func BenchmarkAblationFanout(b *testing.B) {
	specs := benchSpecs()[3:4]
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationFanout(specs, []float64{0.2, 0.5}, benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFrontend toggles PFC and GHR filtering (ablation A3).
func BenchmarkAblationFrontend(b *testing.B) {
	specs := benchSpecs()[3:4]
	for i := 0; i < b.N; i++ {
		if _, err := experiment.AblationFrontend(specs, benchParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteColdCache measures a from-scratch suite regeneration with
// the run cache enabled but empty: the first-iteration cost a user pays
// before warm re-runs kick in. Each iteration gets a fresh cache
// directory so every run stays cold.
func BenchmarkSuiteColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := runner.OpenCache(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		runSuite(b, c)
	}
}

// BenchmarkSuiteWarmCache primes the cache once outside the timer, then
// measures fully-warm regenerations — the fast-iteration number quoted in
// EXPERIMENTS.md. Compare against BenchmarkSuiteColdCache.
func BenchmarkSuiteWarmCache(b *testing.B) {
	c, err := runner.OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	runSuite(b, c) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSuite(b, c)
	}
	b.StopTimer()
	m := c.Metrics()
	if m.Misses > int64(m.Puts) { // only the priming run may miss
		b.Fatalf("warm iterations missed the cache: %+v", m)
	}
	b.ReportMetric(float64(m.Hits)/float64(b.N), "cache-hits/op")
}

// BenchmarkSimThroughput measures raw simulator speed (instructions per
// second) on the industry configuration — the engineering metric for the
// simulator itself rather than a paper artifact.
func BenchmarkSimThroughput(b *testing.B) {
	spec, _ := workload.Lookup("secret_srv12")
	prog, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	c := core.DefaultConfig()
	c.WarmupInstrs = 0
	c.MaxInstrs = 300_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := core.RunSource(c, program.NewExecutor(prog, 1))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(0)
		_ = st
	}
	b.ReportMetric(float64(c.MaxInstrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkHWPrefetchers compares the hardware comparators on one server
// workload (the Figure 1 EIP series at benchmark scale).
func BenchmarkHWPrefetchers(b *testing.B) {
	spec, _ := workload.Lookup("secret_srv41")
	prog, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	seed := spec.Seed ^ 0x5eed5eed5eed5eed
	var nlIPC, eipIPC float64
	for i := 0; i < b.N; i++ {
		mk := func() core.Config {
			c := core.DefaultConfig()
			c.WarmupInstrs, c.MaxInstrs = 150_000, 400_000
			return c
		}
		c := mk()
		c.Frontend.Prefetcher = hwpf.NewNextLine(2)
		st, err := core.RunSource(c, program.NewExecutor(prog, seed))
		if err != nil {
			b.Fatal(err)
		}
		nlIPC = st.IPC()
		eip, err := hwpf.NewEIP(hwpf.DefaultEIPConfig())
		if err != nil {
			b.Fatal(err)
		}
		c = mk()
		c.Frontend.Prefetcher = eip
		if st, err = core.RunSource(c, program.NewExecutor(prog, seed)); err != nil {
			b.Fatal(err)
		}
		eipIPC = st.IPC()
	}
	b.ReportMetric(nlIPC, "nextline-ipc")
	b.ReportMetric(eipIPC, "eip-ipc")
}

// BenchmarkSuiteFastForward measures the event-driven cycle-skipping fast
// path on the cold suite restricted to the 24-entry-FTQ FDP configuration
// (the paper's industry-standard machine, and the acceptance target for
// the ≥2× speedup): every benchmark workload simulated cycle-by-cycle
// (off) versus fast-forwarded (on), no cache. Results are byte-identical
// in both modes (TestFastForwardEquivalence); only wall-clock differs.
func BenchmarkSuiteFastForward(b *testing.B) {
	type built struct {
		prog *program.Program
		seed uint64
	}
	var progs []built
	for _, spec := range benchSpecs() {
		prog, err := spec.Build()
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, built{prog, spec.Seed ^ 0x5eed5eed5eed5eed})
	}
	run := func(b *testing.B, ff bool) {
		var instrs, cycles int64
		for i := 0; i < b.N; i++ {
			for _, pr := range progs {
				c := core.DefaultConfig()
				c.WarmupInstrs, c.MaxInstrs = 150_000, 400_000
				c.FastForward = ff
				st, err := core.RunSource(c, program.NewExecutor(pr.prog, pr.seed))
				if err != nil {
					b.Fatal(err)
				}
				instrs += st.Instructions
				cycles += st.Cycles
			}
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	}
	b.Run("fdp24-off", func(b *testing.B) { run(b, false) })
	b.Run("fdp24-on", func(b *testing.B) { run(b, true) })
}

// BenchmarkSimObsOverhead measures the cost of the observability layer in
// its three regimes: sink absent (every hook is one nil compare — the
// regime all normal runs pay), a realistic stride-64 sampler, and the
// worst-case stride-1 sampler with the event stream discarded into the
// ring. off vs the historical run loop is the ≤2% acceptance bound.
func BenchmarkSimObsOverhead(b *testing.B) {
	spec, _ := workload.Lookup("secret_srv12")
	prog, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	mk := func() core.Config {
		c := core.DefaultConfig()
		c.WarmupInstrs = 0
		c.MaxInstrs = 300_000
		return c
	}
	run := func(b *testing.B, sink func() *obs.Observer) {
		for i := 0; i < b.N; i++ {
			c := mk()
			if sink != nil {
				c.Obs = sink()
			}
			st, err := core.RunSource(c, program.NewExecutor(prog, 1))
			if err != nil {
				b.Fatal(err)
			}
			_ = st
		}
		b.ReportMetric(float64(mk().MaxInstrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("stride64", func(b *testing.B) {
		run(b, func() *obs.Observer { return obs.NewObserver(obs.Options{Stride: 64}) })
	})
	b.Run("stride1", func(b *testing.B) {
		run(b, func() *obs.Observer { return obs.NewObserver(obs.Options{Stride: 1}) })
	})
}
