// Package experiment defines one runnable experiment per table and figure
// in the paper's evaluation, plus the ablations called out in DESIGN.md.
// The unit of work is the Matrix: for one workload, the six configurations
// Figure 1 compares (conservative baseline, AsmDB and ideal AsmDB on the
// conservative front-end, the industry-standard 24-entry FDP, and AsmDB /
// ideal AsmDB on top of it), plus the characterization-matrix mechanisms
// layered on FDP: the EIP and MANA hardware prefetchers, shadow-branch
// decoding, and the I-TLB model. Every figure is then a projection of the
// suite's matrices.
//
// Every entry point over a list of workloads (the suite, the ablations and
// the extensions) fans out through eachSpec: one internal/runner pool, one
// task per workload, and results and errors in workload order. Each
// workload's cells run as jobs of their own on that pool, so one slow
// workload's configurations spread across idle workers instead of
// serializing. Every simulation run is keyed into the runner's
// content-addressed cache by (config fingerprint, workload spec, seed,
// budgets, plan provenance), making warm re-runs near-instant. The cache
// is only sound because runs are bit-deterministic;
// TestRunSuiteDeterminismAcrossParallelism guards that.
package experiment

import (
	"context"
	"fmt"

	"frontsim/internal/asmdb"
	"frontsim/internal/bpu"
	"frontsim/internal/cache"
	"frontsim/internal/core"
	"frontsim/internal/hwpf"
	"frontsim/internal/obs"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// Params controls simulation scale. The paper simulates 100M instructions
// per trace; the defaults here are scaled down for laptop-class runtimes
// and can be raised via cmd/experiments flags (see EXPERIMENTS.md).
type Params struct {
	// WarmupInstrs run before measurement begins.
	WarmupInstrs int64
	// MeasureInstrs are measured program instructions per run.
	MeasureInstrs int64
	// ProfileInstrs is the AsmDB profiling stream length.
	ProfileInstrs int64
	// Parallelism bounds pool workers (<=0: GOMAXPROCS). Results are
	// bit-identical at every setting. A goroutine joining a job group also
	// executes that group's queued jobs, and the goroutine that calls a
	// suite or sweep joins its per-workload group: so a suite runs up to
	// Parallelism+1 workloads at once (TestSuiteWorkloadsInFlight).
	Parallelism int
	// AsmDB tunes the software prefetcher.
	AsmDB asmdb.Options
	// ExecSeedSalt separates executor randomness from structural seeds.
	ExecSeedSalt uint64
	// Cache, when non-nil, is consulted before and filled after every
	// simulation run. Never part of a cache key itself.
	Cache *runner.Cache `json:"-"`
	// Audit turns on per-cycle invariant checking (core.Config.Audit) for
	// every simulated cell. Observational only: fingerprints, cache keys
	// and results are identical with it on or off, so it is excluded from
	// serialized keys. Cached cells are not re-simulated — run against a
	// cold cache to audit the whole matrix.
	Audit bool `json:"-"`
	// Obs, when non-nil, collects one MetricSet per completed simulation
	// cell — cached and live alike, so a warm suite reports the same
	// metrics as a cold one. Observational only; never part of cache keys.
	Obs *obs.SuiteCollector `json:"-"`
	// ObsRun, when non-nil, supplies a per-run observability sink (cycle
	// samples + event trace) for each *live* simulation, keyed by workload
	// and series label. Sinks that implement io.Closer are closed when the
	// run finishes. Cached cells never invoke it — there is no simulation
	// to observe. Observational only; never part of cache keys.
	ObsRun func(workload, series string) obs.Sink `json:"-"`
	// Sampling selects SMARTS-style sampled simulation
	// (core.Config.Sampling) for every simulated cell. Unlike Audit it is
	// *semantic*: the sampling geometry is part of every config
	// fingerprint, so sampled and exact cells never share run-cache
	// entries, and sampled Stats carry the per-window CPI estimate
	// (core.SamplingStats) the tables render as ± confidence half-widths.
	// The zero value keeps every cell exact. MaxInstrs still bounds the
	// covered stream region, so a sampled suite traverses the same
	// instructions as its exact counterpart. The extensions X1–X3 always
	// run exact (the function extension clears Sampling for all): X2
	// compares absolute IPC across rewritten programs, where sampling
	// noise would feed back into plan selection. TestConformance runs
	// sampled cells under every execution mode.
	Sampling core.SamplingConfig
}

// stamp applies p's budgets and run modes to a machine configuration.
// Every cell's config passes through it when the cell is resolved. Every
// cell fast-forwards: the cycle-by-cycle loop is byte-identical
// (TestConformance) and only slower.
func (p Params) stamp(c core.Config) core.Config {
	c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
	c.Audit = p.Audit
	c.FastForward = true
	c.Sampling = p.Sampling
	return c
}

// DefaultParams returns the scaled-down defaults.
func DefaultParams() Params {
	return Params{
		WarmupInstrs:  500_000,
		MeasureInstrs: 1_500_000,
		ProfileInstrs: 2_000_000,
		AsmDB:         asmdb.DefaultOptions(),
		ExecSeedSalt:  0x5eed5eed5eed5eed,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.WarmupInstrs < 0 || p.MeasureInstrs <= 0 || p.ProfileInstrs <= 0 {
		return fmt.Errorf("experiment: instruction budgets %+v", p)
	}
	if err := p.Sampling.Validate(); err != nil {
		return err
	}
	return p.AsmDB.Validate()
}

// Matrix holds every per-workload measurement the figures project.
type Matrix struct {
	Spec  workload.Spec
	Index int // 1-based position in the suite (figure x-axis)

	Plan        *asmdb.Plan
	StaticBloat float64

	// The six Figure-1 series, the EIP hardware comparator, and the
	// characterization-matrix mechanisms (MANA, shadow-branch decoding,
	// I-TLB), all layered on the industry-standard FDP front-end.
	Cons           core.Stats // conservative 2-entry FTQ baseline
	AsmdbCons      core.Stats // AsmDB on conservative
	AsmdbConsIdeal core.Stats // AsmDB, no insertion overhead, conservative
	FDP            core.Stats // industry-standard 24-entry FTQ
	AsmdbFDP       core.Stats // AsmDB on FDP
	AsmdbFDPIdeal  core.Stats // AsmDB, no insertion overhead, on FDP
	EIPFDP         core.Stats // EIP hardware prefetcher on FDP
	MANAFDP        core.Stats // MANA spatial-region prefetcher on FDP
	ShadowFDP      core.Stats // shadow-branch decoding on FDP
	ITLBFDP        core.Stats // I-TLB model (prefetch dropping) on FDP
}

// Speedup returns st's IPC normalized to the conservative baseline.
func (m *Matrix) Speedup(st core.Stats) float64 { return speedup(st, m.Cons) }

// speedup returns st's IPC normalized to base's, or 0 when base measured
// nothing. IPC is zero exactly then; the test is on the integer counters
// it is derived from rather than the float.
func speedup(st, base core.Stats) float64 {
	if base.Cycles == 0 || base.Instructions == 0 {
		return 0
	}
	return st.IPC() / base.IPC()
}

// series is one row of the per-workload series table: the machine it
// simulates, the program variant it runs, and the Matrix field it fills.
// Budgets and run modes come from Params when a cell is resolved.
type series struct {
	label   string // names the series in cache keys, obs and progress
	machine core.Config
	program string // progBase, progAsmdb or progTriggers
	stats   func(*Matrix) *core.Stats
}

// seriesTable lists the ten series in suite order. Its base-program rows
// are the mechanism registry (Mechanisms); the others run the AsmDB plan,
// profiled on the conservative baseline, on one of the two FTQ shapes.
var seriesTable = [...]series{
	{"cons", core.ConservativeConfig(), progBase, func(m *Matrix) *core.Stats { return &m.Cons }},
	{"fdp24", core.DefaultConfig(), progBase, func(m *Matrix) *core.Stats { return &m.FDP }},
	{"eip+fdp24", prefetchMachine(hwpf.DefaultEIPConfig()), progBase, func(m *Matrix) *core.Stats { return &m.EIPFDP }},
	{"asmdb+cons", core.ConservativeConfig(), progAsmdb, func(m *Matrix) *core.Stats { return &m.AsmdbCons }},
	{"asmdb-ideal+cons", core.ConservativeConfig(), progTriggers, func(m *Matrix) *core.Stats { return &m.AsmdbConsIdeal }},
	{"asmdb+fdp24", core.DefaultConfig(), progAsmdb, func(m *Matrix) *core.Stats { return &m.AsmdbFDP }},
	{"asmdb-ideal+fdp24", core.DefaultConfig(), progTriggers, func(m *Matrix) *core.Stats { return &m.AsmdbFDPIdeal }},
	{"mana+fdp24", prefetchMachine(hwpf.DefaultMANAConfig()), progBase, func(m *Matrix) *core.Stats { return &m.MANAFDP }},
	{"shadow+fdp24", shadowMachine(), progBase, func(m *Matrix) *core.Stats { return &m.ShadowFDP }},
	{"itlb+fdp24", itlbMachine(), progBase, func(m *Matrix) *core.Stats { return &m.ITLBFDP }},
}

// seriesID indexes seriesTable.
type seriesID int

const (
	serCons   seriesID = 0 // the profiling baseline of every plan-derived series
	numSeries          = seriesID(len(seriesTable))
)

func (m *Matrix) seriesPtr(id seriesID) *core.Stats { return seriesTable[id].stats(m) }

// prefetchMachine layers the hardware prefetcher pf on the FDP front-end.
func prefetchMachine(pf cache.PrefetcherConfig) core.Config {
	c := core.DefaultConfig()
	c.Frontend.Prefetcher = pf
	return c
}

// shadowMachine enables shadow-branch decoding on the FDP front-end.
func shadowMachine() core.Config {
	c := core.DefaultConfig()
	c.Frontend.Shadow = bpu.DefaultShadowConfig()
	return c
}

// itlbMachine enables the I-TLB model (with prefetch dropping) on the FDP
// front-end.
func itlbMachine() core.Config {
	c := core.DefaultConfig()
	c.Memory.ITLB = cache.DefaultITLBConfig()
	return c
}

// cacheSchema versions the run-cache key layout. Bump together with
// core.FingerprintSchema when key semantics change. Schema 2: ftq.Stats
// gained the per-cycle scenario partition, changing the cached Stats value
// shape. Schema 3: core.Stats gained WarmupOvershoot. Schema 4: the run
// loop gained the event-driven fast-forward path; entries written by
// pre-fast-forward binaries are retired rather than reused across the
// semantics boundary (TestStaleSchemaEntryRejected). Schema 5: the
// mechanism matrix — MANA, shadow-branch decoding, and the I-TLB became
// config dimensions and Stats gained their counter blocks, so schema-4
// entries decode with those counters silently zero and are retired.
// Schema 6: sampled simulation — core.Config.Sampling joined the
// fingerprinted canonical form (sampled and exact runs must never share
// entries) and core.Stats gained the optional Sampling estimate block, so
// schema-5 entries are retired across the value-shape boundary.
const cacheSchema = 6

// Program-variant tags in run-cache keys. The config fingerprint cannot
// see which instruction stream it runs against, so the key must.
const (
	progBase     = "base"          // the workload's generated program
	progAsmdb    = "asmdb"         // AsmDB-rewritten program
	progTriggers = "base+triggers" // base program plus plan-derived trigger table
)

// simKey is the canonical identity of one simulation run: everything that
// determines its Stats bit-for-bit, and nothing else. For plan-derived
// runs (rewritten programs, trigger tables) the plan's full provenance —
// AsmDB options, profile budget, and the fingerprint of the configuration
// whose IPC seeds the profiler — stands in for the plan content, because
// planning is a deterministic function of that provenance.
type simKey struct {
	Schema        int            `json:"schema"`
	Kind          string         `json:"kind"`
	Workload      workload.Spec  `json:"workload"`
	Program       string         `json:"program"`
	AsmDB         *asmdb.Options `json:"asmdb,omitempty"`
	ProfileInstrs int64          `json:"profile_instrs,omitempty"`
	ProfileConfig string         `json:"profile_config,omitempty"`
	Config        string         `json:"config"`
	ExecSeed      uint64         `json:"exec_seed"`
}

// planKey addresses the cached AsmDB plan (and its static bloat) for one
// workload under one profiling setup.
type planKey struct {
	Schema        int           `json:"schema"`
	Kind          string        `json:"kind"`
	Workload      workload.Spec `json:"workload"`
	AsmDB         asmdb.Options `json:"asmdb"`
	ProfileInstrs int64         `json:"profile_instrs"`
	ProfileConfig string        `json:"profile_config"`
	ExecSeed      uint64        `json:"exec_seed"`
}

// planEntry is the cached plan value.
type planEntry struct {
	Plan        *asmdb.Plan `json:"plan"`
	StaticBloat float64     `json:"static_bloat"`
}

// planKey returns the identity of the plan built with opts from a profile
// seeded by the IPC of the configuration fingerprinted profileConfig.
func (p Params) planKey(spec workload.Spec, opts asmdb.Options, profileConfig string) planKey {
	return planKey{Schema: cacheSchema, Kind: "plan", Workload: spec, AsmDB: opts,
		ProfileInstrs: p.ProfileInstrs, ProfileConfig: profileConfig, ExecSeed: spec.Seed ^ p.ExecSeedSalt}
}

// matrixPlan is the identity of the matrix's AsmDB plan: p.AsmDB,
// profiled on the conservative baseline.
func (p Params) matrixPlan(spec workload.Spec) planKey {
	return p.planKey(spec, p.AsmDB, p.stamp(core.ConservativeConfig()).Fingerprint())
}

// RunMatrix builds the workload, profiles it, generates and applies the
// AsmDB plan, and runs all ten configurations, parallelized over a
// private pool and cached through p.Cache when set.
func RunMatrix(spec workload.Spec, index int, p Params) (*Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pool := runner.NewPool(p.Parallelism)
	defer pool.Close()
	return runMatrixPooled(uncancelled(), pool, spec, index, p, nil)
}

// runMatrixPooled executes one workload's matrix on a shared pool in the
// matrix waves (runWaves): all ten series and the matrix plan.
func runMatrixPooled(ctx context.Context, pool *runner.Pool, spec workload.Spec, index int, p Params, pr *runner.Progress) (*Matrix, error) {
	m := &Matrix{Spec: spec, Index: index}
	plan := p.matrixPlan(spec)
	cells := make([]*Cell, numSeries)
	for id := range seriesTable {
		c, err := resolveSeries(spec, seriesID(id), p, plan)
		if err != nil {
			return nil, err
		}
		c.out, c.progress = m.seriesPtr(seriesID(id)), pr
		cells[id] = c
	}
	in := &inputs{spec: spec}
	pes, err := runWaves(ctx, pool, in, cells, []planKey{plan}, p.plan(ctx, pool, in, &m.Cons))
	if err != nil {
		return nil, err
	}
	m.Plan, m.StaticBloat = pes[0].Plan, pes[0].StaticBloat
	return m, nil
}

// RunSuite runs matrices for every spec, in parallel, preserving order.
// progress (optional) receives one line per completed workload.
func RunSuite(specs []workload.Spec, p Params, progress func(string)) ([]*Matrix, error) {
	return RunSuiteMonitor(specs, p, progress, nil)
}

// RunSuiteMonitor is RunSuite with an additional per-job channel:
// jobProgress (optional) receives one line per completed
// (workload, configuration) simulation, with elapsed time and ETA.
func RunSuiteMonitor(specs []workload.Spec, p Params, progress, jobProgress func(string)) ([]*Matrix, error) {
	pr := runner.NewProgress(jobProgress)
	pr.AddTotal(int(numSeries) * len(specs))
	return eachSpec(specs, p, func(ctx context.Context, pool *runner.Pool, i int, spec workload.Spec) (*Matrix, error) {
		m, err := runMatrixPooled(ctx, pool, spec, i+1, p, pr)
		if progress != nil {
			if err != nil {
				progress(fmt.Sprintf("[%2d/%d] %-18s FAILED: %v", i+1, len(specs), spec.Name, err))
			} else {
				progress(fmt.Sprintf("[%2d/%d] %-18s base=%.3f fdp=%.3f asmdb+fdp=%.3f mpki=%.1f",
					i+1, len(specs), spec.Name, m.Cons.IPC(), m.Speedup(m.FDP), m.Speedup(m.AsmdbFDP), m.FDP.L1IMPKI()))
			}
		}
		return m, err
	})
}

// eachSpec is the one fan-out over workloads: it validates p, opens one
// pool, and runs fn for each spec as one task, every spec's cells sharing
// the pool. It returns the results in spec order. On failure it returns
// the error of the first failed spec in spec order, not the first to fail
// in time, naming the workload by its 1-based position.
func eachSpec[T any](specs []workload.Spec, p Params, fn func(ctx context.Context, pool *runner.Pool, i int, spec workload.Spec) (T, error)) ([]T, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pool := runner.NewPool(p.Parallelism)
	defer pool.Close()
	out := make([]T, len(specs))
	errs := make([]error, len(specs))
	g := pool.NewGroup()
	for i, spec := range specs {
		g.Go(func() error {
			out[i], errs[i] = fn(uncancelled(), pool, i, spec)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload %d (%s): %w", i+1, specs[i].Name, err)
		}
	}
	return out, nil
}
