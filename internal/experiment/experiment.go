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
// Execution is decomposed into per-(workload, configuration) jobs on the
// internal/runner work-stealing pool — so one slow workload's ten
// configurations spread across idle workers instead of serializing — and
// every simulation run is keyed into the runner's content-addressed cache
// by (config fingerprint, workload spec, seed, budgets, plan provenance),
// making warm re-runs near-instant. The cache is only sound because runs
// are bit-deterministic; TestDeterminismAcrossParallelism guards that.
package experiment

import (
	"fmt"

	"frontsim/internal/asmdb"
	"frontsim/internal/bpu"
	"frontsim/internal/cache"
	"frontsim/internal/cfg"
	"frontsim/internal/core"
	"frontsim/internal/hwpf"
	"frontsim/internal/obs"
	"frontsim/internal/program"
	"frontsim/internal/runner"
	"frontsim/internal/trace"
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
	// bit-identical at every setting; a goroutine joining a job group also
	// executes that group's queued jobs, so effective concurrency can
	// briefly exceed this bound by the number of concurrent waiters.
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
	// FastForward enables the event-driven cycle-skipping fast path
	// (core.Config.FastForward) for every simulated cell. Results are
	// byte-identical with it on or off (TestFastForwardEquivalence), so it
	// is excluded from fingerprints and cache keys: fast-forwarded and
	// cycle-stepped runs share cache entries. DefaultParams turns it on.
	FastForward bool `json:"-"`
	// Sampling selects SMARTS-style sampled simulation
	// (core.Config.Sampling) for every simulated cell. Unlike Audit and
	// FastForward it is *semantic*: the sampling geometry is part
	// of every config fingerprint, so sampled and exact cells never share
	// run-cache entries, and sampled Stats carry the per-window CPI
	// estimate (core.SamplingStats) the tables render as ± confidence
	// half-widths. The zero value keeps every cell exact. MaxInstrs still
	// bounds the covered stream region, so a sampled suite traverses the
	// same instructions as its exact counterpart. Extension pipelines
	// (X1/X2) always run exact: their tuning loops compare absolute IPC
	// across rewritten programs, where sampling noise would feed back into
	// plan selection.
	Sampling core.SamplingConfig
}

// obsRecord exports one cell's metrics to the suite collector.
func (p Params) obsRecord(st *core.Stats, wl, series string) {
	if p.Obs == nil {
		return
	}
	p.Obs.Record(st.MetricSet(
		obs.Label{Key: "workload", Value: wl},
		obs.Label{Key: "series", Value: series},
	))
}

// DefaultParams returns the scaled-down defaults.
func DefaultParams() Params {
	return Params{
		WarmupInstrs:  500_000,
		MeasureInstrs: 1_500_000,
		ProfileInstrs: 2_000_000,
		AsmDB:         asmdb.DefaultOptions(),
		ExecSeedSalt:  0x5eed5eed5eed5eed,
		FastForward:   true,
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
func (m *Matrix) Speedup(st core.Stats) float64 {
	// IPC is zero exactly when nothing was measured; test the integer
	// counters it is derived from rather than the float.
	if m.Cons.Cycles == 0 || m.Cons.Instructions == 0 {
		return 0
	}
	return st.IPC() / m.Cons.IPC()
}

// seriesID indexes the ten per-workload configurations.
type seriesID int

const (
	serCons seriesID = iota
	serFDP
	serEIP
	serAsmdbCons
	serAsmdbConsIdeal
	serAsmdbFDP
	serAsmdbFDPIdeal
	serMANAFDP
	serShadowFDP
	serITLBFDP
	numSeries
)

// seriesLabels name the series in cache keys and progress lines.
var seriesLabels = [numSeries]string{
	"cons", "fdp24", "eip+fdp24",
	"asmdb+cons", "asmdb-ideal+cons", "asmdb+fdp24", "asmdb-ideal+fdp24",
	"mana+fdp24", "shadow+fdp24", "itlb+fdp24",
}

func (m *Matrix) seriesPtr(id seriesID) *core.Stats {
	switch id {
	case serCons:
		return &m.Cons
	case serFDP:
		return &m.FDP
	case serEIP:
		return &m.EIPFDP
	case serAsmdbCons:
		return &m.AsmdbCons
	case serAsmdbConsIdeal:
		return &m.AsmdbConsIdeal
	case serAsmdbFDP:
		return &m.AsmdbFDP
	case serAsmdbFDPIdeal:
		return &m.AsmdbFDPIdeal
	case serMANAFDP:
		return &m.MANAFDP
	case serShadowFDP:
		return &m.ShadowFDP
	case serITLBFDP:
		return &m.ITLBFDP
	}
	panic(fmt.Sprintf("experiment: series %d", id))
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

// matrixKeys precomputes the cache identities of a workload's runs. All of
// them are derivable before anything executes, which is what lets a fully
// warm workload skip even building its program.
type matrixKeys struct {
	series [numSeries]simKey
	plan   planKey
}

func (p Params) consConfig() core.Config {
	c := core.ConservativeConfig()
	c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
	c.Audit = p.Audit
	c.FastForward = p.FastForward
	c.Sampling = p.Sampling
	return c
}

func (p Params) fdpConfig() core.Config {
	c := core.DefaultConfig()
	c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
	c.Audit = p.Audit
	c.FastForward = p.FastForward
	c.Sampling = p.Sampling
	return c
}

func (p Params) eipConfig() (core.Config, error) {
	c := p.fdpConfig()
	eip, err := hwpf.NewEIP(hwpf.DefaultEIPConfig())
	if err != nil {
		return c, err
	}
	c.Frontend.Prefetcher = eip
	return c, nil
}

// manaConfig layers the MANA spatial-region prefetcher on the FDP
// front-end, mirroring eipConfig's shape for the hardware comparator.
func (p Params) manaConfig() (core.Config, error) {
	c := p.fdpConfig()
	mana, err := hwpf.NewMANA(hwpf.DefaultMANAConfig())
	if err != nil {
		return c, err
	}
	c.Frontend.Prefetcher = mana
	return c, nil
}

// shadowConfig enables shadow-branch decoding on the FDP front-end.
func (p Params) shadowConfig() core.Config {
	c := p.fdpConfig()
	c.Frontend.Shadow = bpu.DefaultShadowConfig()
	return c
}

// itlbConfig enables the I-TLB model (with prefetch dropping) on the FDP
// front-end.
func (p Params) itlbConfig() core.Config {
	c := p.fdpConfig()
	c.Memory.ITLB = cache.DefaultITLBConfig()
	return c
}

func newMatrixKeys(spec workload.Spec, p Params) (matrixKeys, error) {
	eipCfg, err := p.eipConfig()
	if err != nil {
		return matrixKeys{}, err
	}
	manaCfg, err := p.manaConfig()
	if err != nil {
		return matrixKeys{}, err
	}
	consFP := p.consConfig().Fingerprint()
	fdpFP := p.fdpConfig().Fingerprint()
	eipFP := eipCfg.Fingerprint()
	manaFP := manaCfg.Fingerprint()
	shadowFP := p.shadowConfig().Fingerprint()
	itlbFP := p.itlbConfig().Fingerprint()
	seed := spec.Seed ^ p.ExecSeedSalt
	opts := p.AsmDB

	base := func(cfgFP string) simKey {
		return simKey{Schema: cacheSchema, Kind: "sim", Workload: spec,
			Program: progBase, Config: cfgFP, ExecSeed: seed}
	}
	planned := func(prog, cfgFP string) simKey {
		k := base(cfgFP)
		k.Program = prog
		k.AsmDB = &opts
		k.ProfileInstrs = p.ProfileInstrs
		k.ProfileConfig = consFP
		return k
	}
	var mk matrixKeys
	mk.series[serCons] = base(consFP)
	mk.series[serFDP] = base(fdpFP)
	mk.series[serEIP] = base(eipFP)
	mk.series[serAsmdbCons] = planned(progAsmdb, consFP)
	mk.series[serAsmdbConsIdeal] = planned(progTriggers, consFP)
	mk.series[serAsmdbFDP] = planned(progAsmdb, fdpFP)
	mk.series[serAsmdbFDPIdeal] = planned(progTriggers, fdpFP)
	mk.series[serMANAFDP] = base(manaFP)
	mk.series[serShadowFDP] = base(shadowFP)
	mk.series[serITLBFDP] = base(itlbFP)
	mk.plan = planKey{Schema: cacheSchema, Kind: "plan", Workload: spec,
		AsmDB: opts, ProfileInstrs: p.ProfileInstrs, ProfileConfig: consFP, ExecSeed: seed}
	return mk, nil
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
	return runMatrixPooled(pool, spec, index, p, nil)
}

// runMatrixPooled executes one workload's matrix on a shared pool. It
// probes the cache for every series first; whatever is missing runs as
// per-configuration jobs in two fork-join waves (plain-program runs, then
// plan-derived runs, which need the baseline IPC to profile against).
func runMatrixPooled(pool *runner.Pool, spec workload.Spec, index int, p Params, pr *runner.Progress) (*Matrix, error) {
	m := &Matrix{Spec: spec, Index: index}
	keys, err := newMatrixKeys(spec, p)
	if err != nil {
		return nil, err
	}

	var have [numSeries]bool
	missing := 0
	for id := seriesID(0); id < numSeries; id++ {
		ok, err := p.Cache.Get(keys.series[id], m.seriesPtr(id))
		if err != nil {
			return nil, err
		}
		have[id] = ok
		if ok {
			p.obsRecord(m.seriesPtr(id), spec.Name, seriesLabels[id])
			pr.JobDone(spec.Name+"/"+seriesLabels[id], true)
		} else {
			missing++
		}
	}
	var pe planEntry
	havePlan, err := p.Cache.Get(keys.plan, &pe)
	if err != nil {
		return nil, err
	}
	if havePlan {
		m.Plan, m.StaticBloat = pe.Plan, pe.StaticBloat
	}
	if havePlan && missing == 0 {
		return m, nil
	}

	prog, err := spec.Build()
	if err != nil {
		return nil, err
	}
	execSeed := spec.Seed ^ p.ExecSeedSalt

	// seriesCell wraps one cold series as a coldCell; its commit stores
	// the result, caches it, and reports it to obs and progress.
	seriesCell := func(id seriesID, c core.Config) coldCell {
		return coldCell{
			cfg: c,
			wl:  spec.Name, series: seriesLabels[id],
			label: spec.Name + " " + seriesLabels[id],
			commit: func(st core.Stats) error {
				*m.seriesPtr(id) = st
				if err := p.Cache.Put(keys.series[id], st); err != nil {
					return err
				}
				p.obsRecord(&st, spec.Name, seriesLabels[id])
				pr.JobDone(spec.Name+"/"+seriesLabels[id], false)
				return nil
			},
		}
	}

	// Wave 1: runs against the unmodified program. The conservative
	// baseline doubles as the profiling IPC source, as the paper profiles
	// on the pre-FDP machine AsmDB's authors evaluated.
	g := pool.NewGroup()
	var w1 []coldCell
	if !have[serCons] {
		w1 = append(w1, seriesCell(serCons, p.consConfig()))
	}
	if !have[serFDP] {
		w1 = append(w1, seriesCell(serFDP, p.fdpConfig()))
	}
	if !have[serEIP] {
		c, err := p.eipConfig()
		if err != nil {
			return nil, err
		}
		w1 = append(w1, seriesCell(serEIP, c))
	}
	if !have[serMANAFDP] {
		c, err := p.manaConfig()
		if err != nil {
			return nil, err
		}
		w1 = append(w1, seriesCell(serMANAFDP, c))
	}
	if !have[serShadowFDP] {
		w1 = append(w1, seriesCell(serShadowFDP, p.shadowConfig()))
	}
	if !have[serITLBFDP] {
		w1 = append(w1, seriesCell(serITLBFDP, p.itlbConfig()))
	}
	dispatchCells(g, p, prog, execSeed, w1)
	if err := g.Wait(); err != nil {
		return nil, err
	}

	needPlanned := !have[serAsmdbCons] || !have[serAsmdbConsIdeal] ||
		!have[serAsmdbFDP] || !have[serAsmdbFDPIdeal]
	if !havePlan {
		graph, err := cfg.Profile(trace.NewLimit(program.NewExecutor(prog, execSeed), p.ProfileInstrs),
			cfg.Options{IPC: m.Cons.IPC()})
		if err != nil {
			return nil, fmt.Errorf("%s profile: %w", spec.Name, err)
		}
		if m.Plan, err = asmdb.Build(graph, p.AsmDB); err != nil {
			return nil, fmt.Errorf("%s plan: %w", spec.Name, err)
		}
		m.StaticBloat = m.Plan.StaticBloat(prog)
		if err := p.Cache.Put(keys.plan, planEntry{Plan: m.Plan, StaticBloat: m.StaticBloat}); err != nil {
			return nil, err
		}
	}

	// Wave 2: runs that need the plan — the rewritten program for the
	// insertion-overhead series, the trigger table for the ideal ones.
	if needPlanned {
		rewritten, _, err := asmdb.Apply(prog, m.Plan)
		if err != nil {
			return nil, fmt.Errorf("%s apply: %w", spec.Name, err)
		}
		triggers := asmdb.Triggers(prog, m.Plan)
		withTriggers := func(c core.Config) core.Config {
			c.Triggers = triggers
			return c
		}
		g = pool.NewGroup()
		var rw, trg []coldCell
		if !have[serAsmdbCons] {
			rw = append(rw, seriesCell(serAsmdbCons, p.consConfig()))
		}
		if !have[serAsmdbFDP] {
			rw = append(rw, seriesCell(serAsmdbFDP, p.fdpConfig()))
		}
		if !have[serAsmdbConsIdeal] {
			trg = append(trg, seriesCell(serAsmdbConsIdeal, withTriggers(p.consConfig())))
		}
		if !have[serAsmdbFDPIdeal] {
			trg = append(trg, seriesCell(serAsmdbFDPIdeal, withTriggers(p.fdpConfig())))
		}
		dispatchCells(g, p, rewritten, execSeed, rw)
		dispatchCells(g, p, prog, execSeed, trg)
		if err := g.Wait(); err != nil {
			return nil, err
		}
	}
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
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pool := runner.NewPool(p.Parallelism)
	defer pool.Close()
	pr := runner.NewProgress(jobProgress)
	pr.AddTotal(int(numSeries) * len(specs))

	out := make([]*Matrix, len(specs))
	errs := make([]error, len(specs))
	g := pool.NewGroup()
	for i, spec := range specs {
		i, spec := i, spec
		g.Go(func() error {
			m, err := runMatrixPooled(pool, spec, i+1, p, pr)
			out[i], errs[i] = m, err
			if progress != nil {
				if err != nil {
					progress(fmt.Sprintf("[%2d/%d] %-18s FAILED: %v", i+1, len(specs), spec.Name, err))
				} else {
					progress(fmt.Sprintf("[%2d/%d] %-18s base=%.3f fdp=%.3f asmdb+fdp=%.3f mpki=%.1f",
						i+1, len(specs), spec.Name, m.Cons.IPC(), m.Speedup(m.FDP), m.Speedup(m.AsmdbFDP), m.FDP.L1IMPKI()))
				}
			}
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
