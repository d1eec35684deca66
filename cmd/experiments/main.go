// Command experiments reproduces every table and figure in the paper's
// evaluation over the 48-workload suite, plus the ablations from DESIGN.md.
//
// Usage:
//
//	experiments                         # all figures, default scale
//	experiments -figure 1               # just Figure 1
//	experiments -table 1                # just Table I
//	experiments -ablation ftq           # the FTQ-depth sweep
//	experiments -ablation mechanism     # the cross-prefetcher matrix
//	experiments -instrs 4000000 -n 12   # larger runs, first 12 workloads
//	experiments -csv out/               # additionally write CSV per figure
//	experiments -jobs 8                 # bound the work-stealing pool
//	experiments -cache results/cache    # reuse cached runs (the default)
//	experiments -no-cache               # force every run cold
package main

import (
	"context"
	_ "expvar" // expvar JSON on /debug/vars when -http is set
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling on /debug/pprof when -http is set
	"os"
	"path/filepath"
	"strings"
	"time"

	"frontsim/internal/core"
	"frontsim/internal/experiment"
	"frontsim/internal/obs"
	"frontsim/internal/runner"
	"frontsim/internal/serve"
	"frontsim/internal/stats"
	"frontsim/internal/workload"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "only this figure (1,7,8,9,10,11); 0 = all")
		table    = flag.Int("table", 0, "only this table (1); 0 = all")
		ablation = flag.String("ablation", "", "run an ablation: ftq, fanout, frontend, predictor, replacement, wrongpath, btb, mechanism")
		ext      = flag.String("extension", "", "run an extension experiment: preload, feedback, ispy")
		n        = flag.Int("n", workload.Count, "number of suite workloads (prefix)")
		instrs   = flag.Int64("instrs", 1_500_000, "measured instructions per run")
		warmup   = flag.Int64("warmup", 500_000, "warmup instructions per run")
		profile  = flag.Int64("profile", 2_000_000, "AsmDB profiling instructions")
		par      = flag.Int("par", 0, "parallel jobs (0 = GOMAXPROCS); alias of -jobs")
		jobs     = flag.Int("jobs", 0, "work-stealing pool workers (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache", filepath.Join("results", "cache"), "run-cache directory")
		noCache  = flag.Bool("no-cache", false, "disable the run cache (every run cold)")
		csvDir   = flag.String("csv", "", "directory to write per-figure CSV files")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
		audit    = flag.Bool("audit", false, "check simulator invariants every cycle (FTQ cycle conservation, ordering); panics with a repro dump on violation")
		fastFwd  = flag.Bool("fast-forward", true, "event-driven cycle skipping (byte-identical results; =false forces cycle-by-cycle)")
		obsOn    = flag.Bool("obs", false, "record observability bundles per live run plus suite metrics.json/metrics.prom")
		obsDir   = flag.String("obs-dir", filepath.Join("results", "obs"), "directory for -obs output files")
		obsStrd  = flag.Int64("obs-stride", 64, "cycles between time-series samples under -obs")
		httpAddr = flag.String("http", "", "serve /metrics, /debug/pprof and /debug/vars on this address (e.g. :6060)")
		sampInt  = flag.Int64("sampling-interval", 0, "SMARTS sampling unit period in instructions (0 = exact simulation; sampled cells never share cache entries with exact ones)")
		sampDet  = flag.Int64("sampling-detail", 1_000, "measured detailed-window length per sampling unit")
		sampWarm = flag.Int64("sampling-warm", 2_000, "detailed (unmeasured) warm-up before each measured window")
		sampVal  = flag.Bool("sampling-validate", false, "run the full suite exact AND sampled across every mechanism and report the estimator's error distribution and 95%-CI coverage")
	)
	flag.Parse()

	p := experiment.DefaultParams()
	p.MeasureInstrs = *instrs
	p.WarmupInstrs = *warmup
	p.ProfileInstrs = *profile
	p.Parallelism = *par
	if *jobs != 0 {
		p.Parallelism = *jobs
	}
	p.Audit = *audit
	p.FastForward = *fastFwd
	if *sampInt > 0 {
		p.Sampling = core.SamplingConfig{
			IntervalInstrs: *sampInt,
			DetailInstrs:   *sampDet,
			WarmInstrs:     *sampWarm,
		}
	} else if *sampVal {
		// The validated default geometry for suite-scale budgets: ~50
		// windows across the 1.5M-instruction coverage budget.
		p.Sampling = core.SamplingConfig{IntervalInstrs: 30_000, DetailInstrs: 3_000, WarmInstrs: 6_000}
	}
	if !*noCache {
		c, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: open cache:", err)
			os.Exit(1)
		}
		p.Cache = c
		defer func() {
			if m := c.Metrics(); !*quiet && m.Hits+m.Misses > 0 {
				fmt.Fprintf(os.Stderr, "run cache: %d hits, %d misses, %d stored (%s)\n",
					m.Hits, m.Misses, m.Puts, c.Dir())
			}
		}()
	}

	var col *obs.SuiteCollector
	if *obsOn {
		if err := os.MkdirAll(*obsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: obs dir:", err)
			os.Exit(1)
		}
		col = &obs.SuiteCollector{}
		p.Obs = col
		p.ObsRun = fileObsFactory(*obsDir, *obsStrd)
	}
	httpCtx, httpCancel := context.WithCancel(context.Background())
	defer httpCancel()
	var httpErr chan error
	if *httpAddr != "" {
		ln, lerr := net.Listen("tcp", *httpAddr)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "experiments: http:", lerr)
			os.Exit(1)
		}
		httpErr = make(chan error, 1)
		go func() { httpErr <- serveDebug(httpCtx, ln, col) }()
	}

	err := run(*figure, *table, *ablation, *ext, *n, p, *csvDir, *quiet, *sampVal)
	if col != nil {
		if eerr := writeObsExports(*obsDir, col); eerr != nil && err == nil {
			err = eerr
		}
	}
	// Drain the debug listener through the shared shutdown path so a
	// scrape in flight at exit still completes.
	httpCancel()
	if httpErr != nil {
		if herr := <-httpErr; herr != nil && err == nil {
			err = herr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// fileObsFactory hands each live run a file-backed observer writing its
// sample/event bundle under dir; cached cells never reach it.
func fileObsFactory(dir string, stride int64) func(workload, series string) obs.Sink {
	return func(workload, series string) obs.Sink {
		fo, err := obs.NewFileObserver(dir, workload+"__"+series, obs.Options{Stride: stride})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: observer:", err)
			return nil
		}
		return fo
	}
}

// writeObsExports writes the suite-level metric rollup (per-run points plus
// mean/min/max/p50/p95 aggregates) as canonical JSON and Prometheus text.
func writeObsExports(dir string, col *obs.SuiteCollector) error {
	ms := col.Export()
	jf, err := os.Create(filepath.Join(dir, "metrics.json"))
	if err != nil {
		return err
	}
	if err := ms.WriteJSON(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	pf, err := os.Create(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		return err
	}
	if err := ms.WritePrometheus(pf); err != nil {
		pf.Close()
		return err
	}
	return pf.Close()
}

// serveDebug exposes live metrics plus the stdlib pprof and expvar debug
// pages (registered on http.DefaultServeMux by their imports) on ln for
// long suite runs, with real header/write timeouts, until ctx is
// cancelled — then it drains through the same shutdown path cmd/simd
// uses (serve.ListenAndServe) and returns nil.
func serveDebug(ctx context.Context, ln net.Listener, col *obs.SuiteCollector) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		var ms obs.MetricSet
		if col != nil {
			ms = col.Export()
		}
		if err := ms.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/", http.DefaultServeMux)
	return serve.ListenAndServe(ctx, serve.NewHTTPServer(ln.Addr().String(), mux), ln, 5*time.Second)
}

func run(figure, table int, ablation, ext string, n int, p experiment.Params, csvDir string, quiet bool, sampValidate bool) error {
	specs := workload.All()
	if n < len(specs) {
		specs = specs[:n]
	}

	emit := func(t *stats.Table, slug string) error {
		fmt.Println(t)
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(csvDir, slug+".csv"))
			if err != nil {
				return err
			}
			defer f.Close()
			return t.RenderCSV(f)
		}
		return nil
	}

	// Ablations and extensions use a representative sub-suite to keep
	// runtimes sane; with a truncated -n only the indices that exist are
	// taken (indexing past len(specs) used to panic for 6 < n < 21).
	sub := specs
	if len(sub) > 6 {
		sub = nil
		for _, i := range []int{0, 1, 4, 8, 16, 20} {
			if i < len(specs) {
				sub = append(sub, specs[i])
			}
		}
	}

	if sampValidate {
		t, cov, err := experiment.SamplingValidation(specs, p)
		if err != nil {
			return err
		}
		if err := emit(t, "sampling_validation"); err != nil {
			return err
		}
		if cov < 0.90 {
			return fmt.Errorf("sampling validation: CI coverage %.1f%% below the 90%% contract", 100*cov)
		}
		return nil
	}

	if ext != "" {
		switch strings.ToLower(ext) {
		case "preload":
			t, err := experiment.ExtensionPreload(sub, p)
			if err != nil {
				return err
			}
			return emit(t, "extension_preload")
		case "feedback":
			t, err := experiment.ExtensionFeedback(sub, p)
			if err != nil {
				return err
			}
			return emit(t, "extension_feedback")
		case "ispy":
			t, err := experiment.ExtensionISpy(sub, p)
			if err != nil {
				return err
			}
			return emit(t, "extension_ispy")
		default:
			return fmt.Errorf("unknown extension %q", ext)
		}
	}

	if ablation != "" {
		switch strings.ToLower(ablation) {
		case "ftq":
			t, err := experiment.AblationFTQDepth(sub, []int{2, 4, 8, 16, 24, 32}, p)
			if err != nil {
				return err
			}
			return emit(t, "ablation_ftq")
		case "fanout":
			t, err := experiment.AblationFanout(sub, []float64{0.1, 0.3, 0.5, 0.7}, p)
			if err != nil {
				return err
			}
			return emit(t, "ablation_fanout")
		case "frontend":
			t, err := experiment.AblationFrontend(sub, p)
			if err != nil {
				return err
			}
			return emit(t, "ablation_frontend")
		case "predictor":
			t, err := experiment.AblationPredictor(sub, p)
			if err != nil {
				return err
			}
			return emit(t, "ablation_predictor")
		case "replacement":
			t, err := experiment.AblationReplacement(sub, p)
			if err != nil {
				return err
			}
			return emit(t, "ablation_replacement")
		case "wrongpath":
			t, err := experiment.AblationWrongPath(sub, []int{0, 2, 4, 8}, p)
			if err != nil {
				return err
			}
			return emit(t, "ablation_wrongpath")
		case "btb":
			t, err := experiment.AblationBTB(sub, []int{0, 512, 1024, 4096}, p)
			if err != nil {
				return err
			}
			return emit(t, "ablation_btb")
		case "mechanism":
			t, err := experiment.AblationMechanism(sub, p)
			if err != nil {
				return err
			}
			return emit(t, "ablation_mechanism")
		default:
			return fmt.Errorf("unknown ablation %q", ablation)
		}
	}

	if table == 1 || (figure == 0 && table == 0) {
		if err := emit(experiment.TableI(), "table1"); err != nil {
			return err
		}
		if figure == 0 && table == 1 {
			return nil
		}
	}
	if table != 0 && table != 1 {
		return fmt.Errorf("unknown table %d", table)
	}
	if table == 1 && figure == 0 {
		return nil
	}

	progress := func(s string) { fmt.Fprintln(os.Stderr, s) }
	jobProgress := func(s string) { fmt.Fprintln(os.Stderr, s) }
	if quiet {
		progress, jobProgress = nil, nil
	}
	start := time.Now()
	ms, err := experiment.RunSuiteMonitor(specs, p, progress, jobProgress)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "suite of %d workloads completed in %s\n\n", len(ms), time.Since(start).Round(time.Second))

	type fig struct {
		id   int
		make func([]*experiment.Matrix) *stats.Table
		slug string
	}
	figs := []fig{
		{1, experiment.Figure1, "figure1"},
		{7, experiment.Figure7, "figure7"},
		{8, experiment.Figure8, "figure8"},
		{9, experiment.Figure9, "figure9"},
		{10, experiment.Figure10, "figure10"},
		{11, experiment.Figure11, "figure11"},
	}
	ran := false
	for _, f := range figs {
		if figure != 0 && figure != f.id {
			continue
		}
		ran = true
		if err := emit(f.make(ms), f.slug); err != nil {
			return err
		}
	}
	if figure == 0 {
		if err := emit(experiment.Methodology(ms), "methodology"); err != nil {
			return err
		}
		if err := emit(experiment.HeadStallBreakdown(ms), "headstall_breakdown"); err != nil {
			return err
		}
	} else if !ran {
		return fmt.Errorf("unknown figure %d", figure)
	}
	return nil
}
