// Command fesim runs a single front-end simulation of one workload under a
// chosen configuration and prints the full statistics snapshot.
//
// Usage:
//
//	fesim -workload secret_srv12 -ftq 24 -instrs 1500000 -warmup 500000
//	fesim -workload secret_int_44 -ftq 2 -no-pfc
//	fesim -trace trace.fsim.gz -ftq 24
//	fesim -workload secret_srv12 -obs -obs-dir out -obs-stride 64
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"frontsim/internal/core"
	"frontsim/internal/hwpf"
	"frontsim/internal/obs"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

// options collects everything the command-line surface controls; run takes
// it whole so tests can exercise arbitrary combinations.
type options struct {
	workload  string
	tracePath string
	ftq       int
	instrs    int64
	warmup    int64
	noPFC     bool
	noGHR     bool
	hwpf      string
	json      bool

	sampInterval int64
	sampDetail   int64
	sampWarm     int64

	obs       bool
	obsDir    string
	obsStride int64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "secret_srv12", "suite workload name (see -list)")
	flag.StringVar(&o.tracePath, "trace", "", "run a serialized trace file instead of a suite workload")
	list := flag.Bool("list", false, "list suite workloads and exit")
	flag.IntVar(&o.ftq, "ftq", 24, "FTQ depth (2 = paper's conservative front-end)")
	flag.Int64Var(&o.instrs, "instrs", 1_500_000, "measured program instructions")
	flag.Int64Var(&o.warmup, "warmup", 500_000, "warmup instructions excluded from statistics")
	flag.BoolVar(&o.noPFC, "no-pfc", false, "disable post-fetch correction")
	flag.BoolVar(&o.noGHR, "no-ghr-filter", false, "disable GHR not-taken/BTB-miss filtering")
	flag.StringVar(&o.hwpf, "hwpf", "none", "hardware L1-I prefetcher: none, nextline, eip")
	flag.BoolVar(&o.json, "json", false, "emit the statistics snapshot as JSON")
	flag.Int64Var(&o.sampInterval, "sampling-interval", 0, "SMARTS sampling unit period in instructions (0 = exact simulation)")
	flag.Int64Var(&o.sampDetail, "sampling-detail", 1_000, "measured detailed-window length per sampling unit")
	flag.Int64Var(&o.sampWarm, "sampling-warm", 2_000, "detailed (unmeasured) warm-up before each window")
	flag.BoolVar(&o.obs, "obs", false, "record an observability bundle: per-cycle samples, front-end events, metrics")
	flag.StringVar(&o.obsDir, "obs-dir", "obs", "directory for -obs output files")
	flag.Int64Var(&o.obsStride, "obs-stride", 64, "cycles between time-series samples under -obs")
	flag.Parse()

	if *list {
		for i, n := range workload.Names() {
			s, _ := workload.Lookup(n)
			fmt.Printf("%2d  %-18s %s\n", i+1, n, s.Category)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fesim:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	cfg := core.DefaultConfig()
	cfg.Name = fmt.Sprintf("ftq%d", o.ftq)
	cfg.Frontend.FTQEntries = o.ftq
	cfg.Frontend.EnablePFC = !o.noPFC
	cfg.Frontend.BPU.FilterGHR = !o.noGHR
	cfg.WarmupInstrs = o.warmup
	cfg.MaxInstrs = o.instrs
	cfg.FastForward = true
	if o.sampInterval > 0 {
		cfg.Sampling = core.SamplingConfig{
			IntervalInstrs: o.sampInterval,
			DetailInstrs:   o.sampDetail,
			WarmInstrs:     o.sampWarm,
		}
	}

	switch o.hwpf {
	case "none":
	case "nextline":
		cfg.Frontend.Prefetcher = hwpf.NextLineConfig{Degree: 2}
	case "eip":
		cfg.Frontend.Prefetcher = hwpf.DefaultEIPConfig()
	default:
		return fmt.Errorf("unknown -hwpf %q", o.hwpf)
	}

	var src trace.Source
	label := o.workload
	if o.tracePath != "" {
		label = "trace"
		f, err := os.Open(o.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		src = r
	} else {
		spec, ok := workload.Lookup(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (try -list)", o.workload)
		}
		s, err := spec.NewSource()
		if err != nil {
			return err
		}
		src = s
	}

	var fo *obs.FileObserver
	if o.obs {
		var err error
		fo, err = obs.NewFileObserver(o.obsDir, label, obs.Options{Stride: o.obsStride})
		if err != nil {
			return err
		}
		cfg.Obs = fo
	}

	st, err := core.RunSource(cfg, src)
	if err != nil {
		return err
	}
	if fo != nil {
		if err := fo.Close(); err != nil {
			return fmt.Errorf("closing observer: %w", err)
		}
		if err := writeMetrics(o.obsDir, label, &st, fo); err != nil {
			return err
		}
	}
	if o.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(jsonStats(st))
	}
	fmt.Print(st.Summary())
	return nil
}

// writeMetrics exports the run's metrics — the snapshot's headline series
// plus the observer's event counters — as canonical JSON and Prometheus
// text next to the sample/event files.
func writeMetrics(dir, label string, st *core.Stats, fo *obs.FileObserver) error {
	labels := []obs.Label{
		{Key: "workload", Value: label},
		{Key: "config", Value: st.Config},
	}
	ms := st.MetricSet(labels...)
	ms = append(ms, fo.EventCountsMetricSet(labels...)...)
	ms.Sort()
	base := filepath.Join(dir, obs.SanitizeLabel(label)+".metrics")
	jf, err := os.Create(base + ".json")
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
	pf, err := os.Create(base + ".prom")
	if err != nil {
		return err
	}
	if err := ms.WritePrometheus(pf); err != nil {
		pf.Close()
		return err
	}
	return pf.Close()
}

// jsonStats augments the raw counters with the derived headline metrics so
// downstream scripts need no recomputation.
func jsonStats(st core.Stats) map[string]interface{} {
	return map[string]interface{}{
		"config":                   st.Config,
		"ipc":                      st.IPC(),
		"l1i_mpki":                 st.L1IMPKI(),
		"dynamic_bloat":            st.DynamicBloat(),
		"avg_head_fetch_cycles":    st.FTQ.AvgHeadFetch(),
		"avg_nonhead_fetch_cycles": st.FTQ.AvgNonHeadFetch(),
		"counters":                 st,
	}
}
