// Command simd is the simulation service: a long-running HTTP/JSON
// daemon answering simulation-cell and suite requests from the
// content-addressed run cache, executing misses on a work-stealing pool
// with request coalescing, bounded admission (429 + Retry-After under
// overload), end-to-end cancellation, and graceful SIGTERM drain.
//
// Usage:
//
//	simd -addr :8091 -cache results/cache
//	simd -max-concurrent 4 -queue 32 -drain-timeout 30s
//
// Endpoints:
//
//	POST /v1/cell          one simulation cell (workload, series | overrides)
//	POST /v1/suite         a grid of cells
//	GET  /v1/workloads     the suite's workloads and series
//	GET  /healthz          ok | draining
//	GET  /metrics          Prometheus text (request + run-cache counters)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"frontsim/internal/experiment"
	"frontsim/internal/runner"
	"frontsim/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8091", "listen address")
		cacheDir   = flag.String("cache", filepath.Join("results", "cache"), "run-cache directory (\"\" disables caching)")
		jobs       = flag.Int("jobs", 0, "work-stealing pool workers (0 = GOMAXPROCS)")
		maxConc    = flag.Int("max-concurrent", 0, "cells executing at once (0 = pool workers)")
		queue      = flag.Int("queue", 64, "cells waiting for an execution slot before shedding 429s")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain deadline before in-flight cells are cancelled")
		warmup     = flag.Int64("warmup", 500_000, "default warmup instructions per run")
		instrs     = flag.Int64("instrs", 1_500_000, "default measured instructions per run")
		profile    = flag.Int64("profile", 2_000_000, "default AsmDB profiling instructions")
		metricsOut = flag.String("metrics-out", "", "write a final Prometheus metrics snapshot here on shutdown")
	)
	flag.Parse()

	p := experiment.DefaultParams()
	p.WarmupInstrs = *warmup
	p.MeasureInstrs = *instrs
	p.ProfileInstrs = *profile

	var cache *runner.Cache
	if *cacheDir != "" {
		c, err := runner.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simd: open cache:", err)
			os.Exit(1)
		}
		cache = c
	}

	srv := serve.New(serve.Options{
		Params:        p,
		Cache:         cache,
		Workers:       *jobs,
		MaxConcurrent: *maxConc,
		MaxQueue:      *queue,
		RetryAfter:    *retryAfter,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simd: listen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "simd: serving on %s (cache %q)\n", ln.Addr(), cache.Dir())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The HTTP listener and the service drain share ctx: a signal closes
	// the listener (no new connections) while Drain below stops admission
	// and settles in-flight cells.
	httpErr := make(chan error, 1)
	go func() {
		httpErr <- serve.ListenAndServe(ctx, serve.NewHTTPServer(*addr, srv.Handler()), ln, *drainTO+5*time.Second)
	}()

	// flushMetrics writes the -metrics-out snapshot, at most once: it is
	// shared between the graceful-drain epilogue and the forced-exit path,
	// so a kill during drain cannot lose the file.
	var flushOnce sync.Once
	flushMetrics := func() {
		flushOnce.Do(func() {
			if *metricsOut == "" {
				return
			}
			f, err := os.Create(*metricsOut)
			if err == nil {
				err = srv.MetricSet().WritePrometheus(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "simd: metrics-out:", err)
			}
		})
	}

	select {
	case err := <-httpErr:
		// The server died without a signal (it cannot return nil before
		// ctx is cancelled): a real serve failure.
		fmt.Fprintln(os.Stderr, "simd: serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()

	// A second signal during the drain forces an immediate exit — but not
	// via the default disposition, which would lose -metrics-out: flush
	// best-effort first, then exit nonzero.
	forced := make(chan os.Signal, 1)
	signal.Notify(forced, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(forced)
	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	go func() {
		select {
		case <-fctx.Done():
		case <-forced:
			fmt.Fprintln(os.Stderr, "simd: forced exit; flushing metrics")
			flushMetrics()
			os.Exit(1)
		}
	}()

	fmt.Fprintf(os.Stderr, "simd: draining (deadline %s)\n", *drainTO)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "simd: drain deadline hit; cancelled in-flight cells:", err)
	}
	if err := <-httpErr; err != nil {
		fmt.Fprintln(os.Stderr, "simd: shutdown:", err)
	}

	flushMetrics()
	fmt.Fprintln(os.Stderr, "simd: drained")
}
