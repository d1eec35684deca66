// Prefetcher comparison: hardware instruction prefetchers (next-line and
// an EIP-style entangling prefetcher) against fetch-directed prefetching
// and AsmDB on one server workload — the comparator set behind the paper's
// Figure 1 series.
package main

import (
	"fmt"
	"log"

	"frontsim/internal/asmdb"
	"frontsim/internal/cache"
	"frontsim/internal/cfg"
	"frontsim/internal/core"
	"frontsim/internal/hwpf"
	"frontsim/internal/program"
	"frontsim/internal/trace"
	"frontsim/internal/workload"
)

const (
	warmup  = 400_000
	measure = 1_200_000
)

func main() {
	spec, _ := workload.Lookup("secret_srv41")
	prog, err := spec.Build()
	if err != nil {
		log.Fatal(err)
	}
	seed := spec.Seed ^ 0x5eed5eed5eed5eed

	var eip *hwpf.EIP // the EIP run's own prefetcher, for its counters
	run := func(name string, pf cache.PrefetcherConfig, p *program.Program, ftqDepth int) core.Stats {
		c := core.DefaultConfig()
		c.Name = name
		c.Frontend.FTQEntries = ftqDepth
		c.Frontend.Prefetcher = pf
		c.WarmupInstrs, c.MaxInstrs = warmup, measure
		sim, err := core.New(c, program.NewExecutor(p, seed))
		if err != nil {
			log.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			log.Fatal(err)
		}
		if e, ok := sim.Frontend().Prefetcher().(*hwpf.EIP); ok {
			eip = e
		}
		return st
	}

	base := run("conservative", nil, prog, 2)

	// AsmDB needs its profile-and-rewrite pipeline.
	graph, err := cfg.Profile(trace.NewLimit(program.NewExecutor(prog, seed), 1_600_000),
		cfg.Options{IPC: base.IPC()})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := asmdb.Build(graph, asmdb.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	rewritten, _, err := asmdb.Apply(prog, plan)
	if err != nil {
		log.Fatal(err)
	}

	results := []struct {
		name string
		st   core.Stats
	}{
		{"conservative (FTQ=2)", base},
		{"asmdb + conservative", run("asmdb+cons", nil, rewritten, 2)},
		{"fdp (FTQ=24)", run("fdp", nil, prog, 24)},
		{"fdp + next-line(2)", run("fdp+nl", hwpf.NextLineConfig{Degree: 2}, prog, 24)},
		{"fdp + eip", run("fdp+eip", hwpf.DefaultEIPConfig(), prog, 24)},
		{"fdp + asmdb", run("fdp+asmdb", nil, rewritten, 24)},
	}

	fmt.Printf("%-24s %8s %9s %8s\n", "configuration", "IPC", "speedup", "MPKI")
	for _, r := range results {
		fmt.Printf("%-24s %8.3f %8.2fx %8.1f\n", r.name, r.st.IPC(), r.st.IPC()/base.IPC(), r.st.L1IMPKI())
	}
	fmt.Printf("\nEIP learned %d entanglings and issued %d prefetches.\n", eip.Entangled(), eip.Issued())
}
