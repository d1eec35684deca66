// Feedback tuning: the paper's §VI second proposal in action. AsmDB's
// aggressiveness knobs are re-tuned from measured performance instead of a
// fixed profile-time policy: candidate rewritings are evaluated on the
// aggressive front-end and the best-performing binary wins — with the
// original, prefetch-free binary as the floor, so software prefetching can
// never be a regression. The candidates run as experiment cells, profiled
// once on the conservative baseline like the paper's matrix.
package main

import (
	"fmt"
	"log"

	"frontsim/internal/experiment"
	"frontsim/internal/workload"
)

func main() {
	spec, _ := workload.Lookup("secret_srv225")
	p := experiment.DefaultParams()
	p.WarmupInstrs, p.MeasureInstrs, p.ProfileInstrs = 300_000, 800_000, 1_000_000

	res, err := experiment.FeedbackSearch(spec, p)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s baseline (no prefetching): IPC %.3f\n\n", spec.Name, res.BaselineIPC)
	fmt.Printf("%-8s %-6s %-11s %-8s %s\n", "fanout", "sites", "insertions", "IPC", "speedup")
	for _, c := range res.Candidates {
		marker := ""
		if c == res.Best {
			marker = "  <- chosen"
		}
		fmt.Printf("%-8.2f %-6d %-11d %-8.3f %.3f%s\n",
			c.Fanout, c.SitesPerTarget, c.Insertions, c.IPC, c.Speedup, marker)
	}
	if res.Best.Insertions == 0 {
		fmt.Println("\nfeedback disabled software prefetching for this workload —")
		fmt.Println("on an aggressive front-end that is frequently the right call.")
	} else {
		fmt.Printf("\nchosen operating point: fanout %.2f, %d sites/target (%+.1f%% over baseline)\n",
			res.Best.Fanout, res.Best.SitesPerTarget, 100*(res.Best.Speedup-1))
	}
}
