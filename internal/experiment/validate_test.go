package experiment

import (
	"strings"
	"testing"

	"frontsim/internal/core"
	"frontsim/internal/runner"
	"frontsim/internal/stats"
	"frontsim/internal/workload"
)

// TestSamplingValidationTiny exercises the estimator-validation harness at
// test scale: one workload, every mechanism, sampled vs exact. The
// acceptance-scale coverage contract (>= 90% over the full 48-workload
// suite) is enforced by `experiments -sampling-validate`; here we pin the
// harness mechanics — a row per mechanism plus the overall row, a
// coverage fraction in [0, 1], and rejection of a disabled sampling
// config.
func TestSamplingValidationTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every mechanism twice")
	}
	specs := []workload.Spec{mustLookup(t, "public_srv_60")}
	p := sampledParams()
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p.Cache = c
	tbl, cov, err := SamplingValidation(specs, p)
	if err != nil {
		t.Fatal(err)
	}
	if cov < 0 || cov > 1 {
		t.Fatalf("coverage fraction %v out of range", cov)
	}
	s := tbl.String()
	for _, m := range Mechanisms() {
		if !strings.Contains(s, m.Label) {
			t.Errorf("validation table lacks a %s row:\n%s", m.Label, s)
		}
	}
	if !strings.Contains(s, "overall") {
		t.Errorf("validation table lacks the overall row:\n%s", s)
	}

	exact := p
	exact.Sampling = core.SamplingConfig{}
	if _, _, err := SamplingValidation(specs, exact); err == nil {
		t.Fatal("SamplingValidation accepted a disabled sampling config")
	}
}

// TestPercentile pins the nearest-rank quantiles the validation table
// aggregates with: its p50 and p90 columns are stats.Percentile at 50 and
// 90, so p90 of five values is the fifth, not an interpolation.
func TestPercentile(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	cases := []struct {
		p, want float64
	}{{0, 1}, {50, 3}, {90, 5}, {100, 5}}
	for _, c := range cases {
		if got := stats.Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := stats.Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
}
