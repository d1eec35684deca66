package core

import (
	"fmt"
	"math"
	"reflect"

	"frontsim/internal/stats"
)

// SamplingConfig selects SMARTS-style systematic sampled simulation. The
// zero value means exact (full-detail) simulation; a non-zero config makes
// the run alternate functional warm-up — the instruction stream is
// consumed and caches, TLB, BTB and predictors stay warm, but no cycles
// are accounted — with short detailed windows whose per-window CPI samples
// feed a Student-t confidence interval on the mean (stats.Estimate),
// reported as an IPC interval (SamplingStats.IPCInterval).
//
// Every field participates in the configuration fingerprint: sampled and
// exact runs of the same machine are different experiments and must never
// share run-cache entries, nor may two sampled runs with different window
// geometry.
//
// The post-warm-up budget (Config.MaxInstrs) counts *all* program
// instructions the run covers — functional gaps, detailed warm-up,
// measured windows and window drains alike — so a sampled run traverses
// exactly the same region of the stream its exact counterpart measures.
type SamplingConfig struct {
	// IntervalInstrs is the sampling unit period in program instructions:
	// one measured window begins every IntervalInstrs. Zero disables
	// sampling (and then every other field must be zero too).
	IntervalInstrs int64
	// DetailInstrs is the measured detailed-window length per unit, in
	// program instructions.
	DetailInstrs int64
	// WarmInstrs is the detailed (full-timing, unmeasured) warm-up run
	// immediately before each measured window, giving the bandwidth model
	// and in-flight state a timing ramp the functional phase cannot
	// provide. May be zero.
	WarmInstrs int64
}

// Enabled reports whether the configuration selects sampled simulation.
func (c SamplingConfig) Enabled() bool { return c.IntervalInstrs > 0 }

// Validate checks the window geometry; the all-zero (disabled) value is
// valid, a partially-filled one is not.
func (c SamplingConfig) Validate() error {
	if !c.Enabled() {
		if c != (SamplingConfig{}) {
			return fmt.Errorf("core: sampling fields set without IntervalInstrs: %+v", c)
		}
		return nil
	}
	if c.DetailInstrs <= 0 {
		return fmt.Errorf("core: sampling DetailInstrs %d", c.DetailInstrs)
	}
	if c.WarmInstrs < 0 {
		return fmt.Errorf("core: sampling WarmInstrs %d", c.WarmInstrs)
	}
	if c.WarmInstrs+c.DetailInstrs > c.IntervalInstrs {
		return fmt.Errorf("core: sampling window warm %d + detail %d exceeds interval %d",
			c.WarmInstrs, c.DetailInstrs, c.IntervalInstrs)
	}
	return nil
}

// SamplingStats reports a sampled run's coverage accounting and the IPC
// estimate. It hangs off Stats only for sampled runs (nil for exact ones),
// so exact snapshots keep their shape.
type SamplingStats struct {
	// Windows is the number of complete measured windows aggregated into
	// the IPC estimate.
	Windows int64
	// TruncatedWindows counts sampling units the source drained out of
	// mid-warm-up or mid-window; their partial measurements are discarded,
	// never mixed into the estimate.
	TruncatedWindows int64
	// FunctionalInstrs counts program instructions consumed functionally:
	// the initial warm-up plus every inter-window gap.
	FunctionalInstrs int64
	// WarmDetailInstrs counts program instructions run in detailed timing
	// mode as per-window warm-up (unmeasured).
	WarmDetailInstrs int64
	// DrainInstrs counts program instructions that retired while window
	// tails drained out of the pipeline (unmeasured).
	DrainInstrs int64
	// CPI is the per-window cycles-per-instruction estimate: mean, sample
	// variance and 95% confidence interval over Windows samples. The
	// estimator works in CPI, as SMARTS does, because window instruction
	// counts are (nearly) fixed while cycle counts vary: the CPI sample
	// mean is unbiased, whereas averaging per-window IPC would
	// overweight fast windows (a harmonic-vs-arithmetic mean skew that
	// inflates the estimate badly on bursty workloads). IPC views derive
	// from it below.
	CPI stats.Estimate
}

// IPCMean returns the sampled IPC point estimate 1/mean(CPI) (0 when no
// window was measured).
func (s *SamplingStats) IPCMean() float64 {
	if s.CPI.Mean == 0 { //lint:allow exact-zero guard before division: no window measured means Mean is exactly 0
		return 0
	}
	return 1 / s.CPI.Mean
}

// IPCInterval returns the 95% confidence interval on IPC, mapped from the
// CPI interval (the transform x -> 1/x is monotone on positive CPI). A
// degenerate CPI interval reaching zero or below yields an unbounded
// upper limit.
func (s *SamplingStats) IPCInterval() (lo, hi float64) {
	ci := s.CPI.CI95()
	loCPI, hiCPI := s.CPI.Mean+ci, s.CPI.Mean-ci
	if loCPI <= 0 {
		return 0, math.Inf(1)
	}
	lo = 1 / loCPI
	if hiCPI <= 0 {
		return lo, math.Inf(1)
	}
	return lo, 1 / hiCPI
}

// IPCCI95 returns the half-width of the derived IPC interval (infinite
// when the interval is unbounded).
func (s *SamplingStats) IPCCI95() float64 {
	lo, hi := s.IPCInterval()
	return (hi - lo) / 2
}

// ContainsIPC reports whether x lies inside the 95% IPC confidence
// interval.
func (s *SamplingStats) ContainsIPC(x float64) bool {
	lo, hi := s.IPCInterval()
	return x >= lo && x <= hi
}

// samplingPhase is the state of the sampled run loop.
type samplingPhase uint8

const (
	// sampInit: nothing has run; the initial functional warm-up is pending.
	sampInit samplingPhase = iota
	// sampWarm: detailed but unmeasured timing ramp before a window.
	sampWarm
	// sampMeasure: detailed measured window; counters were reset at entry.
	sampMeasure
	// sampDrain: fill is gated; the window tail drains out of FTQ and ROB.
	sampDrain
	// sampDone: terminal.
	sampDone
)

// samplingState is the per-run sampling controller. All phase transitions
// are retirement- or drain-driven and evaluated between cycles
// (sampleSync), so they compose with the fast-forward scheduler exactly
// like the warm-up and budget boundaries do: a skipped span retires
// nothing and pops nothing, so no transition can fire inside one.
type samplingState struct {
	cfg SamplingConfig

	phase samplingPhase
	// consumed counts post-warm-up program instructions covered so far —
	// functional, warm, measured and drain alike (the budget clock).
	consumed int64
	// base is the back-end's retired-program count at the current phase's
	// entry; phase progress is the delta from it.
	base int64

	// agg accumulates the measured windows' counters field-by-field.
	agg Stats
	est stats.Estimate

	windows    int64
	truncated  int64
	functional int64
	warmDetail int64
	drain      int64
}

// sampleSync advances the sampling state machine as far as the machine
// state allows, running functional phases inline (they consume the stream
// but no simulated time). It is idempotent between cycles: when no
// transition applies it returns leaving everything untouched, so Done may
// call it any number of times per cycle. It must only run between fully
// simulated cycles.
func (s *Sim) sampleSync() {
	sp := s.samp
	for {
		switch sp.phase {
		case sampInit:
			got := s.fe.WarmFunctional(s.cfg.WarmupInstrs, s.now)
			sp.functional += got
			if got < s.cfg.WarmupInstrs {
				sp.phase = sampDone // source drained during warm-up
				continue
			}
			sp.base = s.be.RetiredProgramCount()
			sp.phase = sampWarm

		case sampWarm:
			delta := s.be.RetiredProgramCount() - sp.base
			if delta >= sp.cfg.WarmInstrs {
				sp.warmDetail += delta
				sp.consumed += delta
				s.beginWindow()
				sp.phase = sampMeasure
				continue
			}
			if s.fe.Done() && s.be.Drained() {
				sp.warmDetail += delta
				sp.consumed += delta
				sp.truncated++
				sp.phase = sampDone
				continue
			}
			return // keep stepping in detailed mode

		case sampMeasure:
			rp := s.be.RetiredProgramCount() // counters were reset at window entry
			if rp >= sp.cfg.DetailInstrs {
				w := s.snapshot()
				addStatsInto(&sp.agg, &w)
				sp.est.Add(float64(w.Cycles) / float64(w.Instructions))
				sp.windows++
				sp.consumed += w.Instructions
				s.measured = false
				s.fe.SetFill(false)
				sp.base = rp
				sp.phase = sampDrain
				continue
			}
			if s.fe.Done() && s.be.Drained() {
				// The stream ran dry mid-window: a short window is a biased
				// sample, so it is discarded, not averaged in.
				sp.consumed += rp
				sp.truncated++
				sp.phase = sampDone
				continue
			}
			return // keep stepping in detailed measured mode

		case sampDrain:
			if !(s.fe.FTQ().Empty() && s.be.Drained()) {
				return // keep stepping until the window tail retires
			}
			dr := s.be.RetiredProgramCount() - sp.base
			sp.drain += dr
			sp.consumed += dr
			s.fe.SetFill(true)
			if sp.consumed >= s.cfg.MaxInstrs || s.fe.Done() {
				sp.phase = sampDone
				continue
			}
			gap := sp.cfg.IntervalInstrs - sp.cfg.WarmInstrs - sp.cfg.DetailInstrs
			if remaining := s.cfg.MaxInstrs - sp.consumed; gap > remaining {
				gap = remaining
			}
			got := s.fe.WarmFunctional(gap, s.now)
			sp.functional += got
			sp.consumed += got
			if got < gap || sp.consumed >= s.cfg.MaxInstrs {
				sp.phase = sampDone
				continue
			}
			sp.base = s.be.RetiredProgramCount()
			sp.phase = sampWarm

		case sampDone:
			return
		}
	}
}

// beginWindow opens a measured window: counters reset, the cycle anchor
// moves, microarchitectural state stays warm. The sampled-mode analogue of
// beginMeasurement, minus the warm-up-overshoot bookkeeping (window
// overshoot is visible directly as Instructions > DetailInstrs).
func (s *Sim) beginWindow() {
	s.measured = true
	s.startCyc = s.now
	s.fe.ResetStats()
	s.be.ResetStats()
	s.mem.ResetStats()
}

// finish assembles the sampled run's aggregate snapshot: the summed
// measured-window counters (so IPC() is the ratio estimate over all
// windows) plus the sampling block with the per-window estimate.
func (sp *samplingState) finish(name string) Stats {
	st := sp.agg
	st.Config = name
	st.Sampling = &SamplingStats{
		Windows:          sp.windows,
		TruncatedWindows: sp.truncated,
		FunctionalInstrs: sp.functional,
		WarmDetailInstrs: sp.warmDetail,
		DrainInstrs:      sp.drain,
		CPI:              sp.est,
	}
	return st
}

// addStatsInto accumulates src's counters into dst field-by-field,
// recursing through the embedded per-component stats structs. Stats is
// all int64 counters apart from its Config label and the Sampling and
// Prefetcher blocks, which are not accumulators; any other field kind is a
// programming error caught loudly here (and by TestAddStatsCoversStats)
// rather than silently skipped.
func addStatsInto(dst, src *Stats) {
	addStructInt64(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

func addStructInt64(d, s reflect.Value) {
	for i := 0; i < d.NumField(); i++ {
		f := d.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() + s.Field(i).Int())
		case reflect.Struct:
			addStructInt64(f, s.Field(i))
		case reflect.Array:
			// Histogram buckets (e.g. ftq.Stats.HeadStallHist) sum
			// element-wise.
			if f.Type().Elem().Kind() != reflect.Int64 {
				panic(fmt.Sprintf("core: addStatsInto cannot accumulate array field %s of %s",
					d.Type().Field(i).Name, f.Type().Elem()))
			}
			for j := 0; j < f.Len(); j++ {
				e := f.Index(j)
				e.SetInt(e.Int() + s.Field(i).Index(j).Int())
			}
		case reflect.String, reflect.Pointer:
			// Config (a label); the Sampling and Prefetcher blocks.
		default:
			panic(fmt.Sprintf("core: addStatsInto cannot accumulate field %s of kind %s",
				d.Type().Field(i).Name, f.Kind()))
		}
	}
}
