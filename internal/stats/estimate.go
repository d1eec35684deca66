package stats

import "math"

// Estimate is an online mean/variance accumulator (Welford's algorithm)
// over independent samples, reporting a Student-t 95% confidence interval
// on the mean. The sampled-simulation mode (SMARTS-style systematic
// sampling, internal/core) feeds it one IPC sample per detailed window and
// reports the interval next to the point estimate.
//
// The struct is plain data and serializes canonically: N, Mean and M2
// fully determine every derived quantity, so snapshots round-trip through
// JSON bit-exactly (Welford keeps M2 as an exact running sum, not a
// catastrophic difference of squares).
type Estimate struct {
	// N is the number of samples accumulated.
	N int64
	// Mean is the running sample mean.
	Mean float64
	// M2 is the running sum of squared deviations from the mean.
	M2 float64
}

// Add accumulates one sample.
func (e *Estimate) Add(x float64) {
	e.N++
	d := x - e.Mean
	e.Mean += d / float64(e.N)
	e.M2 += d * (x - e.Mean)
}

// Variance returns the unbiased sample variance (0 with fewer than two
// samples).
func (e *Estimate) Variance() float64 {
	if e.N < 2 {
		return 0
	}
	return e.M2 / float64(e.N-1)
}

// StdErr returns the standard error of the mean (0 with fewer than two
// samples).
func (e *Estimate) StdErr() float64 {
	if e.N < 2 {
		return 0
	}
	return math.Sqrt(e.Variance() / float64(e.N))
}

// CI95 returns the half-width of the 95% confidence interval on the mean,
// using the Student-t quantile for the sample's degrees of freedom. It is
// 0 with fewer than two samples — one window proves nothing about
// variance, and callers treat a zero half-width as "no interval" rather
// than "perfect estimate".
func (e *Estimate) CI95() float64 {
	if e.N < 2 {
		return 0
	}
	return tQuantile975(e.N-1) * e.StdErr()
}

// RelCI95 returns CI95 as a fraction of the mean (0 when the mean is 0).
func (e *Estimate) RelCI95() float64 {
	if e.Mean == 0 { //lint:allow exact-zero guard before division; any nonzero mean, however small, must divide
		return 0
	}
	return e.CI95() / math.Abs(e.Mean)
}

// Contains reports whether x lies inside the 95% confidence interval
// [Mean-CI95, Mean+CI95]. With fewer than two samples the interval is the
// point Mean itself.
func (e *Estimate) Contains(x float64) bool {
	return math.Abs(x-e.Mean) <= e.CI95()
}

// tTable holds the two-sided 95% (one-sided 97.5%) Student-t quantiles
// for 1..30 degrees of freedom; beyond that the distribution is close
// enough to normal that a few coarse steps suffice.
var tTable = [31]float64{0,
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tQuantile975 returns the 97.5th-percentile Student-t quantile for df
// degrees of freedom, conservative (rounding toward the wider interval)
// between tabulated points: each band past 30 returns the quantile at its
// lower edge, which the quantiles inside the band never exceed.
func tQuantile975(df int64) float64 {
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= 30:
		return tTable[df]
	case df <= 40:
		return 2.042 // df 30
	case df <= 60:
		return 2.021 // df 40
	case df <= 120:
		return 2.000 // df 60
	default:
		return 1.980 // df 120
	}
}
