package stats

import (
	"encoding/json"
	"math"
	"testing"
)

func TestEstimateMeanVariance(t *testing.T) {
	var e Estimate
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		e.Add(x)
	}
	if e.N != 8 {
		t.Fatalf("N = %d", e.N)
	}
	if math.Abs(e.Mean-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", e.Mean)
	}
	// Sum of squared deviations is 32; unbiased variance 32/7.
	if got, want := e.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	wantSE := math.Sqrt(32.0 / 7.0 / 8.0)
	if got := e.StdErr(); math.Abs(got-wantSE) > 1e-12 {
		t.Fatalf("StdErr = %v, want %v", got, wantSE)
	}
	// 7 degrees of freedom: t = 2.365.
	if got, want := e.CI95(), 2.365*wantSE; math.Abs(got-want) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
	if !e.Contains(5) || !e.Contains(5+e.CI95()) || e.Contains(5+e.CI95()+1e-9) {
		t.Fatal("Contains boundary behaviour wrong")
	}
}

func TestEstimateDegenerate(t *testing.T) {
	var e Estimate
	if e.Variance() != 0 || e.StdErr() != 0 || e.CI95() != 0 {
		t.Fatal("empty estimate must report zero spread")
	}
	e.Add(3)
	if e.Mean != 3 || e.Variance() != 0 || e.CI95() != 0 {
		t.Fatalf("single-sample estimate: %+v", e)
	}
	if !e.Contains(3) || e.Contains(3.0001) {
		t.Fatal("single-sample interval must be the point itself")
	}
	if e.RelCI95() != 0 {
		t.Fatal("RelCI95 with zero CI must be 0")
	}
}

// TestEstimateConstantSamples: identical samples give zero variance, so the
// interval collapses to the point and always contains the true value.
func TestEstimateConstantSamples(t *testing.T) {
	var e Estimate
	for i := 0; i < 50; i++ {
		e.Add(1.25)
	}
	if e.Mean != 1.25 || e.CI95() != 0 {
		t.Fatalf("constant samples: mean=%v ci=%v", e.Mean, e.CI95())
	}
	if !e.Contains(1.25) {
		t.Fatal("interval must contain the constant")
	}
}

func TestTQuantileMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := int64(1); df <= 200; df++ {
		q := tQuantile975(df)
		if q > prev {
			t.Fatalf("t quantile rose at df=%d: %v > %v", df, q, prev)
		}
		if q < 1.960 {
			t.Fatalf("t quantile below the normal limit at df=%d: %v", df, q)
		}
		prev = q
	}
}

// TestTQuantileConservativeBetweenTablePoints checks the quantile just past
// each tabulated point against the exact value there: an interpolation
// band must never return a quantile narrower than the true one at any df
// it covers, and the first df of a band has the widest true quantile.
func TestTQuantileConservativeBetweenTablePoints(t *testing.T) {
	for _, c := range []struct {
		df    int64
		exact float64
	}{{31, 2.0395}, {41, 2.0195}, {61, 1.9996}, {121, 1.9798}} {
		if q := tQuantile975(c.df); q < c.exact {
			t.Errorf("df %d: quantile %v is narrower than the exact %v", c.df, q, c.exact)
		}
	}
}

// TestEstimateJSONRoundTrip pins the canonical-serialization property the
// run cache depends on: encode/decode reproduces the exact struct.
func TestEstimateJSONRoundTrip(t *testing.T) {
	var e Estimate
	for _, x := range []float64{0.31, 0.37, 0.29, 0.41} {
		e.Add(x)
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got Estimate
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip changed the estimate: %+v != %+v", got, e)
	}
}

func TestRelCI95(t *testing.T) {
	e := Estimate{N: 9, Mean: 4.0, M2: 0.5}
	if got, want := e.RelCI95(), e.CI95()/4.0; got != want {
		t.Errorf("RelCI95 = %v, want %v", got, want)
	}
	zero := Estimate{N: 9, Mean: 0, M2: 0.5}
	if got := zero.RelCI95(); got != 0 {
		t.Errorf("RelCI95 with zero mean = %v, want 0", got)
	}
}
