package feedback

import (
	"reflect"
	"testing"

	"frontsim/internal/asmdb"
)

// measured returns candidates at the default grid's points, fanout-major,
// with the given IPCs.
func measured(ipcs ...float64) []Candidate {
	points := DefaultOptions(asmdb.DefaultOptions()).Points()
	out := make([]Candidate, len(ipcs))
	for i, ipc := range ipcs {
		out[i] = Candidate{Fanout: points[i].FanoutThreshold, SitesPerTarget: points[i].MaxSitesPerTarget,
			Insertions: 100 * (i + 1), IPC: ipc}
	}
	return out
}

// TestTuneEvaluatesGrid: the grid is every (fanout, sites) pair,
// fanout-major, on top of the base options, and the result reports every
// measured point in grid order against the baseline.
func TestTuneEvaluatesGrid(t *testing.T) {
	base := asmdb.DefaultOptions()
	opts := DefaultOptions(base)
	points := opts.Points()
	if len(points) != len(opts.Fanouts)*len(opts.SiteCounts) {
		t.Fatalf("points = %d, want %d", len(points), len(opts.Fanouts)*len(opts.SiteCounts))
	}
	for i, p := range points {
		want := base
		want.FanoutThreshold = opts.Fanouts[i/len(opts.SiteCounts)]
		want.MaxSitesPerTarget = opts.SiteCounts[i%len(opts.SiteCounts)]
		if !reflect.DeepEqual(p, want) {
			t.Errorf("point %d = %+v, want %+v", i, p, want)
		}
	}

	cands := measured(0.8, 0.9, 1.0, 1.1, 1.2, 0.7)
	res, err := Select(0.5, cands)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineIPC != 0.5 || len(res.Candidates) != len(points) {
		t.Fatalf("result %+v does not report every point against the baseline", res)
	}
	for i, c := range res.Candidates {
		want := cands[i]
		want.Speedup = want.IPC / 0.5
		if c != want {
			t.Errorf("candidate %d = %+v, want %+v", i, c, want)
		}
	}
}

// TestTuneBestNeverWorseThanBaseline pins the never-regress selection
// rule: no candidate wins unless it beats the baseline, and the first
// point in grid order wins a tie.
func TestTuneBestNeverWorseThanBaseline(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cands []Candidate
		best  Candidate
	}{
		{"floor holds when no candidate beats the baseline", measured(0.9, 1.0, 0.95),
			Candidate{IPC: 1, Speedup: 1}},
		{"first point in grid order wins a tie", measured(0.9, 1.25, 1.1, 1.25),
			Candidate{Fanout: 0.2, SitesPerTarget: 4, Insertions: 200, IPC: 1.25, Speedup: 1.25}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Select(1.0, tc.cands)
			if err != nil {
				t.Fatal(err)
			}
			if res.Best != tc.best {
				t.Errorf("best = %+v, want %+v", res.Best, tc.best)
			}
			if res.Best.IPC < res.BaselineIPC {
				t.Errorf("best %.4f below baseline %.4f", res.Best.IPC, res.BaselineIPC)
			}
		})
	}
}

// TestTuneEmptyGrid: a grid with no fanouts has no points, and selecting
// over no candidates is rejected.
func TestTuneEmptyGrid(t *testing.T) {
	opts := DefaultOptions(asmdb.DefaultOptions())
	opts.Fanouts = nil
	if points := opts.Points(); len(points) != 0 {
		t.Fatalf("empty grid has %d points", len(points))
	}
	if _, err := Select(1.0, nil); err == nil {
		t.Fatal("accepted an empty grid")
	}
}

// TestTuneDeterministic: the selection depends only on the measurements.
// The same candidates give the same result, and the caller's slice is
// left as it was.
func TestTuneDeterministic(t *testing.T) {
	cands := measured(0.9, 1.25, 1.1, 1.25, 1.0, 1.2)
	orig := append([]Candidate(nil), cands...)
	a, err := Select(1.0, cands)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(1.0, cands)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic selection: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(cands, orig) {
		t.Errorf("Select modified its input: %+v, was %+v", cands, orig)
	}
}
