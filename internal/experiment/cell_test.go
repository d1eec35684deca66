package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

func cellParams(t *testing.T, dir string) Params {
	t.Helper()
	p := DefaultParams()
	p.WarmupInstrs = 20_000
	p.MeasureInstrs = 60_000
	p.ProfileInstrs = 80_000
	c, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	p.Cache = c
	return p
}

// TestCellMatchesSuite pins the serving layer's core guarantee: a cell
// produced by RunCellCtx is byte-identical to the same cell produced by
// the suite path, and the two share one cache entry.
func TestCellMatchesSuite(t *testing.T) {
	dir := t.TempDir()
	p := cellParams(t, dir)
	spec := workload.All()[0]

	m, err := RunMatrix(spec, 1, p)
	if err != nil {
		t.Fatal(err)
	}

	pool := runner.NewPool(2)
	defer pool.Close()
	for id := seriesID(0); id < numSeries; id++ {
		label := seriesLabels[id]
		res, err := RunCellCtx(context.Background(), pool, spec, label, p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !res.Cached {
			t.Fatalf("%s: cell missed the cache the suite populated", label)
		}
		want, err := m.seriesPtr(id).CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Stats.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: cell and suite stats differ:\ncell:  %s\nsuite: %s", label, got, want)
		}
	}
}

// TestColdCellMatchesSuite runs one plan-derived cell cold (its own cache)
// and asserts it reproduces the suite's result bit-for-bit, including the
// dependency chain (baseline, profile, plan).
func TestColdCellMatchesSuite(t *testing.T) {
	spec := workload.All()[0]

	suiteP := cellParams(t, t.TempDir())
	m, err := RunMatrix(spec, 1, suiteP)
	if err != nil {
		t.Fatal(err)
	}

	cellP := cellParams(t, t.TempDir())
	pool := runner.NewPool(2)
	defer pool.Close()
	res, err := RunCellCtx(context.Background(), pool, spec, "asmdb+fdp24", cellP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("cold cell reported a cache hit")
	}
	want, err := m.AsmdbFDP.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Stats.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cold cell diverged from suite:\ncell:  %s\nsuite: %s", got, want)
	}

	// Both paths must also agree on the cell's content address, i.e. they
	// wrote the same cache entry.
	addr, err := CellAddress(spec, "asmdb+fdp24", cellP)
	if err != nil {
		t.Fatal(err)
	}
	if addr != res.Fingerprint {
		t.Fatalf("CellAddress %s != RunCellCtx fingerprint %s", addr, res.Fingerprint)
	}
	entry := filepath.Join(suiteP.Cache.Dir(), addr[:2], addr+".json")
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("suite cache lacks the cell's entry at its address: %v", err)
	}
}

// cacheDirState scans a cache directory: entry files, temp litter.
func cacheDirState(t *testing.T, dir string) (entries, temps []string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			temps = append(temps, path)
		} else {
			entries = append(entries, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return entries, temps
}

// TestCancelledCellNeverCached cancels cell executions and asserts the
// run cache never contains the cancelled cell: a pre-cancelled request
// writes nothing at all, and a mid-run cancellation leaves only valid,
// fully-written dependency entries — never the requested cell, never temp
// litter.
func TestCancelledCellNeverCached(t *testing.T) {
	spec := workload.All()[0]
	pool := runner.NewPool(2)
	defer pool.Close()

	t.Run("pre-cancelled", func(t *testing.T) {
		dir := t.TempDir()
		p := cellParams(t, dir)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunCellCtx(ctx, pool, spec, "fdp24", p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCellCtx = %v, want context.Canceled", err)
		}
		entries, temps := cacheDirState(t, dir)
		if len(entries) != 0 || len(temps) != 0 {
			t.Fatalf("pre-cancelled cell wrote to the cache: entries %v temps %v", entries, temps)
		}
	})

	t.Run("mid-run", func(t *testing.T) {
		dir := t.TempDir()
		p := cellParams(t, dir)
		addr, err := CellAddress(spec, "asmdb+fdp24", p)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		_, err = RunCellCtx(ctx, pool, spec, "asmdb+fdp24", p)
		if err == nil {
			t.Skip("run completed before the cancel landed; nothing to assert")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCellCtx = %v, want context.Canceled", err)
		}
		entries, temps := cacheDirState(t, dir)
		if len(temps) != 0 {
			t.Fatalf("cancelled cell left temp litter: %v", temps)
		}
		for _, e := range entries {
			if strings.HasSuffix(e, addr+".json") {
				t.Fatalf("cancelled cell %s was written to the cache", addr)
			}
			// Whatever dependencies completed must be whole entries.
			b, err := os.ReadFile(e)
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(b) {
				t.Fatalf("torn cache entry %s", e)
			}
		}
	})
}
