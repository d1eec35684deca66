package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"frontsim/internal/cache"
	"frontsim/internal/isa"
	"frontsim/internal/trace"
)

// failingSource is a block source that, once n instructions have been
// read, fails with err or panics with val.
type failingSource struct {
	src trace.BlockSource
	n   int
	err error
	val any
}

func (s *failingSource) fail() error {
	if s.val != nil {
		panic(s.val)
	}
	return s.err
}

func (s *failingSource) Next() (isa.Instr, error) {
	if s.n <= 0 {
		return isa.Instr{}, s.fail()
	}
	s.n--
	return s.src.Next()
}

func (s *failingSource) NextBlock(buf []isa.Instr, max int) ([]isa.Instr, error) {
	if s.n <= 0 {
		return buf, s.fail()
	}
	if max > s.n {
		max = s.n
	}
	out, err := s.src.NextBlock(buf, max)
	s.n -= len(out) - len(buf)
	return out, err
}

func blockSource(t *testing.T, name string) trace.BlockSource {
	t.Helper()
	bs, ok := source(t, name).(trace.BlockSource)
	if !ok {
		t.Fatal("suite source does not yield runs")
	}
	return bs
}

// runJoined runs RunCtx, recovering a panic, and checks the goroutine
// count is back where it was: the read-ahead producer was joined.
func runJoined(t *testing.T, sim *Sim, ctx context.Context) (err error, panicked any) {
	t.Helper()
	before := runtime.NumGoroutine()
	func() {
		defer func() { panicked = recover() }()
		_, err = sim.RunCtx(ctx)
	}()
	// The producer's last act is reporting its exit, so it may still be
	// unwinding for a moment after Stop has returned.
	for i := 0; i < 500 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after RunCtx, %d before", n, before)
	}
	return err, panicked
}

// TestRunCtxJoinsReadAhead leaves RunCtx by each of its paths — completion,
// a context cancelled before or during the run, a wedged pipeline, a
// failing source and an audit panic — and checks each time that the
// read-ahead producer is gone when RunCtx has returned.
func TestRunCtxJoinsReadAhead(t *testing.T) {
	boom := errors.New("source failed")
	cases := []struct {
		name  string
		run   func() (*Sim, context.Context)
		check func(error, any) bool
	}{
		{"completion", func() (*Sim, context.Context) {
			return newSim(t, smallConfig("ra", false), blockSource(t, "secret_srv12")), context.Background()
		}, func(err error, p any) bool { return err == nil && p == nil }},
		{"pre-cancelled", func() (*Sim, context.Context) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cfg := smallConfig("ra", false)
			cfg.FastForward = true
			return newSim(t, cfg, blockSource(t, "secret_srv12")), ctx
		}, func(err error, p any) bool { return errors.Is(err, context.Canceled) }},
		{"mid-run cancel", func() (*Sim, context.Context) {
			cfg := smallConfig("ra", false)
			cfg.FastForward = true
			sim := newSim(t, cfg, blockSource(t, "secret_srv12"))
			return sim, cancelAt(sim, 5000)
		}, func(err error, p any) bool { return errors.Is(err, context.Canceled) }},
		{"wedge", func() (*Sim, context.Context) {
			sim := newSim(t, smallConfig("ra", false), blockSource(t, "secret_srv12"))
			sim.fe.SetFill(false) // nothing enters the pipeline, so nothing retires
			return sim, context.Background()
		}, func(err error, p any) bool { return err != nil && strings.Contains(err.Error(), "wedged") }},
		{"source error", func() (*Sim, context.Context) {
			return newSim(t, smallConfig("ra", false), &failingSource{src: blockSource(t, "secret_srv12"), n: 50_000, err: boom}),
				context.Background()
		}, func(err error, p any) bool { return errors.Is(err, boom) }},
		{"audit panic", func() (*Sim, context.Context) {
			sim := newSim(t, smallConfig("ra", false), blockSource(t, "secret_srv12"))
			sim.auditCheck = func(now cache.Cycle) error {
				if now == 5000 {
					return boom
				}
				return nil
			}
			return sim, context.Background()
		}, func(err error, p any) bool { v, ok := p.(*AuditViolation); return ok && errors.Is(v, boom) }},
	}
	for _, c := range cases {
		sim, ctx := c.run()
		if err, p := runJoined(t, sim, ctx); !c.check(err, p) {
			t.Errorf("%s: RunCtx returned %v and panicked with %v", c.name, err, p)
		}
	}
}

func newSim(t *testing.T, cfg Config, src trace.Source) *Sim {
	t.Helper()
	sim, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestReadAheadFailsWhereDirectReadFails checks that a source's panic and
// its error reach the simulation at the same block with the read-ahead as
// without: RunCtx re-raises the producer's panic with the same value at
// the cycle a Step-driven run panics at, and a failing source leaves the
// same partial statistics behind either way.
func TestReadAheadFailsWhereDirectReadFails(t *testing.T) {
	val := &struct{ msg string }{"source panicked"}
	boom := errors.New("source failed")
	for _, c := range []struct {
		name string
		src  func() *failingSource
	}{
		{"panic", func() *failingSource { return &failingSource{src: blockSource(t, "secret_srv12"), n: 60_001, val: val} }},
		{"error", func() *failingSource {
			return &failingSource{src: blockSource(t, "secret_srv12"), n: 60_001, err: boom}
		}},
		{"end", func() *failingSource {
			return &failingSource{src: blockSource(t, "secret_srv12"), n: 60_001, err: trace.ErrEnd}
		}},
	} {
		cfg := smallConfig("ra", false)
		stepped := newSim(t, cfg, c.src())
		p := func() (p any) {
			defer func() { p = recover() }()
			for !stepped.Done() {
				stepped.Step()
			}
			return nil
		}()
		ahead := newSim(t, cfg, c.src())
		err, q := runJoined(t, ahead, context.Background())
		if c.name == "panic" && p != val {
			t.Fatalf("%s: a Step-driven run panicked with %v, want %v", c.name, p, val)
		}
		if p != q {
			t.Errorf("%s: RunCtx panicked with %v, a Step-driven run with %v", c.name, q, p)
		}
		if c.name == "error" && !errors.Is(err, boom) {
			t.Errorf("%s: RunCtx returned %v, want %v", c.name, err, boom)
		}
		if ahead.Now() != stepped.Now() {
			t.Errorf("%s: RunCtx stopped at cycle %d, a Step-driven run at %d", c.name, ahead.Now(), stepped.Now())
		}
		a, err := ahead.Snapshot().CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := stepped.Snapshot().CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: partial statistics differ:\n%s\n%s", c.name, a, b)
		}
	}
}
