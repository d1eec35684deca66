package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frontsim/internal/core"
	"frontsim/internal/experiment"
	"frontsim/internal/hwpf"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// testServer builds a Server whose execution seam is stubbed, so
// admission, coalescing and drain behavior are exercised without running
// simulations. The default stubs miss the cache and fail loudly on
// execution; tests override what they need.
func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := New(opts)
	t.Cleanup(s.Close)
	s.probe = func(*preparedCell) (cellStats, bool, error) { return cellStats{}, false, nil }
	s.runCell = func(context.Context, *preparedCell) (experiment.CellResult, error) {
		t.Error("runCell called without a test stub")
		return experiment.CellResult{}, errors.New("no stub")
	}
	return s
}

// waitFor polls cond (1ms stride) until it holds or ~5s elapse.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// blockingStub is a runCell stub that parks executions until released,
// returning ctx.Err() if the flight is cancelled first.
type blockingStub struct {
	started atomic.Int64
	release chan struct{}
	result  experiment.CellResult
}

func newBlockingStub(result experiment.CellResult) *blockingStub {
	return &blockingStub{release: make(chan struct{}), result: result}
}

func (b *blockingStub) run(ctx context.Context, _ *preparedCell) (experiment.CellResult, error) {
	b.started.Add(1)
	select {
	case <-b.release:
		return b.result, nil
	case <-ctx.Done():
		return experiment.CellResult{}, ctx.Err()
	}
}

func stubResult(config string, instrs int64) experiment.CellResult {
	return experiment.CellResult{Stats: core.Stats{Config: config, Instructions: instrs}}
}

// TestCoalescingSingleExecution pins the singleflight guarantee: N
// concurrent requests for one cell fingerprint run one simulation, and
// every subscriber receives the identical result.
func TestCoalescingSingleExecution(t *testing.T) {
	s := testServer(t, Options{MaxConcurrent: 4, MaxQueue: 16})
	stub := newBlockingStub(stubResult("stub", 42))
	s.runCell = stub.run
	pc := &preparedCell{addr: "cell-A", series: "fdp24"}

	const n = 8
	var wg sync.WaitGroup
	resps := make([]CellResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = s.cell(context.Background(), pc)
		}()
	}
	// All n must be attached to the single flight before it completes.
	waitFor(t, "one leader", func() bool { return stub.started.Load() == 1 })
	waitFor(t, "subscribers", func() bool { return s.coalesced.Load() == n-1 })
	close(stub.release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(resps[i].Stats, resps[0].Stats) {
			t.Fatalf("request %d got different bytes than request 0", i)
		}
	}
	if got := s.executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	coal := 0
	for _, r := range resps {
		if r.Coalesced {
			coal++
		}
	}
	if coal != n-1 {
		t.Fatalf("%d responses marked coalesced, want %d", coal, n-1)
	}
}

// postCell fires a /v1/cell request and returns status, Retry-After, body.
func postCell(t *testing.T, url string, req CellRequest) (int, string, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url+"/v1/cell", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header.Get("Retry-After"), body
}

// TestBackpressureQueueFull pins bounded admission: with one execution
// slot and a one-deep wait queue, a third distinct cell is shed with
// 429 + Retry-After instead of queueing, and the admitted two complete.
func TestBackpressureQueueFull(t *testing.T) {
	s := testServer(t, Options{MaxConcurrent: 1, MaxQueue: 1, RetryAfter: 2 * time.Second})
	stub := newBlockingStub(stubResult("stub", 7))
	s.runCell = stub.run
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	names := workload.Names()
	type reply struct {
		status int
		body   []byte
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, _, body := postCell(t, ts.URL, CellRequest{Workload: names[i]})
			replies <- reply{st, body}
		}()
	}
	waitFor(t, "slot occupied", func() bool { return stub.started.Load() == 1 })
	waitFor(t, "one queued", func() bool { return s.waiting.Load() == 1 })

	status, retryAfter, _ := postCell(t, ts.URL, CellRequest{Workload: names[2]})
	if status != http.StatusTooManyRequests {
		t.Fatalf("third cell got %d, want 429", status)
	}
	if retryAfter != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", retryAfter)
	}
	if got := s.rejectedFull.Load(); got != 1 {
		t.Fatalf("rejectedFull = %d, want 1", got)
	}

	close(stub.release)
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("admitted cell got %d: %s", r.status, r.body)
		}
	}
	if got := s.executions.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2", got)
	}
}

// TestQueuedDeadline pins that a request's deadline keeps ticking while
// it waits for a slot: a queued cell whose timeout_ms expires gets 504.
func TestQueuedDeadline(t *testing.T) {
	s := testServer(t, Options{MaxConcurrent: 1, MaxQueue: 4})
	stub := newBlockingStub(stubResult("stub", 7))
	s.runCell = stub.run
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	names := workload.Names()
	done := make(chan int, 1)
	go func() {
		st, _, _ := postCell(t, ts.URL, CellRequest{Workload: names[0]})
		done <- st
	}()
	waitFor(t, "slot occupied", func() bool { return stub.started.Load() == 1 })

	status, _, body := postCell(t, ts.URL, CellRequest{Workload: names[1], TimeoutMs: 50})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("queued cell got %d (%s), want 504", status, body)
	}
	close(stub.release)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("blocking cell got %d, want 200", st)
	}
}

// TestLastSubscriberCancelsExecution pins end-to-end cancellation: when
// every subscriber of a flight abandons it, the execution context is
// cancelled and the in-progress simulation stops.
func TestLastSubscriberCancelsExecution(t *testing.T) {
	s := testServer(t, Options{MaxConcurrent: 2, MaxQueue: 4})
	stub := newBlockingStub(stubResult("stub", 7))
	s.runCell = stub.run
	pc := &preparedCell{addr: "cell-B", series: "fdp24"}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.cell(ctx, pc)
		errc <- err
	}()
	waitFor(t, "execution start", func() bool { return stub.started.Load() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cell = %v, want context.Canceled", err)
	}
	// The flight must unwind (ctx branch of the stub) without a release.
	waitFor(t, "flight removal", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.flight) == 0
	})
	if got := s.cancelledReq.Load(); got != 1 {
		t.Fatalf("cancelledReq = %d, want 1", got)
	}
}

// TestAbandonedFlightNotJoinable is the regression test for a coalescing
// race surfaced by the ctxflow/lockdisc sweep: when the last subscriber
// leaves, awaitFlight cancels the flight, but the dying flight stays in
// the map until its lead goroutine unwinds. A request arriving in that
// window used to coalesce onto it and inherit a spurious context.Canceled
// for a cell that was never doomed. Abandoned flights must not be
// joinable: the late arrival starts a fresh flight and succeeds.
func TestAbandonedFlightNotJoinable(t *testing.T) {
	s := testServer(t, Options{MaxConcurrent: 2, MaxQueue: 4})
	pc := &preparedCell{addr: "cell-R", series: "fdp24"}

	cancelled := make(chan struct{})
	releaseFirst := make(chan struct{})
	var calls atomic.Int64
	s.runCell = func(ctx context.Context, _ *preparedCell) (experiment.CellResult, error) {
		if calls.Add(1) == 1 {
			// First flight: observe the last-out cancel, then keep its lead
			// goroutine (and so its map entry) alive until released.
			<-ctx.Done()
			close(cancelled)
			<-releaseFirst
			return experiment.CellResult{}, ctx.Err()
		}
		return stubResult("fresh", 7), nil
	}

	actx, abandon := context.WithCancel(context.Background())
	aErr := make(chan error, 1)
	go func() {
		_, err := s.cell(actx, pc)
		aErr <- err
	}()
	waitFor(t, "first execution", func() bool { return calls.Load() == 1 })
	abandon()
	if err := <-aErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning subscriber got %v, want context.Canceled", err)
	}
	<-cancelled // the dying flight is now parked, still occupying the map

	var bResp CellResponse
	bErr := make(chan error, 1)
	go func() {
		var err error
		bResp, err = s.cell(context.Background(), pc)
		bErr <- err
	}()
	// Before the fix this times out: B coalesces onto the dying flight and
	// no second execution ever starts.
	waitFor(t, "fresh flight for the late subscriber", func() bool { return calls.Load() == 2 })
	if err := <-bErr; err != nil {
		t.Fatalf("late subscriber inherited the dying flight: %v", err)
	}
	if bResp.Coalesced {
		t.Error("late subscriber reported Coalesced = true; it must have led a fresh flight")
	}
	if bResp.Config != "fresh" {
		t.Errorf("late subscriber got config %q, want the fresh flight's result", bResp.Config)
	}
	close(releaseFirst)
	waitFor(t, "flight map drained", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.flight) == 0
	})
}

// TestDrain pins graceful shutdown: draining rejects new work with
// 503 + Retry-After, flips /healthz, and a drain deadline cancels
// whatever is still executing.
func TestDrain(t *testing.T) {
	s := testServer(t, Options{MaxConcurrent: 2, MaxQueue: 4, RetryAfter: time.Second})
	stub := newBlockingStub(stubResult("stub", 7))
	s.runCell = stub.run
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	names := workload.Names()
	finished := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, _, _ := postCell(t, ts.URL, CellRequest{Workload: names[i]})
			finished <- st
		}()
	}
	waitFor(t, "both executing", func() bool { return stub.started.Load() == 2 })

	dctx, dcancel := context.WithCancel(context.Background())
	dcancel() // expired deadline: Drain must cancel the in-flight cells
	if err := s.Drain(dctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain = %v, want context.Canceled", err)
	}
	for i := 0; i < 2; i++ {
		if st := <-finished; st == http.StatusOK {
			t.Fatal("cancelled cell reported 200")
		}
	}

	status, retryAfter, _ := postCell(t, ts.URL, CellRequest{Workload: names[0]})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain cell got %d, want 503", status)
	}
	if retryAfter == "" {
		t.Fatal("post-drain 503 lacks Retry-After")
	}
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", hres.StatusCode)
	}
}

// TestDrainReleasesQueued is the regression test for queued work hanging
// across a drain: a request parked in the admission queue (slot taken,
// queue not full) used to stay parked until its own deadline when Drain
// began. It must instead resolve with a deterministic 503 + Retry-After
// the moment the drain starts, while the executing cell is allowed to
// finish normally.
func TestDrainReleasesQueued(t *testing.T) {
	s := testServer(t, Options{MaxConcurrent: 1, MaxQueue: 4, RetryAfter: 3 * time.Second})
	stub := newBlockingStub(stubResult("stub", 7))
	s.runCell = stub.run
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	names := workload.Names()
	executing := make(chan int, 1)
	go func() {
		st, _, _ := postCell(t, ts.URL, CellRequest{Workload: names[0]})
		executing <- st
	}()
	waitFor(t, "slot occupied", func() bool { return stub.started.Load() == 1 })

	type reply struct {
		status     int
		retryAfter string
	}
	queued := make(chan reply, 1)
	go func() {
		st, ra, _ := postCell(t, ts.URL, CellRequest{Workload: names[1]})
		queued <- reply{st, ra}
	}()
	waitFor(t, "one queued", func() bool { return s.waiting.Load() == 1 })

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()

	// The queued request must get its 503 promptly — the executing cell is
	// still blocked, so only the drain wake-up can have resolved it.
	select {
	case r := <-queued:
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("queued cell got %d during drain, want 503", r.status)
		}
		if r.retryAfter != "3" {
			t.Fatalf("queued 503 Retry-After = %q, want \"3\"", r.retryAfter)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request still parked after drain began")
	}
	if got := s.rejectedDrai.Load(); got != 1 {
		t.Fatalf("rejectedDrai = %d, want 1", got)
	}

	// The admitted cell finishes normally and the drain completes clean.
	close(stub.release)
	if st := <-executing; st != http.StatusOK {
		t.Fatalf("executing cell got %d, want 200", st)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	if got := s.executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (queued cell must not have run)", got)
	}
}

// TestDrainClean pins the happy path: with nothing in flight, Drain
// returns nil immediately.
func TestDrainClean(t *testing.T) {
	s := testServer(t, Options{})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
}

// TestCacheHitBypassesAdmission pins the warm fast path: a cached cell is
// answered even when every execution slot is taken, without executing.
func TestCacheHitBypassesAdmission(t *testing.T) {
	s := testServer(t, Options{MaxConcurrent: 1, MaxQueue: 1})
	warm := core.Stats{Config: "warm", Instructions: 99}
	want, err := warm.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s.probe = func(*preparedCell) (cellStats, bool, error) {
		cs, err := decodeStats(want)
		return cs, true, err
	}
	s.slots <- struct{}{} // all slots taken

	resp, err := s.cell(context.Background(), &preparedCell{addr: "cell-C", series: "fdp24"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("warm cell not marked cached")
	}
	if !bytes.Equal(resp.Stats, want) {
		t.Fatalf("cached stats bytes differ:\ngot:  %s\nwant: %s", resp.Stats, want)
	}
	if s.cacheHits.Load() != 1 || s.executions.Load() != 0 {
		t.Fatalf("hits %d executions %d, want 1 and 0", s.cacheHits.Load(), s.executions.Load())
	}
}

// TestPrepare covers request resolution: defaults, ablation sugar, the
// ablation↔sweep cache-identity contract, and rejection of nonsense. Every
// case is also resolved through the memo, which must give the same cell
// or error, and must neither keep a rejected request nor outgrow its
// bound.
func TestPrepare(t *testing.T) {
	s := testServer(t, Options{})
	name := workload.Names()[0]
	memoLen := func() int {
		s.memoMu.Lock()
		defer s.memoMu.Unlock()
		return len(s.memo)
	}
	prep := func(req CellRequest) (*preparedCell, error) {
		t.Helper()
		pc, err := s.prepare(req)
		n := memoLen()
		mc, merr := s.prepareMemo(req)
		if err != nil {
			if merr == nil || merr.Error() != err.Error() {
				t.Fatalf("%+v: prepare error %v, memoized %v", req, err, merr)
			}
			if memoLen() != n {
				t.Fatalf("%+v: rejected request memoized", req)
			}
			return nil, err
		}
		if merr != nil {
			t.Fatalf("%+v: memoized error %v", req, merr)
		}
		if mc.addr != pc.addr || mc.spec.Name != pc.spec.Name || mc.series != pc.series || mc.config != pc.config {
			t.Fatalf("%+v: memoized cell %s %s/%s/%s, prepared %s %s/%s/%s", req,
				mc.addr, mc.spec.Name, mc.series, mc.config, pc.addr, pc.spec.Name, pc.series, pc.config)
		}
		return pc, nil
	}

	pc, err := prep(CellRequest{Workload: name})
	if err != nil {
		t.Fatal(err)
	}
	if pc.series != "fdp24" || pc.addr == "" {
		t.Fatalf("default cell: series %q addr %q", pc.series, pc.addr)
	}

	pc, err = prep(CellRequest{Workload: name, Ablation: "ftq4"})
	if err != nil {
		t.Fatal(err)
	}
	if pc.series != "" || pc.config != "ftq4" {
		t.Fatalf("ftq4 cell: series %q config %q", pc.series, pc.config)
	}
	// The override cell must be addressed exactly as the FTQ-depth
	// ablation sweep addresses its ftq4 machine.
	sweepFTQ4 := core.DefaultConfig()
	sweepFTQ4.Name = "ftq4"
	sweepFTQ4.Frontend.FTQEntries = 4
	cell, err := experiment.ConfigCell(pc.spec, sweepFTQ4, s.base)
	if err != nil {
		t.Fatal(err)
	}
	if pc.addr != cell.Address() {
		t.Fatalf("ftq4 address %s != sweep-identity address %s", pc.addr, cell.Address())
	}

	// The next-line override cell is the machine the experiment package's
	// TestPrefetcherAddressGolden pins.
	pc, err = prep(CellRequest{Workload: name, Ablation: "nextline"})
	if err != nil {
		t.Fatal(err)
	}
	nextLine := core.DefaultConfig()
	nextLine.Name += "+nextline"
	nextLine.Frontend.Prefetcher = hwpf.NextLineConfig{Degree: 2}
	if cell, err = experiment.ConfigCell(pc.spec, nextLine, s.base); err != nil {
		t.Fatal(err)
	}
	if pc.config != nextLine.Name || pc.addr != cell.Address() {
		t.Fatalf("nextline cell %s at %s, want %s at %s", pc.config, pc.addr, nextLine.Name, cell.Address())
	}

	pc, err = prep(CellRequest{Workload: name, Ablation: "eip"})
	if err != nil {
		t.Fatal(err)
	}
	if pc.series != "eip+fdp24" {
		t.Fatalf("eip ablation resolved to series %q, want eip+fdp24", pc.series)
	}

	if _, err := prep(CellRequest{Workload: "no-such-workload"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := prep(CellRequest{Workload: name, Ablation: "warp-drive"}); err == nil {
		t.Fatal("unknown ablation accepted")
	}
	if _, err := prep(CellRequest{Workload: name, Series: "cons", FTQ: 8}); err == nil {
		t.Fatal("series+override conflict accepted")
	}
	if _, err := prep(CellRequest{Workload: name, Series: "not-a-series"}); err == nil {
		t.Fatal("unknown series accepted")
	}

	// Budgets, sampling fields and timeouts are validated, never dropped
	// in favor of the defaults or an exact run.
	for _, bad := range []CellRequest{
		{Workload: name, WarmupInstrs: -5},
		{Workload: name, MeasureInstrs: -1},
		{Workload: name, ProfileInstrs: -1},
		{Workload: name, SamplingDetail: 3_000},
		{Workload: name, SamplingInterval: -30_000, SamplingDetail: 3_000},
		{Workload: name, TimeoutMs: -1},
	} {
		if _, err := prep(bad); err == nil {
			t.Errorf("prepare accepted %+v", bad)
		}
	}

	// A request's deadline is not part of its identity.
	n := memoLen()
	first, err := s.prepareMemo(CellRequest{Workload: name, Series: "cons", TimeoutMs: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, timeout := range []int64{0, 9_000} {
		if pc, err := s.prepareMemo(CellRequest{Workload: name, Series: "cons", TimeoutMs: timeout}); err != nil || pc != first {
			t.Fatalf("timeout_ms %d: memoized %p (%v), want the entry %p", timeout, pc, err, first)
		}
	}
	if got := memoLen(); got != n+1 {
		t.Fatalf("three timeouts of one request made %d memo entries, want 1", got-n)
	}
	for i := 0; i <= memoBound; i++ {
		if _, err := s.prepareMemo(CellRequest{Workload: name, WarmupInstrs: int64(10_000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := memoLen(); got > memoBound {
		t.Fatalf("memo holds %d entries, bound %d", got, memoBound)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, bad := range []SuiteRequest{
		{Workloads: []string{name}, WarmupInstrs: -5},
		{Workloads: []string{name}, SamplingDetail: 3_000},
		{Workloads: []string{name}, TimeoutMs: -1},
	} {
		b, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.Post(ts.URL+"/v1/suite", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("suite %+v got %d, want 400", bad, res.StatusCode)
		}
	}
}

// TestServedCellMatchesExperiment is the end-to-end byte-identity pin: a
// cell served over HTTP (real execution, no stubs) is byte-identical to
// the same cell produced directly by the experiment harness, the repeat
// request is a cache hit with identical bytes, and /metrics reflects all
// of it.
func TestServedCellMatchesExperiment(t *testing.T) {
	p := experiment.DefaultParams()
	p.WarmupInstrs = 20_000
	p.MeasureInstrs = 60_000
	p.ProfileInstrs = 80_000
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Params: p, Cache: cache, Workers: 2, MaxConcurrent: 2, MaxQueue: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := workload.All()[0]
	req := CellRequest{Workload: spec.Name, Series: "fdp24"}

	status, _, body := postCell(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("cold cell got %d: %s", status, body)
	}
	var cold CellResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("cold cell reported cached")
	}

	// Reference: the same cell via the experiment harness, its own cache.
	ref := p
	ref.Cache, err = runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.NewPool(2)
	defer pool.Close()
	direct, err := experiment.RunCellCtx(context.Background(), pool, spec, "fdp24", ref)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Stats.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Stats, want) {
		t.Fatalf("served cell diverged from experiment harness:\nserved: %s\ndirect: %s", cold.Stats, want)
	}
	if cold.Fingerprint != direct.Fingerprint {
		t.Fatalf("served fingerprint %s != direct %s", cold.Fingerprint, direct.Fingerprint)
	}

	// Repeat: answered from the cache, byte-identical.
	status, _, body = postCell(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("warm cell got %d: %s", status, body)
	}
	var warm CellResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat request missed the cache")
	}
	if !bytes.Equal(warm.Stats, cold.Stats) {
		t.Fatal("warm and cold bytes differ")
	}

	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(mres.Body)
	mres.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		`simd_cells_total{source="cache"} 1`,
		`simd_requests_total 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics lack %q:\n%s", want, metrics)
		}
	}

	wres, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer wres.Body.Close()
	var wl struct {
		Workloads []string `json:"workloads"`
		Series    []string `json:"series"`
	}
	if err := json.NewDecoder(wres.Body).Decode(&wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Workloads) == 0 || len(wl.Series) != len(experiment.SeriesLabels()) {
		t.Fatalf("workloads endpoint: %d workloads, %d series", len(wl.Workloads), len(wl.Series))
	}

	checkEverySeries(t, s, ts.URL, req)
}

// checkEverySeries requests every series of base's workload, with base's
// budgets and sampling, twice: the first answer (cold unless the series
// is base's own, which the caller warmed) and the warm second one must
// each be byte-identical to the body built the old way (legacyBody).
func checkEverySeries(t *testing.T, s *Server, url string, base CellRequest) {
	t.Helper()
	for _, series := range experiment.SeriesLabels() {
		req := base
		req.Series = series
		for i, wantCached := range []bool{series == base.Series, true} {
			status, _, body := postCell(t, url, req)
			if status != http.StatusOK {
				t.Fatalf("%s request %d got %d: %s", series, i, status, body)
			}
			var resp CellResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Cached != wantCached {
				t.Fatalf("%s request %d: cached %v, want %v", series, i, resp.Cached, wantCached)
			}
			if want := legacyBody(t, s, req, resp.Cached); !bytes.Equal(body, want) {
				t.Fatalf("%s request %d: body differs from the full-decode body:\ngot:  %s\nwant: %s", series, i, body, want)
			}
		}
	}
}

// legacyBody is the body of a cell answer built the way it was before
// responses embedded the stored stats bytes: the run-cache entry read
// with a full decode of its envelope and of its Stats, then
// CanonicalJSON and the headline metrics of the decoded Stats.
func legacyBody(t *testing.T, s *Server, req CellRequest, cached bool) []byte {
	t.Helper()
	pc, err := s.prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(s.opts.Cache.Dir(), pc.addr[:2], pc.addr+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var st core.Stats
	if err := json.Unmarshal(env.Value, &st); err != nil {
		t.Fatal(err)
	}
	b, err := st.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp := CellResponse{Workload: pc.spec.Name, Series: pc.series, Config: pc.config, Fingerprint: pc.addr,
		Cached: cached, IPC: st.IPC(), L1IMPKI: st.L1IMPKI(), Stats: b}
	if resp.Config == "" {
		resp.Config = st.Config
	}
	if sp := st.Sampling; sp != nil {
		if hw := sp.IPCCI95(); !math.IsInf(hw, 1) {
			resp.IPCCI95 = hw
		}
		resp.SamplingWindows = sp.Windows
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServedCorruptEntryIsRecomputed puts entries that are not byte-exact
// to the run cache's format, or whose stats do not decode, at a warm
// cell's path: each request is a miss that the cache counts, the cell is
// simulated again, and the answer is the cold run's, byte for byte. The
// EIP and MANA series pin that a recomputed cell starts from untrained
// prefetcher tables although its request was resolved before.
func TestServedCorruptEntryIsRecomputed(t *testing.T) {
	p := experiment.DefaultParams()
	p.WarmupInstrs = 20_000
	p.MeasureInstrs = 60_000
	p.ProfileInstrs = 80_000
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Params: p, Cache: cache, Workers: 2, MaxConcurrent: 2, MaxQueue: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := workload.All()[0]
	entryPath := func(r CellRequest) string {
		pc, err := s.prepare(r)
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Join(cache.Dir(), pc.addr[:2], pc.addr+".json")
	}
	consReq := CellRequest{Workload: spec.Name, Series: "cons"}
	if status, _, body := postCell(t, ts.URL, consReq); status != http.StatusOK {
		t.Fatalf("cons cell got %d: %s", status, body)
	}
	other, err := os.ReadFile(entryPath(consReq))
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"fdp24", "eip+fdp24", "mana+fdp24"} {
		req := CellRequest{Workload: spec.Name, Series: series}
		status, _, cold := postCell(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("cold %s cell got %d: %s", series, status, cold)
		}
		path := entryPath(req)
		entry, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		split := bytes.Index(entry, []byte(`,"value":`)) + len(`,"value":`)
		prefix, value := entry[:split], entry[split:len(entry)-1]
		var indented bytes.Buffer
		if err := json.Indent(&indented, entry, "", " "); err != nil {
			t.Fatal(err)
		}
		join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
		cases := []struct {
			name  string
			bytes []byte
		}{
			{"another key's entry", other},
			{"truncated value", join(prefix, value[:len(value)/2], []byte("}"))},
			{"bytes after the closing brace", join(entry, []byte("\n"))},
			{"reformatted envelope", indented.Bytes()},
			{"stats that do not decode", join(prefix, []byte(`{"Cycles":"many"}}`))},
		}
		for _, tc := range cases {
			if err := os.WriteFile(path, tc.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			before, runs := cache.Metrics(), s.executions.Load()
			status, _, body := postCell(t, ts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("%s, %s: got %d: %s", series, tc.name, status, body)
			}
			if !bytes.Equal(body, cold) {
				t.Fatalf("%s, %s: answer differs from the cold run's:\ngot:  %s\nwant: %s", series, tc.name, body, cold)
			}
			// One miss on the fast path, one when the flight probes again.
			want := runner.Metrics{Hits: before.Hits, Misses: before.Misses + 2, Puts: before.Puts + 1}
			if got := cache.Metrics(); got != want || s.executions.Load() != runs+1 {
				t.Fatalf("%s, %s: cache %+v and %d executions, want %+v and %d", series, tc.name, got, s.executions.Load(), want, runs+1)
			}
		}
	}
}

// TestSuiteEndpoint drives /v1/suite over stubbed execution: request
// order is preserved and duplicate cells coalesce.
func TestSuiteEndpoint(t *testing.T) {
	s := testServer(t, Options{MaxConcurrent: 2, MaxQueue: 16})
	var n atomic.Int64
	s.runCell = func(_ context.Context, pc *preparedCell) (experiment.CellResult, error) {
		n.Add(1)
		return stubResult(pc.series, int64(len(pc.spec.Name))), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	names := workload.Names()[:3]
	b, err := json.Marshal(SuiteRequest{Workloads: names, Series: []string{"fdp24", "cons"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/suite", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("suite got %d: %s", res.StatusCode, body)
	}
	var sr SuiteResponse
	if err := json.NewDecoder(res.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != 6 {
		t.Fatalf("suite returned %d cells, want 6", len(sr.Cells))
	}
	for i, cell := range sr.Cells {
		wantWL, wantSeries := names[i/2], []string{"fdp24", "cons"}[i%2]
		if cell.Workload != wantWL || cell.Series != wantSeries {
			t.Fatalf("cell %d is %s/%s, want %s/%s", i, cell.Workload, cell.Series, wantWL, wantSeries)
		}
	}
	if got := n.Load(); got != 6 {
		t.Fatalf("suite executed %d cells, want 6", got)
	}
}

// TestServedSuiteBodies pins /v1/suite bodies with real execution: every
// series of two workloads, exact and sampled, cold and then warm. Each
// body must be exactly what json.NewEncoder writes for the SuiteResponse
// it decodes to, and a warm body must carry the cold one's stats.
func TestServedSuiteBodies(t *testing.T) {
	p := experiment.DefaultParams()
	p.WarmupInstrs = 20_000
	p.MeasureInstrs = 60_000
	p.ProfileInstrs = 80_000
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Params: p, Cache: cache, Workers: 2, MaxConcurrent: 2, MaxQueue: 64})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	series := experiment.SeriesLabels()
	exact := SuiteRequest{Workloads: workload.Names()[:2], Series: series}
	sampled := exact
	sampled.MeasureInstrs, sampled.SamplingInterval, sampled.SamplingDetail, sampled.SamplingWarm = 300_000, 30_000, 3_000, 6_000
	for _, req := range []SuiteRequest{exact, sampled} {
		var cold SuiteResponse
		for pass, warm := range []bool{false, true} {
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			res, err := http.Post(ts.URL+"/v1/suite", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if res.StatusCode != http.StatusOK {
				t.Fatalf("sampling %d pass %d got %d: %s", req.SamplingInterval, pass, res.StatusCode, body)
			}
			var sr SuiteResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(sr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("sampling %d pass %d: body is not the encoder's:\ngot:  %s\nwant: %s", req.SamplingInterval, pass, body, want.Bytes())
			}
			if len(sr.Cells) != len(req.Workloads)*len(series) {
				t.Fatalf("sampling %d pass %d: %d cells", req.SamplingInterval, pass, len(sr.Cells))
			}
			if !warm {
				cold = sr
				continue
			}
			for i, c := range sr.Cells {
				if !c.Cached || !bytes.Equal(c.Stats, cold.Cells[i].Stats) {
					t.Fatalf("sampling %d: warm %s/%s cached %v, stats equal to the cold answer's %v",
						req.SamplingInterval, c.Workload, c.Series, c.Cached, bytes.Equal(c.Stats, cold.Cells[i].Stats))
				}
			}
		}
	}
}

// FuzzServedBody checks the answer writer against the encoder: for any
// header strings, finite headline numbers and stats in CanonicalJSON form,
// cellBody and suiteBody write exactly what json.NewEncoder writes.
func FuzzServedBody(f *testing.F) {
	f.Add("public_srv_60", "fdp24", "", "4f2a", "fdp24", true, false, 1.25, 10.5, 0.0, int64(0))
	f.Add(`"q"\`, "<s>&\u2028", "\xff\xfe", "\u2029&amp;", "a\"<b>&\u2028\xc3", false, true, -0.0, 1e300, 5e-324, int64(-7))
	f.Fuzz(func(t *testing.T, wl, series, config, fp, statsConfig string, cached, coalesced bool, ipc, mpki, ci95 float64, windows int64) {
		for _, x := range []float64{ipc, mpki, ci95} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("the encoder rejects non-finite numbers")
			}
		}
		st := core.Stats{Config: statsConfig, Cycles: windows, Instructions: 3 * windows}
		if windows%2 == 0 {
			st.Sampling = &core.SamplingStats{Windows: windows}
		}
		stats, err := st.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		resp := CellResponse{Workload: wl, Series: series, Config: config, Fingerprint: fp, Cached: cached,
			Coalesced: coalesced, IPC: ipc, L1IMPKI: mpki, IPCCI95: ci95, SamplingWindows: windows, Stats: stats}
		for _, tc := range []struct {
			v     any
			write func() ([]byte, error)
		}{
			{resp, func() ([]byte, error) { return cellBody(resp) }},
			{SuiteResponse{Cells: []CellResponse{resp, resp}}, func() ([]byte, error) { return suiteBody([]CellResponse{resp, resp}) }},
		} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(tc.v); err != nil {
				t.Fatal(err)
			}
			got, err := tc.write()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("body differs from the encoder's:\ngot:  %q\nwant: %q", got, want.Bytes())
			}
		}
	})
}

// TestServedCellSampling pins the sampled run mode over HTTP with real
// execution: a cell requested with sampling geometry reports ipc_ci95
// and sampling_windows, addresses a cache identity disjoint from the
// exact cell's, and an invalid geometry is rejected with 400 before
// anything executes.
func TestServedCellSampling(t *testing.T) {
	p := experiment.DefaultParams()
	p.WarmupInstrs = 20_000
	p.MeasureInstrs = 300_000
	p.ProfileInstrs = 80_000
	cache, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Params: p, Cache: cache, Workers: 2, MaxConcurrent: 2, MaxQueue: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := workload.All()[0]
	exactReq := CellRequest{Workload: spec.Name, Series: "fdp24"}
	sampReq := CellRequest{Workload: spec.Name, Series: "fdp24",
		SamplingInterval: 30_000, SamplingDetail: 3_000, SamplingWarm: 6_000}

	status, _, body := postCell(t, ts.URL, exactReq)
	if status != http.StatusOK {
		t.Fatalf("exact cell got %d: %s", status, body)
	}
	var exact CellResponse
	if err := json.Unmarshal(body, &exact); err != nil {
		t.Fatal(err)
	}
	if exact.IPCCI95 != 0 || exact.SamplingWindows != 0 {
		t.Fatalf("exact cell reported sampling fields: %+v", exact)
	}

	status, _, body = postCell(t, ts.URL, sampReq)
	if status != http.StatusOK {
		t.Fatalf("sampled cell got %d: %s", status, body)
	}
	var samp CellResponse
	if err := json.Unmarshal(body, &samp); err != nil {
		t.Fatal(err)
	}
	if samp.SamplingWindows == 0 || samp.IPCCI95 <= 0 {
		t.Fatalf("sampled cell lacks sampling fields: %+v", samp)
	}
	if samp.Fingerprint == exact.Fingerprint {
		t.Fatalf("sampled and exact cells share cache identity %s", samp.Fingerprint)
	}
	if samp.IPC <= 0 {
		t.Fatalf("sampled IPC %v", samp.IPC)
	}

	// Geometry where warm+detail exceeds the interval: rejected up front.
	bad := CellRequest{Workload: spec.Name, Series: "fdp24",
		SamplingInterval: 5_000, SamplingDetail: 3_000, SamplingWarm: 6_000}
	status, _, body = postCell(t, ts.URL, bad)
	if status != http.StatusBadRequest {
		t.Fatalf("invalid sampling geometry got %d: %s", status, body)
	}
	if got := s.executions.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (bad request must not run)", got)
	}

	checkEverySeries(t, s, ts.URL, sampReq)
}
