// Package serve is the simulation-as-a-service layer: a long-running
// HTTP/JSON front-end over the experiment harness that answers
// simulation-cell and suite requests from the content-addressed run cache
// and executes misses on a runner.Pool with
//
//   - request coalescing: concurrent requests for the same cell
//     fingerprint collapse into one simulation with N subscribers
//     (singleflight), so a thundering herd of identical sweeps costs one
//     execution;
//   - bounded admission: at most MaxConcurrent cells execute at once and
//     at most MaxQueue wait; beyond that the server sheds load with
//     429 + Retry-After instead of queueing unboundedly, and a request's
//     deadline keeps ticking while it waits for a slot;
//   - end-to-end cancellation: an abandoned request (client gone, deadline
//     hit) cancels its subscription; when a cell's last subscriber leaves,
//     the execution context is cancelled, the scheduler join aborts queued
//     jobs (runner.Group.WaitCtx) and the cycle loop stops at the next
//     jump boundary (core.RunCtx) — a cancelled cell is never written to
//     the cache;
//   - graceful drain: Drain stops admission (503 for new work), lets
//     in-flight cells finish until the drain deadline, then cancels
//     whatever remains.
//
// Results are byte-identical to cmd/experiments for the same fingerprint:
// cells are produced by the same experiment-package execution path and
// cached under the same keys, and responses embed the stats'
// CanonicalJSON verbatim.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"frontsim/internal/asmdb"
	"frontsim/internal/core"
	"frontsim/internal/experiment"
	"frontsim/internal/hwpf"
	"frontsim/internal/obs"
	"frontsim/internal/runner"
	"frontsim/internal/workload"
)

// Options configures a Server. The zero value of every field has a usable
// default.
type Options struct {
	// Params supplies the default instruction budgets and AsmDB tuning;
	// zero-valued fields fall back to experiment.DefaultParams.
	Params experiment.Params
	// Cache is the content-addressed run cache (nil: always-miss).
	Cache *runner.Cache
	// Workers bounds the scheduler pool (<=0: GOMAXPROCS).
	Workers int
	// MaxConcurrent bounds cells executing simultaneously (<=0: Workers).
	MaxConcurrent int
	// MaxQueue bounds cells waiting for an execution slot (<=0: 64).
	// Requests beyond it receive 429 with a Retry-After hint.
	MaxQueue int
	// RetryAfter is the hint returned with 429/503 (<=0: 1s).
	RetryAfter time.Duration
}

// Server implements the service. Create with New, mount via Handler, stop
// with Drain followed by Close.
type Server struct {
	opts  Options
	base  experiment.Params
	pool  *runner.Pool
	mux   *http.ServeMux
	slots chan struct{}

	waiting   atomic.Int64 // requests queued for an execution slot
	draining  atomic.Bool
	drainCh   chan struct{} // closed when Drain begins: queued admissions bail with errDraining
	drainOnce sync.Once
	inflight  sync.WaitGroup // admitted HTTP requests

	mu     sync.Mutex
	flight map[string]*flight

	// Counters exported at /metrics.
	requests     atomic.Int64 // cell requests accepted for processing
	cacheHits    atomic.Int64 // answered from the run cache, no flight
	executions   atomic.Int64 // flights actually led (simulations started)
	coalesced    atomic.Int64 // requests that subscribed to an existing flight
	rejectedFull atomic.Int64 // 429: admission queue full
	rejectedDrai atomic.Int64 // 503: draining
	cancelledReq atomic.Int64 // subscriptions abandoned before completion
	failed       atomic.Int64 // cells that returned an error

	// runCell and probe are the execution and cache-lookup seams; tests
	// stub them to make admission and coalescing deterministic.
	// Production: run/probe a real cell.
	runCell func(ctx context.Context, pc *preparedCell) (experiment.CellResult, error)
	probe   func(pc *preparedCell) (core.Stats, bool, error)
}

// flight is one in-progress cell execution with its subscriber set.
type flight struct {
	done      chan struct{}
	res       experiment.CellResult
	err       error
	subs      int  // guarded by Server.mu
	abandoned bool // last subscriber left and cancel was fired; guarded by Server.mu
	cancel    context.CancelFunc
}

// New builds a Server. Close releases its pool.
func New(opts Options) *Server {
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	pool := runner.NewPool(opts.Workers)
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = pool.Workers()
	}
	def := experiment.DefaultParams()
	p := opts.Params
	if p.WarmupInstrs <= 0 {
		p.WarmupInstrs = def.WarmupInstrs
	}
	if p.MeasureInstrs <= 0 {
		p.MeasureInstrs = def.MeasureInstrs
	}
	if p.ProfileInstrs <= 0 {
		p.ProfileInstrs = def.ProfileInstrs
	}
	if p.AsmDB == (asmdb.Options{}) {
		p.AsmDB = def.AsmDB
	}
	if p.ExecSeedSalt == 0 {
		p.ExecSeedSalt = def.ExecSeedSalt
	}
	p.FastForward = true
	p.Cache = opts.Cache
	s := &Server{
		opts:    opts,
		base:    p,
		pool:    pool,
		slots:   make(chan struct{}, opts.MaxConcurrent),
		drainCh: make(chan struct{}),
		flight:  make(map[string]*flight),
	}
	s.runCell = s.executeCell
	s.probe = s.probeCell
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/cell", s.handleCell)
	s.mux.HandleFunc("POST /v1/suite", s.handleSuite)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close releases the scheduler pool. Call after Drain.
func (s *Server) Close() { s.pool.Close() }

// Drain performs the graceful-shutdown sequence: stop admitting (new
// requests get 503 + Retry-After), wait for in-flight requests to finish,
// and — if ctx expires first — cancel every remaining flight and wait for
// the (now fast) unwind. It returns ctx.Err() when the deadline forced
// cancellations, nil for a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	// Wake every request still waiting in the admission queue: a drain
	// must hand them a deterministic 503 now, not leave them parked until
	// their own queue deadline.
	s.drainOnce.Do(func() { close(s.drainCh) })
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, f := range s.flight {
		f.cancel()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// --- request/response types ---------------------------------------------

// CellRequest asks for one simulation cell. Series selects one of the
// suite's ten per-workload series (experiment.SeriesLabels; default
// "fdp24"); alternatively, config overrides (FTQ, DecodeWidth, NoPFC,
// HwPrefetcher) or a named Ablation variant run the workload's unmodified
// program under a modified industry-standard configuration, cached under
// the same identity an ablation sweep of that configuration uses.
type CellRequest struct {
	Workload string `json:"workload"`
	Series   string `json:"series,omitempty"`

	// Ablation names a config variant: "ftq<N>" (FTQ depth sweep),
	// "nopfc" (post-fetch correction off), "eip"/"nextline" (hardware
	// prefetcher). Sugar over the explicit overrides below.
	Ablation string `json:"ablation,omitempty"`

	FTQ          int    `json:"ftq,omitempty"`
	DecodeWidth  int    `json:"decode_width,omitempty"`
	NoPFC        bool   `json:"no_pfc,omitempty"`
	HwPrefetcher string `json:"hwpf,omitempty"`

	WarmupInstrs  int64 `json:"warmup_instrs,omitempty"`
	MeasureInstrs int64 `json:"measure_instrs,omitempty"`
	ProfileInstrs int64 `json:"profile_instrs,omitempty"`

	// SamplingInterval > 0 selects SMARTS-style sampled simulation with
	// the given unit period; SamplingDetail and SamplingWarm set the
	// measured-window and detailed-warm-up lengths (core.SamplingConfig).
	// Sampling is part of the config fingerprint, so sampled cells never
	// share cache entries with exact ones.
	SamplingInterval int64 `json:"sampling_interval,omitempty"`
	SamplingDetail   int64 `json:"sampling_detail,omitempty"`
	SamplingWarm     int64 `json:"sampling_warm,omitempty"`

	// TimeoutMs bounds the whole request, queue wait included.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// CellResponse is one completed cell. Stats is the core.Stats
// CanonicalJSON — byte-identical to the run cache entry and to what
// cmd/experiments computes for the same fingerprint.
type CellResponse struct {
	Workload    string  `json:"workload"`
	Series      string  `json:"series,omitempty"`
	Config      string  `json:"config"`
	Fingerprint string  `json:"fingerprint"`
	Cached      bool    `json:"cached"`
	Coalesced   bool    `json:"coalesced"`
	IPC         float64 `json:"ipc"`
	L1IMPKI     float64 `json:"l1i_mpki"`
	// Sampled cells additionally report the 95% confidence half-width on
	// the IPC estimate and the number of measured windows behind it.
	IPCCI95         float64         `json:"ipc_ci95,omitempty"`
	SamplingWindows int64           `json:"sampling_windows,omitempty"`
	Stats           json.RawMessage `json:"stats"`
}

// SuiteRequest asks for a grid of cells: every listed workload under
// every listed series (defaults: all 48 workloads, series ["fdp24"]).
// Each cell flows through the same coalescing and admission machinery as
// a single-cell request.
type SuiteRequest struct {
	Workloads []string `json:"workloads,omitempty"`
	Series    []string `json:"series,omitempty"`

	WarmupInstrs  int64 `json:"warmup_instrs,omitempty"`
	MeasureInstrs int64 `json:"measure_instrs,omitempty"`
	ProfileInstrs int64 `json:"profile_instrs,omitempty"`

	SamplingInterval int64 `json:"sampling_interval,omitempty"`
	SamplingDetail   int64 `json:"sampling_detail,omitempty"`
	SamplingWarm     int64 `json:"sampling_warm,omitempty"`

	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// SuiteResponse preserves request order: cell i×j is Cells[i*len(Series)+j].
type SuiteResponse struct {
	Cells []CellResponse `json:"cells"`
}

// errorBody is the JSON error payload.
type errorBody struct {
	Error string `json:"error"`
}

// --- request resolution --------------------------------------------------

// preparedCell is a fully-resolved cell request: workload, execution
// parameters, and either a suite series or an explicit configuration.
type preparedCell struct {
	spec   workload.Spec
	series string      // non-empty: suite series cell
	config core.Config // series == "": config-override cell
	params experiment.Params
	addr   string
}

func (s *Server) prepare(req CellRequest) (*preparedCell, error) {
	spec, ok := workload.Lookup(req.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", req.Workload)
	}
	p := s.base
	if req.WarmupInstrs > 0 {
		p.WarmupInstrs = req.WarmupInstrs
	}
	if req.MeasureInstrs > 0 {
		p.MeasureInstrs = req.MeasureInstrs
	}
	if req.ProfileInstrs > 0 {
		p.ProfileInstrs = req.ProfileInstrs
	}
	if req.SamplingInterval > 0 {
		p.Sampling = core.SamplingConfig{
			IntervalInstrs: req.SamplingInterval,
			DetailInstrs:   req.SamplingDetail,
			WarmInstrs:     req.SamplingWarm,
		}
		if err := p.Sampling.Validate(); err != nil {
			return nil, err
		}
	}
	pc := &preparedCell{spec: spec, params: p}

	if err := applyAblation(&req); err != nil {
		return nil, err
	}
	if req.FTQ != 0 || req.DecodeWidth != 0 || req.NoPFC || req.HwPrefetcher != "" {
		if req.Series != "" {
			return nil, fmt.Errorf("series %q and config overrides are mutually exclusive", req.Series)
		}
		c, err := overrideConfig(req, p)
		if err != nil {
			return nil, err
		}
		pc.config = c
		addr, err := experiment.ConfigCellAddress(spec, c, p)
		if err != nil {
			return nil, err
		}
		pc.addr = addr
		return pc, nil
	}

	series := req.Series
	if series == "" {
		series = "fdp24"
	}
	addr, err := experiment.CellAddress(spec, series, p)
	if err != nil {
		return nil, err
	}
	pc.series = series
	pc.addr = addr
	return pc, nil
}

// applyAblation expands a named ablation into explicit overrides (or, for
// "eip", the suite series that already covers it), preserving the cache
// identity the corresponding ablation sweep uses.
func applyAblation(req *CellRequest) error {
	switch a := req.Ablation; {
	case a == "":
		return nil
	case a == "nopfc":
		req.NoPFC = true
	case a == "eip":
		if req.Series != "" && req.Series != "eip+fdp24" {
			return fmt.Errorf("ablation eip conflicts with series %q", req.Series)
		}
		req.Series = "eip+fdp24"
	case a == "nextline":
		req.HwPrefetcher = a
	case len(a) > 3 && a[:3] == "ftq":
		n, err := strconv.Atoi(a[3:])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad ablation %q: want ftq<N>", a)
		}
		req.FTQ = n
	default:
		return fmt.Errorf("unknown ablation %q (want ftq<N>, nopfc, eip, nextline)", a)
	}
	return nil
}

// overrideConfig builds the modified industry-standard configuration for
// explicit config overrides. Config.Name feeds the fingerprint, so names
// deliberately mirror the ablation sweeps — "ftq<N>" for FTQ depth, and
// the unchanged base name for post-fetch-correction toggles (A3 keeps it
// too) — so a served override cell and the sweep's cell for the same
// machine share one cache entry.
func overrideConfig(req CellRequest, p experiment.Params) (core.Config, error) {
	c := core.DefaultConfig()
	c.WarmupInstrs, c.MaxInstrs = p.WarmupInstrs, p.MeasureInstrs
	c.FastForward = true
	c.Sampling = p.Sampling
	if req.FTQ != 0 {
		c.Name = fmt.Sprintf("ftq%d", req.FTQ)
		c.Frontend.FTQEntries = req.FTQ
	}
	if req.DecodeWidth != 0 {
		c.Name += fmt.Sprintf("+dw%d", req.DecodeWidth)
		c.DecodeWidth = req.DecodeWidth
	}
	if req.NoPFC {
		c.Frontend.EnablePFC = false
	}
	switch req.HwPrefetcher {
	case "":
	case "nextline":
		c.Name += "+nextline"
		c.Frontend.Prefetcher = hwpf.NewNextLine(2)
	case "eip":
		c.Name += "+eip"
		eip, err := hwpf.NewEIP(hwpf.DefaultEIPConfig())
		if err != nil {
			return c, err
		}
		c.Frontend.Prefetcher = eip
	default:
		return c, fmt.Errorf("unknown hwpf %q (want nextline or eip)", req.HwPrefetcher)
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// executeCell is the production runCell: the flight leader's simulation.
func (s *Server) executeCell(ctx context.Context, pc *preparedCell) (experiment.CellResult, error) {
	if pc.series != "" {
		return experiment.RunCellCtx(ctx, s.pool, pc.spec, pc.series, pc.params)
	}
	return experiment.RunConfigCellCtx(ctx, s.pool, pc.spec, pc.config, pc.params)
}

// probeCell is the cache fast path: no admission, no flight.
func (s *Server) probeCell(pc *preparedCell) (core.Stats, bool, error) {
	if pc.series != "" {
		st, _, ok, err := experiment.ProbeCell(pc.spec, pc.series, pc.params)
		return st, ok, err
	}
	st, _, ok, err := experiment.ProbeConfigCell(pc.spec, pc.config, pc.params)
	return st, ok, err
}

// --- core cell flow ------------------------------------------------------

// httpError carries a status code (and optional Retry-After) to the edge.
type httpError struct {
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *httpError) Error() string { return e.msg }

var (
	errQueueFull = errors.New("serve: admission queue full")
	errDraining  = errors.New("serve: draining")
)

// cell answers one prepared cell request under ctx, coalescing with
// concurrent identical requests.
func (s *Server) cell(ctx context.Context, pc *preparedCell) (CellResponse, error) {
	s.requests.Add(1)
	resp := CellResponse{Workload: pc.spec.Name, Series: pc.series, Fingerprint: pc.addr}
	if pc.series == "" {
		resp.Config = pc.config.Name
	}

	// Cache fast path: warm cells are answered without touching admission.
	if st, ok, err := s.probe(pc); err != nil {
		s.failed.Add(1)
		return resp, err
	} else if ok {
		s.cacheHits.Add(1)
		resp.Cached = true
		return finishCell(resp, st)
	}

	res, coalesced, err := s.joinFlight(ctx, pc)
	if err != nil {
		// Execution failures are counted once, by the flight leader; here
		// only this subscriber's own abandonment is.
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			s.cancelledReq.Add(1)
		}
		return resp, err
	}
	resp.Cached = res.Cached
	resp.Coalesced = coalesced
	return finishCell(resp, res.Stats)
}

// finishCell embeds the stats' canonical bytes and headline metrics.
func finishCell(resp CellResponse, st core.Stats) (CellResponse, error) {
	if resp.Config == "" {
		resp.Config = st.Config
	}
	b, err := st.CanonicalJSON()
	if err != nil {
		return resp, err
	}
	resp.Stats = b
	resp.IPC = st.IPC()
	resp.L1IMPKI = st.L1IMPKI()
	if sp := st.Sampling; sp != nil {
		// An unbounded interval (too few windows, or variance crossing
		// CPI zero) cannot be encoded as JSON; omit the half-width and
		// let the full interval in Stats.Sampling speak for itself.
		if hw := sp.IPCCI95(); !math.IsInf(hw, 1) {
			resp.IPCCI95 = hw
		}
		resp.SamplingWindows = sp.Windows
	}
	return resp, nil
}

// joinFlight subscribes ctx to the cell's flight, creating it (and
// leading the execution) if none exists. The returned bool reports
// whether this request coalesced onto an existing flight.
func (s *Server) joinFlight(ctx context.Context, pc *preparedCell) (experiment.CellResult, bool, error) {
	s.mu.Lock()
	// An abandoned flight (last subscriber left, cancel already fired) is
	// not joinable: its execution is dying with context.Canceled, and a new
	// subscriber coalescing onto it would inherit that spurious failure.
	// Start a fresh flight instead; the stale entry is overwritten here and
	// lead() only deletes the map entry if it is still the current one.
	if f, ok := s.flight[pc.addr]; ok && !f.abandoned {
		f.subs++
		s.mu.Unlock()
		s.coalesced.Add(1)
		res, err := s.awaitFlight(ctx, f)
		return res, true, err
	}
	// The flight context deliberately does not descend from any single
	// subscriber's ctx: the flight is shared, and must survive subscriber A
	// leaving while B still waits. Last-out cancellation is explicit, in
	// awaitFlight.
	fctx, cancel := context.WithCancel(context.Background()) //lint:allow flight outlives any one subscriber; the last one out cancels it in awaitFlight
	f := &flight{done: make(chan struct{}), subs: 1, cancel: cancel}
	s.flight[pc.addr] = f
	s.mu.Unlock()

	go s.lead(fctx, pc, f)
	res, err := s.awaitFlight(ctx, f)
	return res, false, err
}

// lead runs the flight: admission + execution, publication, removal.
func (s *Server) lead(fctx context.Context, pc *preparedCell, f *flight) {
	defer f.cancel()
	f.res, f.err = s.admitAndRun(fctx, pc)
	if f.err == nil {
		f.res.Fingerprint = pc.addr
	} else if !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, errQueueFull) && !errors.Is(f.err, errDraining) {
		s.failed.Add(1)
	}
	s.mu.Lock()
	// A fresh flight may have replaced an abandoned f under this address;
	// only remove the entry if it is still ours.
	if s.flight[pc.addr] == f {
		delete(s.flight, pc.addr)
	}
	s.mu.Unlock()
	close(f.done)
}

// admitAndRun acquires an execution slot — queueing up to MaxQueue, shed
// with errQueueFull beyond that — and runs the cell. A drain that begins
// while the cell waits in the queue resolves it immediately with
// errDraining (a deterministic 503) instead of leaving it parked until
// its own deadline.
func (s *Server) admitAndRun(fctx context.Context, pc *preparedCell) (experiment.CellResult, error) {
	select {
	case s.slots <- struct{}{}:
	default:
		if s.waiting.Add(1) > int64(s.opts.MaxQueue) {
			s.waiting.Add(-1)
			return experiment.CellResult{}, errQueueFull
		}
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
		case <-s.drainCh:
			s.waiting.Add(-1)
			return experiment.CellResult{}, errDraining
		case <-fctx.Done():
			s.waiting.Add(-1)
			return experiment.CellResult{}, fctx.Err()
		}
	}
	defer func() { <-s.slots }()
	s.executions.Add(1)
	return s.runCell(fctx, pc)
}

// awaitFlight waits for the flight's result or the subscriber's ctx,
// whichever first. A departing subscriber decrements the subscription
// count; the last one out cancels the execution.
func (s *Server) awaitFlight(ctx context.Context, f *flight) (experiment.CellResult, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
	}
	s.mu.Lock()
	f.subs--
	if f.subs == 0 && !f.abandoned {
		// Mark and cancel inside the lock: deciding "last one out" and
		// firing cancel must be atomic with joinFlight's joinability check,
		// or a subscriber arriving between them would coalesce onto a
		// flight whose cancellation is already in motion and get a spurious
		// context.Canceled for a cell that was never doomed. (CancelFunc is
		// non-blocking, so holding mu across it is safe.)
		f.abandoned = true
		f.cancel()
	}
	s.mu.Unlock()
	return experiment.CellResult{}, ctx.Err()
}

// --- HTTP edge -----------------------------------------------------------

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// No indentation: responses embed Stats CanonicalJSON as a RawMessage,
	// and an indenting encoder would reformat it, breaking the
	// byte-identity contract with the run cache.
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int((he.retryAfter+time.Second-1)/time.Second)))
		}
		s.writeJSON(w, he.status, errorBody{Error: he.msg})
		return
	}
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
		s.writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "execution queue full; retry later"})
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
	case errors.Is(err, context.DeadlineExceeded):
		s.writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is a formality.
		s.writeJSON(w, 499, errorBody{Error: err.Error()})
	default:
		s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// admitHTTP performs the checks shared by the work endpoints. It returns
// false after writing the response when the request must not proceed.
func (s *Server) admitHTTP(w http.ResponseWriter) bool {
	if s.draining.Load() {
		s.rejectedDrai.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return false
	}
	return true
}

// requestCtx derives the request's context with its optional timeout.
func requestCtx(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	if timeoutMs > 0 {
		return context.WithTimeout(r.Context(), time.Duration(timeoutMs)*time.Millisecond)
	}
	return r.Context(), func() {}
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	if !s.admitHTTP(w) {
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	var req CellRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	pc, err := s.prepare(req)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	ctx, cancel := requestCtx(r, req.TimeoutMs)
	defer cancel()
	resp, err := s.cell(ctx, pc)
	if err != nil {
		switch {
		case errors.Is(err, errQueueFull):
			s.rejectedFull.Add(1)
		case errors.Is(err, errDraining):
			s.rejectedDrai.Add(1)
		}
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	if !s.admitHTTP(w) {
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	var req SuiteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	names := req.Workloads
	if len(names) == 0 {
		names = workload.Names()
	}
	series := req.Series
	if len(series) == 0 {
		series = []string{"fdp24"}
	}
	cells := make([]*preparedCell, 0, len(names)*len(series))
	for _, wl := range names {
		for _, ser := range series {
			pc, err := s.prepare(CellRequest{
				Workload: wl, Series: ser,
				WarmupInstrs: req.WarmupInstrs, MeasureInstrs: req.MeasureInstrs,
				ProfileInstrs:    req.ProfileInstrs,
				SamplingInterval: req.SamplingInterval, SamplingDetail: req.SamplingDetail,
				SamplingWarm: req.SamplingWarm,
			})
			if err != nil {
				s.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
				return
			}
			cells = append(cells, pc)
		}
	}
	ctx, cancel := requestCtx(r, req.TimeoutMs)
	defer cancel()

	resps := make([]CellResponse, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, pc := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = s.cell(ctx, pc)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			switch {
			case errors.Is(err, errQueueFull):
				s.rejectedFull.Add(1)
			case errors.Is(err, errDraining):
				s.rejectedDrai.Add(1)
			}
			s.writeErr(w, fmt.Errorf("cell %s/%s: %w", cells[i].spec.Name, cells[i].series, err))
			return
		}
	}
	s.writeJSON(w, http.StatusOK, SuiteResponse{Cells: resps})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"workloads": workload.Names(),
		"series":    experiment.SeriesLabels(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]string{"status": status})
}

// MetricSet snapshots the server's request counters plus the run cache's
// hit/miss/store counts as an obs metric set.
func (s *Server) MetricSet() obs.MetricSet {
	var ms obs.MetricSet
	add := func(name, help string, v int64, labels ...obs.Label) {
		ms.Add(obs.Metric{Name: name, Help: help, Labels: labels, Value: float64(v)})
	}
	add("simd_requests_total", "cell requests accepted for processing", s.requests.Load())
	add("simd_cells_total", "cells answered, by production path", s.cacheHits.Load(),
		obs.Label{Key: "source", Value: "cache"})
	add("simd_cells_total", "cells answered, by production path", s.executions.Load(),
		obs.Label{Key: "source", Value: "executed"})
	add("simd_cells_total", "cells answered, by production path", s.coalesced.Load(),
		obs.Label{Key: "source", Value: "coalesced"})
	add("simd_rejected_total", "requests shed", s.rejectedFull.Load(),
		obs.Label{Key: "reason", Value: "queue_full"})
	add("simd_rejected_total", "requests shed", s.rejectedDrai.Load(),
		obs.Label{Key: "reason", Value: "draining"})
	add("simd_cancelled_total", "subscriptions abandoned before completion", s.cancelledReq.Load())
	add("simd_failed_total", "cells that returned an error", s.failed.Load())
	add("simd_queue_waiting", "requests currently waiting for an execution slot", s.waiting.Load())
	cm := s.opts.Cache.Metrics()
	add("simd_run_cache_hits_total", "run cache lookups served", cm.Hits)
	add("simd_run_cache_misses_total", "run cache lookups missed", cm.Misses)
	add("simd_run_cache_puts_total", "run cache entries stored", cm.Puts)
	ms.Sort()
	return ms
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.MetricSet().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
