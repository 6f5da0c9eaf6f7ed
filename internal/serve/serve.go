package serve

import (
	"bytes"
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

	"realhf"
	"realhf/internal/estimator"
)

// StatusClientClosedRequest is the non-standard 499 status (after nginx)
// the server answers when a solve was abandoned because its waiters
// disconnected — there is no standard code for "the client hung up", and
// 499 is what fleet dashboards already aggregate.
const StatusClientClosedRequest = 499

// maxRequestBytes bounds a plan request body; a config is a few KB, so 1
// MiB is generous without letting a client balloon server memory.
const maxRequestBytes = 1 << 20

// Config configures a Server.
type Config struct {
	// Planner is the shared planning session every request routes through.
	// Its plan and cost caches are the cross-tenant shared state; its
	// calibration keying is the per-tenant isolation. Required.
	Planner *realhf.Planner

	// MaxConcurrentSolves bounds planner solves running at once (default
	// 2). Each solve may itself be multi-chain (SearchParallelism), so this
	// is deliberately small.
	MaxConcurrentSolves int
	// QueueDepth bounds how many admitted solves may wait for a slot
	// (default 16). Beyond it the server answers 429 with Retry-After —
	// backpressure instead of an unbounded queue.
	QueueDepth int
	// DefaultDeadline bounds requests that carry no deadline_ms (default
	// 60s); MaxDeadline caps client-supplied deadlines (default 5m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentSolves <= 0 {
		c.MaxConcurrentSolves = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	return c
}

// flight is one in-flight solve shared by every request whose coalescing
// key matches: the leader's goroutine runs the solve, waiters select on
// done, and the last waiter to leave cancels ctx so an abandoned solve
// stops burning CPU mid-search.
type flight struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// exp/err are written once by runFlight before done closes; after that
	// they are read-only (Experiment marshaling is concurrency-safe for
	// readers).
	exp *realhf.Experiment
	err error

	// waiters is guarded by the server mutex.
	waiters int
}

// Server is the embeddable plan service core: an http.Handler speaking the
// wire types over a shared Planner, with singleflight coalescing, bounded
// admission, and graceful drain. Create with New, expose via Handler, stop
// with Shutdown.
type Server struct {
	cfg     Config
	planner *realhf.Planner
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	flights  map[string]*flight
	queued   int64 // flights waiting for a solve slot
	draining bool

	inflight sync.WaitGroup // open flights

	sem chan struct{} // solve-concurrency tokens

	requests, cacheHits, solves         atomic.Int64
	solveErrors, solvesCanceled         atomic.Int64
	coalesced, rejected                 atomic.Int64
	invalid, infeasible, queueHighWater atomic.Int64
	ewmaSolveSecs                       atomic.Uint64 // float64 bits

	// hookBeforeSolve, when set (tests only), runs on the flight goroutine
	// after the solve slot is acquired and counted, immediately before
	// Planner.Plan — a deterministic window in which waiters can pile onto
	// the flight or abandon it.
	hookBeforeSolve func(key string)
	// hookWaiterJoined, when set (tests only), runs under the server mutex
	// each time a request coalesces onto an existing flight, with the
	// flight's count of joined waiters (excluding the leader).
	hookWaiterJoined func(joined int)
}

// New creates a Server over cfg.Planner.
func New(cfg Config) (*Server, error) {
	if cfg.Planner == nil {
		return nil, fmt.Errorf("serve: Config.Planner is required: %w", realhf.ErrInvalidConfig)
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		planner:    cfg.Planner,
		baseCtx:    ctx,
		baseCancel: cancel,
		flights:    map[string]*flight{},
		sem:        make(chan struct{}, cfg.MaxConcurrentSolves),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(PathPlan, s.handlePlan)
	s.mux.HandleFunc(PathStats, s.handleStats)
	s.mux.HandleFunc(PathHealth, s.handleHealth)
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: new requests are rejected with 503 while
// in-flight solves run to completion. If ctx expires first, the remaining
// solves are force-canceled (their waiters get 499) and Shutdown returns
// ctx's error once they have unwound.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	inFlight := int64(len(s.flights))
	queued := s.queued
	draining := s.draining
	s.mu.Unlock()
	return ServerStats{
		Requests:       s.requests.Load(),
		CacheHits:      s.cacheHits.Load(),
		Solves:         s.solves.Load(),
		SolveErrors:    s.solveErrors.Load(),
		SolvesCanceled: s.solvesCanceled.Load(),
		Coalesced:      s.coalesced.Load(),
		Rejected:       s.rejected.Load(),
		Invalid:        s.invalid.Load(),
		Infeasible:     s.infeasible.Load(),
		InFlight:       inFlight,
		Queued:         queued,
		QueueHighWater: s.queueHighWater.Load(),
		Draining:       draining,
	}
}

// --- HTTP handlers ---

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{
			Code: CodeInvalidConfig, Error: "POST required"})
		return
	}
	if s.isDraining() {
		s.writeError(w, http.StatusServiceUnavailable, drainingResponse())
		return
	}
	req, err := decodePlanRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.invalid.Add(1)
		s.writeError(w, http.StatusBadRequest, &ErrorResponse{
			Code: CodeInvalidConfig, Error: "decode plan request: " + err.Error()})
		return
	}
	body, status, errResp := s.plan(r.Context(), req)
	if errResp != nil {
		s.writeError(w, status, errResp)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, &ErrorResponse{
			Code: CodeInvalidConfig, Error: "GET required"})
		return
	}
	s.writeJSON(w, http.StatusOK, &StatsResponse{
		Server:  s.Stats(),
		Planner: s.planner.Stats(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, http.StatusServiceUnavailable, &ErrorResponse{
			Code: CodeDraining, Error: "server is draining"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// --- request flow ---

// plan answers one decoded request: preset expansion, canonicalization,
// cache fast path, then singleflight solve with admission control. A 200
// answer is the encoded PlanResponse body.
func (s *Server) plan(ctx context.Context, req *PlanRequest) ([]byte, int, *ErrorResponse) {
	cfg := req.Config
	if len(cfg.RPCs) == 0 && req.Algo != "" {
		rpcs, err := realhf.AlgoRPCs(req.Algo, req.ActorType, req.CriticType)
		if err != nil {
			s.invalid.Add(1)
			return nil, http.StatusBadRequest, &ErrorResponse{Code: CodeInvalidConfig, Error: err.Error()}
		}
		cfg.RPCs = rpcs
	}
	for name, f := range req.Calibration {
		if err := estimator.CheckFactor(name, f); err != nil {
			s.invalid.Add(1)
			return nil, http.StatusBadRequest, &ErrorResponse{Code: CodeInvalidConfig, Error: err.Error()}
		}
	}
	cfg = s.planner.Canonicalize(cfg)
	var opts []realhf.AutoOption
	if len(req.Calibration) > 0 {
		opts = append(opts, realhf.WithCalibrationFactors(req.Calibration))
	}
	s.requests.Add(1)

	// Per-request deadline: joins the request context, so a disconnect and
	// a timeout travel the same cancellation path into the solve. The cap
	// applies in milliseconds: converting a huge deadline_ms to a Duration
	// first would overflow into an already-expired deadline.
	deadline := min(s.cfg.DefaultDeadline, s.cfg.MaxDeadline)
	if ms := req.DeadlineMillis; ms > 0 {
		deadline = s.cfg.MaxDeadline
		if ms <= s.cfg.MaxDeadline.Milliseconds() {
			deadline = time.Duration(ms) * time.Millisecond
		}
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	// Fast path: an equivalent deterministic request solved before is
	// answered from the planner's plan cache without touching admission —
	// cached traffic never queues behind running solves. A hit's body
	// depends only on its cache entry (cached, never coalesced), so the
	// planner stores it on the entry and later hits write those bytes. A
	// config the planner rejects before any lookup is answered here too:
	// it can never succeed, so it must neither queue (nor be told to retry
	// on a full queue) nor count as a solve.
	if body, ok, err := s.planner.PlanCachedAnswer(cfg, s.encodeHit, opts...); ok {
		s.cacheHits.Add(1)
		if err != nil {
			var ea *errorAnswer
			if !errors.As(err, &ea) {
				return nil, http.StatusInternalServerError, &ErrorResponse{Code: CodeInternal, Error: err.Error()}
			}
			return nil, ea.status, ea.resp
		}
		return body, http.StatusOK, nil
	} else if err != nil {
		return s.flightError(ctx, err)
	}

	key := cfg.Fingerprint() + calibrationToken(req.Calibration)
	f, joined, status, errResp := s.joinFlight(key, cfg, opts)
	if errResp != nil {
		return nil, status, errResp
	}
	select {
	case <-f.done:
		if f.err != nil {
			return s.flightError(ctx, f.err)
		}
		return s.respond(f.exp, joined)
	case <-ctx.Done():
		s.abandonFlight(f)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, http.StatusGatewayTimeout, &ErrorResponse{
				Code: CodeDeadline, Error: "plan request deadline exceeded"}
		}
		return nil, StatusClientClosedRequest, &ErrorResponse{
			Code: CodeCanceled, Error: "client closed request"}
	}
}

// joinFlight coalesces onto an existing flight for key or opens a new one,
// applying admission control to new flights. joined reports coalescing; a
// non-nil ErrorResponse is a rejection with its HTTP status: 503 once the
// server drains, 429 when the admission queue is full.
func (s *Server) joinFlight(key string, cfg realhf.ExperimentConfig, opts []realhf.AutoOption) (*flight, bool, int, *ErrorResponse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.coalesced.Add(1)
		if s.hookWaiterJoined != nil {
			s.hookWaiterJoined(f.waiters - 1)
		}
		return f, true, 0, nil
	}
	// Checked again under the mutex Shutdown sets it under: a request that
	// passed handlePlan's check before Shutdown began must not open a flight
	// whose solve the drain would not wait for.
	if s.draining {
		return nil, false, http.StatusServiceUnavailable, drainingResponse()
	}
	if s.queued >= int64(s.cfg.QueueDepth) {
		s.rejected.Add(1)
		retry := s.retryAfterLocked()
		return nil, false, http.StatusTooManyRequests, &ErrorResponse{
			Code:              CodeOverloaded,
			Error:             fmt.Sprintf("admission queue full (%d solves waiting)", s.queued),
			RetryAfterSeconds: retry,
		}
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	f := &flight{ctx: ctx, cancel: cancel, done: make(chan struct{}), waiters: 1}
	s.flights[key] = f
	s.queued++
	if hw := s.queued; hw > s.queueHighWater.Load() {
		s.queueHighWater.Store(hw)
	}
	s.inflight.Add(1)
	go s.runFlight(f, key, cfg, opts)
	return f, false, 0, nil
}

// abandonFlight deregisters one waiter; the last waiter out cancels the
// solve (the planner surfaces it as a wrapped ErrSolveCanceled, which
// runFlight counts as a canceled — not failed — solve).
func (s *Server) abandonFlight(f *flight) {
	s.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	s.mu.Unlock()
	if last {
		f.cancel()
	}
}

// runFlight is the flight goroutine: wait for a solve slot (bounded by the
// admission queue), run the shared solve, publish the result, and retire
// the flight so later identical requests hit the plan cache instead.
func (s *Server) runFlight(f *flight, key string, cfg realhf.ExperimentConfig, opts []realhf.AutoOption) {
	defer s.inflight.Done()
	acquired := false
	select {
	case s.sem <- struct{}{}:
		acquired = true
	case <-f.ctx.Done():
	}
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
	if acquired {
		s.solves.Add(1)
		if s.hookBeforeSolve != nil {
			s.hookBeforeSolve(key)
		}
		start := time.Now()
		f.exp, f.err = s.planner.Plan(f.ctx, cfg, opts...)
		if f.err == nil {
			s.observeSolveTime(time.Since(start))
		}
		<-s.sem
	} else {
		f.err = fmt.Errorf("serve: solve abandoned before it started: %w: %w",
			realhf.ErrSolveCanceled, f.ctx.Err())
	}
	if f.err != nil {
		if errors.Is(f.err, realhf.ErrSolveCanceled) {
			s.solvesCanceled.Add(1)
		} else {
			s.solveErrors.Add(1)
		}
	}
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	f.cancel()
}

// respond encodes a planned experiment as the 200 PlanResponse body,
// mapping a memory-infeasible optimum to 422.
func (s *Server) respond(exp *realhf.Experiment, coalesced bool) ([]byte, int, *ErrorResponse) {
	if err := exp.FeasibleMemory(); err != nil {
		s.infeasible.Add(1)
		return nil, http.StatusUnprocessableEntity, &ErrorResponse{
			Code: CodeInfeasibleMemory, Error: err.Error()}
	}
	planBytes, err := exp.MarshalPlan()
	if err != nil {
		s.solveErrors.Add(1)
		return nil, http.StatusInternalServerError, &ErrorResponse{
			Code: CodeInternal, Error: "marshal plan: " + err.Error()}
	}
	resp := &PlanResponse{
		Config:      exp.Config,
		Fingerprint: exp.Plan.Fingerprint(),
		Plan:        planBytes,
		Cached:      exp.Cached,
		Coalesced:   coalesced,
	}
	if est := exp.Estimate; est != nil {
		resp.Estimate = Estimate{
			TimeCostSeconds: est.TimeCost,
			Cost:            est.Cost,
			MaxMemBytes:     est.MaxMem,
			CallTimes:       est.CallTimes,
		}
	}
	body, err := encodeJSON(resp)
	if err != nil {
		s.solveErrors.Add(1)
		return nil, http.StatusInternalServerError, &ErrorResponse{
			Code: CodeInternal, Error: "encode plan response: " + err.Error()}
	}
	return body, http.StatusOK, nil
}

// errorAnswer carries a non-200 answer out of encodeHit through
// Planner.PlanCachedAnswer's error result.
type errorAnswer struct {
	status int
	resp   *ErrorResponse
}

func (e *errorAnswer) Error() string { return e.resp.Error }

// encodeHit is the fast path's encoder: respond for a plan-cache hit, which
// is never coalesced, so its body depends on the cache entry alone. A
// non-200 answer (infeasible memory, a marshal failure) is returned as an
// *errorAnswer; the planner stores nothing for it, so it recurs, and is
// counted, on every repeat.
func (s *Server) encodeHit(exp *realhf.Experiment) ([]byte, error) {
	body, status, errResp := s.respond(exp, false)
	if errResp != nil {
		return nil, &errorAnswer{status: status, resp: errResp}
	}
	return body, nil
}

// flightError maps a planner error — a failed shared solve, or a config
// the fast path rejected before admission — onto a per-waiter HTTP error.
func (s *Server) flightError(ctx context.Context, err error) ([]byte, int, *ErrorResponse) {
	switch {
	case errors.Is(err, realhf.ErrInvalidConfig):
		s.invalid.Add(1)
		return nil, http.StatusBadRequest, &ErrorResponse{Code: CodeInvalidConfig, Error: err.Error()}
	case errors.Is(err, realhf.ErrInfeasibleMemory):
		s.infeasible.Add(1)
		return nil, http.StatusUnprocessableEntity, &ErrorResponse{Code: CodeInfeasibleMemory, Error: err.Error()}
	case errors.Is(err, realhf.ErrSolveCanceled):
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, http.StatusGatewayTimeout, &ErrorResponse{Code: CodeDeadline, Error: err.Error()}
		}
		return nil, StatusClientClosedRequest, &ErrorResponse{Code: CodeCanceled, Error: err.Error()}
	case errors.Is(err, realhf.ErrWorkerLost):
		// An unrecoverable worker loss is a capacity problem, not a request
		// problem: 503 tells the caller to retry once capacity returns.
		return nil, http.StatusServiceUnavailable, &ErrorResponse{Code: CodeWorkerLost, Error: err.Error()}
	}
	return nil, http.StatusInternalServerError, &ErrorResponse{Code: CodeInternal, Error: err.Error()}
}

// --- helpers ---

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// observeSolveTime folds a completed solve's wall time into the EWMA behind
// Retry-After estimates.
func (s *Server) observeSolveTime(d time.Duration) {
	const alpha = 0.3
	for {
		oldBits := s.ewmaSolveSecs.Load()
		old := math.Float64frombits(oldBits)
		next := d.Seconds()
		if old > 0 {
			next = alpha*next + (1-alpha)*old
		}
		if s.ewmaSolveSecs.CompareAndSwap(oldBits, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterLocked estimates (under the server mutex) how long a rejected
// client should back off: the queue ahead of it times the average solve,
// divided across the solve slots.
func (s *Server) retryAfterLocked() int64 {
	ewma := math.Float64frombits(s.ewmaSolveSecs.Load())
	if ewma <= 0 {
		ewma = 1
	}
	secs := int64(math.Ceil(ewma * float64(s.queued+1) / float64(s.cfg.MaxConcurrentSolves)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// encodeJSON is the one response encoding: compact JSON with the
// json.Encoder's trailing newline. No SetIndent: re-indenting would rewrite
// the embedded raw plan bytes, breaking the byte-identity contract with
// Experiment.MarshalPlan.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, _ := encodeJSON(v) // stats and error bodies hold no unencodable value
	writeBody(w, status, body)
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client is gone
}

// drainingResponse is the 503 a plan request gets once Shutdown has begun.
func drainingResponse() *ErrorResponse {
	return &ErrorResponse{Code: CodeDraining, Error: "server is draining", RetryAfterSeconds: 1}
}

func (s *Server) writeError(w http.ResponseWriter, status int, e *ErrorResponse) {
	if e.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(e.RetryAfterSeconds, 10))
	}
	s.writeJSON(w, status, e)
}

// calibrationToken extends the coalescing key with the calibration
// fingerprint, mirroring the planner's problem/plan-cache keying: identical
// factor sets (from any tenant) coalesce and share caches; different sets
// never do.
func calibrationToken(factors map[string]float64) string {
	if k := estimator.NewCalibration(factors).Key(); k != "" {
		return ";calib=" + k
	}
	return ""
}
