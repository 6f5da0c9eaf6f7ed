package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"realhf"
)

// testConfig mirrors the root package's small planning workload: 7B PPO on
// one node, short deterministic search. Seed is part of the fingerprint, so
// distinct seeds are distinct coalescing keys.
func testConfig(seed int64, steps int) realhf.ExperimentConfig {
	return realhf.ExperimentConfig{
		Nodes: 1, BatchSize: 64, PromptLen: 256, GenLen: 256,
		RPCs:        realhf.PPORPCs("llama7b", "llama7b-critic"),
		SearchSteps: steps, Seed: seed,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	if cfg.Planner == nil {
		cfg.Planner = realhf.NewPlanner(realhf.ClusterConfig{Nodes: 1})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs, NewClient(hs.URL)
}

func waitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", desc)
}

// TestCoalescingSingleSolve is the singleflight contract: K identical
// concurrent requests run exactly one planner solve, every waiter gets a
// 200, and each response's plan bytes are byte-identical to what a direct
// Planner.Plan on a fresh session returns for the same request.
func TestCoalescingSingleSolve(t *testing.T) {
	srv, _, client := newTestServer(t, Config{})
	release := make(chan struct{})
	srv.hookBeforeSolve = func(string) { <-release }

	const k = 6
	cfg := testConfig(3, 400)
	resps := make([]*PlanResponse, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = client.Plan(context.Background(), cfg, nil)
		}(i)
	}
	// The leader is blocked inside the solve hook; once the other k-1
	// requests have joined its flight, let it run.
	waitFor(t, "waiters to coalesce", func() bool { return srv.Stats().Coalesced == k-1 })
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.Solves != 1 {
		t.Errorf("%d identical requests ran %d solves, want exactly 1", k, st.Solves)
	}
	if st.Coalesced != k-1 || st.CacheHits != 0 || st.Requests != k {
		t.Errorf("stats = %+v, want coalesced=%d cacheHits=0 requests=%d", st, k-1, k)
	}
	leaders := 0
	for i, r := range resps {
		if !r.Coalesced && !r.Cached {
			leaders++
		}
		if r.Cached {
			t.Errorf("response %d claims a cache hit on a cold cache", i)
		}
		if r.Fingerprint != resps[0].Fingerprint {
			t.Errorf("response %d fingerprint %q != %q", i, r.Fingerprint, resps[0].Fingerprint)
		}
		if !bytes.Equal(r.Plan, resps[0].Plan) {
			t.Errorf("response %d plan bytes differ from response 0", i)
		}
	}
	if leaders != 1 {
		t.Errorf("%d responses claim to be the solving leader, want exactly 1", leaders)
	}

	// Byte-identical to a direct library call on an equivalent session.
	direct, err := realhf.NewPlanner(realhf.ClusterConfig{Nodes: 1}).Plan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	directBytes, err := direct.MarshalPlan()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directBytes, resps[0].Plan) {
		t.Error("served plan bytes differ from a direct Planner.Plan of the same request")
	}

	// A replay is answered from the plan cache without another solve.
	replay, err := client.Plan(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Cached || replay.Coalesced {
		t.Errorf("replay: cached=%v coalesced=%v, want cached-only", replay.Cached, replay.Coalesced)
	}
	if got := srv.Stats().Solves; got != 1 {
		t.Errorf("replay ran a solve (total %d), want cache hit", got)
	}
	if !bytes.Equal(replay.Plan, resps[0].Plan) {
		t.Error("cached replay plan bytes differ from the solved plan")
	}
}

// TestTenantCalibrationIsolation: isolation follows calibration content,
// never tenant names. A calibrated request can neither be answered from an
// uncalibrated tenant's cache entry nor poison it, while two tenants with
// identical calibration share one entry.
func TestTenantCalibrationIsolation(t *testing.T) {
	srv, hs, client := newTestServer(t, Config{})
	ctx := context.Background()
	cfg := testConfig(3, 300)

	base, err := client.Plan(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	calib := map[string]float64{"actor/GENERATE": 2}
	calibrated, err := NewClient(hs.URL, WithTenant("team-a")).Plan(ctx, cfg, calib)
	if err != nil {
		t.Fatal(err)
	}
	if calibrated.Cached || calibrated.Coalesced {
		t.Fatalf("calibrated request answered from uncalibrated state: cached=%v coalesced=%v",
			calibrated.Cached, calibrated.Coalesced)
	}
	if got := srv.Stats().Solves; got != 2 {
		t.Fatalf("calibrated request must run its own solve: solves = %d, want 2", got)
	}

	// Same calibration content, different tenant name: shared cache entry.
	sameCalib, err := NewClient(hs.URL, WithTenant("team-b")).Plan(ctx, cfg, calib)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCalib.Cached {
		t.Error("identical calibration from another tenant must share the cache entry")
	}
	if !bytes.Equal(sameCalib.Plan, calibrated.Plan) {
		t.Error("shared calibrated entry returned different plan bytes")
	}

	// The calibrated solve must not have displaced the uncalibrated entry.
	baseAgain, err := NewClient(hs.URL, WithTenant("team-b")).Plan(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !baseAgain.Cached || baseAgain.Fingerprint != base.Fingerprint {
		t.Errorf("uncalibrated replay: cached=%v fingerprint match=%v, want cached original",
			baseAgain.Cached, baseAgain.Fingerprint == base.Fingerprint)
	}
	if got := srv.Stats().Solves; got != 2 {
		t.Errorf("replays ran solves: total %d, want 2", got)
	}
}

// TestClientDisconnectCancelsSolve: when a solve's only waiter hangs up
// mid-request, the solve itself is canceled through the planner's context
// plumbing instead of burning CPU to completion.
func TestClientDisconnectCancelsSolve(t *testing.T) {
	srv, _, client := newTestServer(t, Config{})
	started := make(chan struct{})
	srv.hookBeforeSolve = func(string) { close(started) }

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Plan(ctx, testConfig(9, 10_000_000), nil)
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled client got %v, want context.Canceled", err)
	}
	waitFor(t, "the abandoned solve to cancel", func() bool {
		return srv.Stats().SolvesCanceled == 1
	})
	st := srv.Stats()
	if st.Solves != 1 || st.SolveErrors != 0 {
		t.Errorf("stats = %+v, want 1 solve counted canceled, not failed", st)
	}
	waitFor(t, "the flight to retire", func() bool { return srv.Stats().InFlight == 0 })
}

// TestOverloadBackpressure: with one solve slot and a one-deep queue, a
// third distinct request is rejected with 429 + Retry-After instead of
// queueing unboundedly.
func TestOverloadBackpressure(t *testing.T) {
	srv, _, client := newTestServer(t, Config{MaxConcurrentSolves: 1, QueueDepth: 1})
	release := make(chan struct{})
	srv.hookBeforeSolve = func(string) { <-release }
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = client.Plan(ctx, testConfig(1, 300), nil) }()
	waitFor(t, "the first solve to occupy the slot", func() bool {
		st := srv.Stats()
		return st.Solves == 1 && st.Queued == 0
	})
	wg.Add(1)
	go func() { defer wg.Done(); _, _ = client.Plan(ctx, testConfig(2, 300), nil) }()
	waitFor(t, "the second request to queue", func() bool { return srv.Stats().Queued == 1 })

	_, err := client.Plan(ctx, testConfig(3, 300), nil)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("overloaded request returned %v, want *ServerError", err)
	}
	if se.StatusCode != http.StatusTooManyRequests || !errors.Is(err, ErrOverloaded) {
		t.Errorf("got HTTP %d (%v), want 429 wrapping ErrOverloaded", se.StatusCode, err)
	}
	if se.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want at least 1s of backoff", se.RetryAfter)
	}

	close(release)
	wg.Wait()
	st := srv.Stats()
	if st.Rejected != 1 || st.QueueHighWater != 1 || st.Solves != 2 {
		t.Errorf("stats = %+v, want rejected=1 queueHighWater=1 solves=2", st)
	}
}

// TestGracefulDrain: Shutdown lets the in-flight solve finish and answer
// 200 while new plan and health requests are refused with 503/draining.
func TestGracefulDrain(t *testing.T) {
	srv, _, client := newTestServer(t, Config{})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	srv.hookBeforeSolve = func(string) { once.Do(func() { close(started) }); <-release }
	ctx := context.Background()

	type result struct {
		resp *PlanResponse
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := client.Plan(ctx, testConfig(4, 300), nil)
		resCh <- result{resp, err}
	}()
	<-started

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	waitFor(t, "the server to start draining", func() bool { return srv.Stats().Draining })

	if _, err := client.Plan(ctx, testConfig(5, 300), nil); !errors.Is(err, ErrDraining) {
		t.Errorf("plan during drain returned %v, want ErrDraining", err)
	}
	if err := client.Health(ctx); !errors.Is(err, ErrDraining) {
		t.Errorf("health during drain returned %v, want ErrDraining", err)
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
	r := <-resCh
	if r.err != nil {
		t.Fatalf("in-flight request during drain: %v", r.err)
	}
	if r.resp.Fingerprint == "" || len(r.resp.Plan) == 0 {
		t.Error("in-flight request drained without a full response")
	}
}

// TestOffloadSearchOverTheWire: on a memory-constrained workload the
// default request 422s (no residency-fixed plan fits HBM) while the same
// config with offload_search set plans feasibly — the knob rides the
// canonical config codec end to end and the two requests never share a
// cache entry.
func TestOffloadSearchOverTheWire(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	ctx := context.Background()

	rpcs := realhf.PPORPCs("llama7b", "llama7b-critic")
	for i := range rpcs {
		switch rpcs[i].ModelName {
		case "ref":
			rpcs[i].ModelType = "llama34b"
		case "reward":
			rpcs[i].ModelType = "llama34b-critic"
		}
	}
	cfg := realhf.ExperimentConfig{
		Nodes: 1, GPUsPerNode: 4, BatchSize: 64, PromptLen: 256, GenLen: 256,
		MiniBatches: 8, RPCs: rpcs, SearchSteps: 400, Seed: 5,
	}

	if _, err := client.Plan(ctx, cfg, nil); !errors.Is(err, realhf.ErrInfeasibleMemory) {
		t.Fatalf("default request: %v, want 422 wrapping ErrInfeasibleMemory", err)
	}

	cfg.OffloadSearch = true
	resp, err := client.Plan(ctx, cfg, nil)
	if err != nil {
		t.Fatalf("offload-aware request: %v", err)
	}
	if resp.Estimate.Cost != resp.Estimate.TimeCostSeconds {
		t.Error("offload-aware response carries an OOM-penalized cost")
	}
	if !resp.Config.OffloadSearch {
		t.Error("canonical config in the response lost offload_search")
	}
	if len(resp.Plan) == 0 || resp.Fingerprint == "" {
		t.Error("offload-aware response missing plan payload")
	}
}

// TestErrorTaxonomyMapping: each class in the error taxonomy surfaces as
// its HTTP status and maps back onto the realhf sentinel through the typed
// client, with no string matching anywhere.
func TestErrorTaxonomyMapping(t *testing.T) {
	srv, hs, client := newTestServer(t, Config{})
	ctx := context.Background()

	status := func(err error) int {
		t.Helper()
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("got %v, want *ServerError", err)
		}
		return se.StatusCode
	}

	// Malformed body and unknown config fields are strict-decode 400s.
	for _, body := range []string{`{nope`, `{"config":{"bogus_knob":1}}`} {
		resp, err := http.Post(hs.URL+PathPlan, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var wire ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&wire)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || wire.Code != CodeInvalidConfig {
			t.Errorf("body %q: HTTP %d code %q (decode err %v), want 400 %s",
				body, resp.StatusCode, wire.Code, err, CodeInvalidConfig)
		}
	}

	// Unknown algo preset.
	if _, err := client.Do(ctx, &PlanRequest{Algo: "alignprop"}); !errors.Is(err, realhf.ErrInvalidConfig) || status(err) != http.StatusBadRequest {
		t.Errorf("unknown algo: %v, want 400 wrapping ErrInvalidConfig", err)
	}
	// Non-positive calibration factors.
	for _, f := range []float64{0, -1} {
		if _, err := client.Plan(ctx, testConfig(6, 200), map[string]float64{"actor/GENERATE": f}); !errors.Is(err, realhf.ErrInvalidConfig) || status(err) != http.StatusBadRequest {
			t.Errorf("calibration factor %v: %v, want 400 wrapping ErrInvalidConfig", f, err)
		}
	}
	// A solver name that is not registered (multi-chain search is mcmc
	// with search_parallelism, not a solver of its own).
	unknown := testConfig(6, 200)
	unknown.Solver = "parallel-mcmc"
	if _, err := client.Plan(ctx, unknown, nil); !errors.Is(err, realhf.ErrInvalidConfig) || status(err) != http.StatusBadRequest {
		t.Errorf("unregistered solver: %v, want 400 wrapping ErrInvalidConfig", err)
	}

	// Two calls sharing one name in an iteration: a second unnamed reward
	// inference defaults to the first one's "reward/INFERENCE".
	dup := testConfig(6, 200)
	second := dup.RPCs[1]
	second.BatchScale, second.OutputData = 4, []string{"r2"}
	dup.RPCs = append(dup.RPCs, second)
	if _, err := client.Plan(ctx, dup, nil); !errors.Is(err, realhf.ErrInvalidConfig) || status(err) != http.StatusBadRequest {
		t.Errorf("repeated call name: %v, want 400 wrapping ErrInvalidConfig", err)
	}

	// A 70B cast on one node has no memory-feasible plan: 422.
	oom := realhf.ExperimentConfig{
		Nodes: 1, BatchSize: 64, PromptLen: 256, GenLen: 256,
		RPCs:        realhf.PPORPCs("llama70b", "llama70b-critic"),
		SearchSteps: 100, Seed: 3, Solver: "greedy",
	}
	if _, err := client.Plan(ctx, oom, nil); !errors.Is(err, realhf.ErrInfeasibleMemory) || status(err) != http.StatusUnprocessableEntity {
		t.Errorf("infeasible cast: %v, want 422 wrapping ErrInfeasibleMemory", err)
	}

	// A request deadline that expires mid-solve is a 504, and the abandoned
	// solve is canceled.
	_, err := client.Do(ctx, &PlanRequest{Config: testConfig(11, 10_000_000), DeadlineMillis: 50})
	if !errors.Is(err, context.DeadlineExceeded) || status(err) != http.StatusGatewayTimeout {
		t.Errorf("expired deadline: %v, want 504 wrapping context.DeadlineExceeded", err)
	}
	waitFor(t, "the timed-out solve to cancel", func() bool {
		return srv.Stats().SolvesCanceled == 1
	})

	// Wrong method.
	resp, err := http.Get(hs.URL + PathPlan)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s: HTTP %d, want 405", PathPlan, resp.StatusCode)
	}

	st := srv.Stats()
	if st.Invalid < 4 || st.Infeasible != 1 {
		t.Errorf("stats = %+v, want >=4 invalid and exactly 1 infeasible", st)
	}
}

// TestPlanRejectsTrailingBytes: a plan request body is exactly one JSON
// value. Whitespace may follow it; anything else — garbage, a stray ']',
// a second request — is a strict-decode 400 invalid_config.
func TestPlanRejectsTrailingBytes(t *testing.T) {
	_, hs, _ := newTestServer(t, Config{})
	body, err := json.Marshal(&PlanRequest{Config: testConfig(6, 200)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tail   string
		status int
	}{
		{"", http.StatusOK},
		{"\n \t\r\n", http.StatusOK},
		{"garbage", http.StatusBadRequest},
		{"]", http.StatusBadRequest},
		{"}", http.StatusBadRequest},
		{string(body), http.StatusBadRequest},
	} {
		resp, err := http.Post(hs.URL+PathPlan, "application/json", strings.NewReader(string(body)+c.tail))
		if err != nil {
			t.Fatal(err)
		}
		var wire ErrorResponse
		if c.status != http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&wire)
		}
		resp.Body.Close()
		if err != nil || resp.StatusCode != c.status || (c.status != http.StatusOK && wire.Code != CodeInvalidConfig) {
			t.Errorf("request followed by %q: HTTP %d code %q (decode err %v), want %d",
				c.tail, resp.StatusCode, wire.Code, err, c.status)
		}
	}
}

// TestStatsEndpoint: /v1/stats serves both counter families and the
// health endpoint answers 200 while serving.
func TestStatsEndpoint(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	if _, err := client.Plan(ctx, testConfig(7, 200), nil); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server.Requests != 1 || stats.Server.Solves != 1 {
		t.Errorf("server stats = %+v, want 1 request and 1 solve", stats.Server)
	}
	if stats.Planner.PlanRequests != 1 {
		t.Errorf("planner stats = %+v, want the shared session's counters", stats.Planner)
	}
}

// TestFlightErrorTaxonomyTable: the sentinel→HTTP mapping, one row per
// taxonomy class, including the capacity class (ErrWorkerLost → 503) no
// plan request can organically produce, and the client's inverse mapping:
// unwrapping a ServerError carrying each code restores the sentinel a
// local call would have returned.
func TestFlightErrorTaxonomyTable(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{})
	ctx := context.Background()
	cases := []struct {
		name     string
		err      error
		status   int
		code     string
		sentinel error
	}{
		{"invalid config", fmt.Errorf("bad: %w", realhf.ErrInvalidConfig),
			http.StatusBadRequest, CodeInvalidConfig, realhf.ErrInvalidConfig},
		{"infeasible memory", fmt.Errorf("oom: %w", realhf.ErrInfeasibleMemory),
			http.StatusUnprocessableEntity, CodeInfeasibleMemory, realhf.ErrInfeasibleMemory},
		{"solve canceled", fmt.Errorf("gone: %w", realhf.ErrSolveCanceled),
			StatusClientClosedRequest, CodeCanceled, realhf.ErrSolveCanceled},
		{"worker lost", fmt.Errorf("campaign: gpu 3: %w", realhf.ErrWorkerLost),
			http.StatusServiceUnavailable, CodeWorkerLost, realhf.ErrWorkerLost},
		{"internal", errors.New("disk on fire"),
			http.StatusInternalServerError, CodeInternal, nil},
	}
	for _, tc := range cases {
		_, status, wire := srv.flightError(ctx, tc.err)
		if status != tc.status || wire == nil || wire.Code != tc.code {
			t.Errorf("%s: mapped to HTTP %d code %q, want %d %q", tc.name, status, wire.Code, tc.status, tc.code)
			continue
		}
		if tc.sentinel == nil {
			continue
		}
		se := &ServerError{StatusCode: status, Code: wire.Code, Message: wire.Error}
		if !errors.Is(se, tc.sentinel) {
			t.Errorf("%s: client does not unwrap code %q back to the sentinel", tc.name, wire.Code)
		}
	}
}
