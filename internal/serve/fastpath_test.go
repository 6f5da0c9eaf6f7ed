package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"realhf"
)

// postPlan sends req as a raw POST /v1/plan and returns the status and the
// body bytes exactly as they came off the wire.
func postPlan(url string, req *PlanRequest) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url+PathPlan, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// referenceHitBody is the reference encoder of a cache hit's 200 body:
// PlanCached's per-request experiment, respond's fields, json.Encoder. The
// served hit must match it byte for byte, trailing newline included.
func referenceHitBody(t *testing.T, p *realhf.Planner, req *PlanRequest) []byte {
	t.Helper()
	var opts []realhf.AutoOption
	if len(req.Calibration) > 0 {
		opts = append(opts, realhf.WithCalibrationFactors(req.Calibration))
	}
	exp, ok := p.PlanCached(p.Canonicalize(req.Config), opts...)
	if !ok {
		t.Fatal("reference encoder: plan cache miss")
	}
	planBytes, err := exp.MarshalPlan()
	if err != nil {
		t.Fatal(err)
	}
	resp := &PlanResponse{
		Config:      exp.Config,
		Fingerprint: exp.Plan.Fingerprint(),
		Plan:        planBytes,
		Cached:      exp.Cached,
		Estimate: Estimate{
			TimeCostSeconds: exp.Estimate.TimeCost,
			Cost:            exp.Estimate.Cost,
			MaxMemBytes:     exp.Estimate.MaxMem,
			CallTimes:       exp.Estimate.CallTimes,
		},
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustPost is postPlan for the test goroutine: it fails the test on a
// transport error or an unexpected status.
func mustPost(t *testing.T, url string, req *PlanRequest, want int) []byte {
	t.Helper()
	status, body, err := postPlan(url, req)
	if err != nil {
		t.Fatal(err)
	}
	if status != want {
		t.Fatalf("HTTP %d (%s), want %d", status, body, want)
	}
	return body
}

// TestStoredHitBody pins the stored-body contract: for every preset, with
// and without calibration, and under plan_for_overlap, each cache hit's raw
// body equals the reference encoder's bytes, and a calibrated entry stores
// its own body. The counters move once per hit, as when every hit encoded.
func TestStoredHitBody(t *testing.T) {
	srv, hs, _ := newTestServer(t, Config{})
	ppo := realhf.PPORPCs("llama7b", "llama7b-critic")
	cases := []struct {
		name    string
		rpcs    []realhf.ModelFunctionCallDef
		call    string // a call of the preset, to calibrate
		overlap bool
	}{
		{"ppo", ppo, "actor/GENERATE", false},
		{"dpo", realhf.DPORPCs("llama7b"), "ActorTrain", false},
		{"grpo", realhf.GRPORPCs("llama7b", "llama7b-critic"), "ActorGen", false},
		{"remax", realhf.ReMaxRPCs("llama7b", "llama7b-critic"), "SampleGen", false},
		{"ppo-overlap", ppo, "actor/GENERATE", true},
	}
	const hits = 3
	for _, tc := range cases {
		cfg := testConfig(3, 200)
		cfg.RPCs, cfg.PlanForOverlap = tc.rpcs, tc.overlap
		reqs := []*PlanRequest{
			{Config: cfg},
			{Config: cfg, Calibration: map[string]float64{tc.call: 2}},
		}
		for _, req := range reqs {
			mustPost(t, hs.URL, req, http.StatusOK) // the solve
		}
		before := srv.Stats()
		planBefore := srv.planner.Stats()
		stored := make([][]byte, len(reqs))
		// Interleave the two keys, so a body stored under one and answered
		// for the other cannot go unnoticed.
		for i := 0; i < hits; i++ {
			for k, req := range reqs {
				got := mustPost(t, hs.URL, req, http.StatusOK)
				if want := referenceHitBody(t, srv.planner, req); !bytes.Equal(got, want) {
					t.Errorf("%s key %d hit %d: served body differs from the reference encoder\n got %q\nwant %q",
						tc.name, k, i, got, want)
				}
				if stored[k] == nil {
					stored[k] = got
				}
			}
		}
		if bytes.Equal(stored[0], stored[1]) {
			t.Errorf("%s: calibrated and uncalibrated entries answered the same body", tc.name)
		}
		after := srv.Stats()
		planAfter := srv.planner.Stats()
		served := int64(hits * len(reqs))
		if after.Requests-before.Requests != served || after.CacheHits-before.CacheHits != served || after.Solves != before.Solves {
			t.Errorf("%s: server stats moved %+v -> %+v, want %d requests and cache hits, no solve",
				tc.name, before, after, served)
		}
		// Each served hit and each reference lookup is one planner request
		// and one plan-cache hit.
		if d := planAfter.PlanRequests - planBefore.PlanRequests; d != 2*served {
			t.Errorf("%s: planner requests moved by %d, want %d", tc.name, d, 2*served)
		}
		if d := planAfter.PlanCacheHits - planBefore.PlanCacheHits; d != 2*served {
			t.Errorf("%s: planner cache hits moved by %d, want %d", tc.name, d, 2*served)
		}
	}
}

// TestInfeasibleHitNeverStored: a memory-infeasible cached plan answers 422
// on every repeat, and each repeat counts as a cache hit and as infeasible.
func TestInfeasibleHitNeverStored(t *testing.T) {
	srv, hs, _ := newTestServer(t, Config{})
	req := &PlanRequest{Config: realhf.ExperimentConfig{
		Nodes: 1, BatchSize: 64, PromptLen: 256, GenLen: 256,
		RPCs:        realhf.PPORPCs("llama70b", "llama70b-critic"),
		SearchSteps: 100, Seed: 3, Solver: "greedy",
	}}
	for i := 0; i < 4; i++ {
		body := mustPost(t, hs.URL, req, http.StatusUnprocessableEntity)
		var wire ErrorResponse
		if err := json.Unmarshal(body, &wire); err != nil || wire.Code != CodeInfeasibleMemory {
			t.Errorf("request %d: body %q (decode err %v), want code %s", i, body, err, CodeInfeasibleMemory)
		}
		st := srv.Stats()
		if st.Infeasible != int64(i+1) || st.CacheHits != int64(i) || st.Solves != 1 {
			t.Errorf("request %d: stats = %+v, want infeasible=%d cacheHits=%d solves=1", i, st, i+1, i)
		}
	}
}

// TestStoredHitFollowsEviction: the stored body lives on its plan-cache
// entry. With one entry, A B A re-solves A, and A's next hit is encoded
// afresh and still equals the reference.
func TestStoredHitFollowsEviction(t *testing.T) {
	srv, hs, _ := newTestServer(t, Config{
		Planner: realhf.NewPlanner(realhf.ClusterConfig{Nodes: 1, PlanCacheEntries: 1})})
	a := &PlanRequest{Config: testConfig(3, 200)}
	b := &PlanRequest{Config: testConfig(4, 200)}

	mustPost(t, hs.URL, a, http.StatusOK)
	first := mustPost(t, hs.URL, a, http.StatusOK) // stores A's body
	mustPost(t, hs.URL, b, http.StatusOK)          // evicts A
	mustPost(t, hs.URL, a, http.StatusOK)          // re-solves A
	if st := srv.Stats(); st.Solves != 3 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want A, B, A solved and one hit", st)
	}
	got := mustPost(t, hs.URL, a, http.StatusOK)
	if want := referenceHitBody(t, srv.planner, a); !bytes.Equal(got, want) {
		t.Errorf("hit after re-solve differs from the reference encoder\n got %q\nwant %q", got, want)
	}
	if !bytes.Equal(got, first) {
		t.Error("hit after re-solve differs from the hit before eviction")
	}
}

// TestConcurrentFirstHits: concurrent first hits on one entry may each
// encode, but every one of them answers the same bytes.
func TestConcurrentFirstHits(t *testing.T) {
	srv, hs, _ := newTestServer(t, Config{})
	req := &PlanRequest{Config: testConfig(3, 200)}
	mustPost(t, hs.URL, req, http.StatusOK)

	const n = 8
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			status, body, err := postPlan(hs.URL, req)
			if err != nil || status != http.StatusOK {
				t.Errorf("hit %d: HTTP %d, err %v", i, status, err)
			}
			bodies[i] = body
		}(i)
	}
	close(start)
	wg.Wait()
	want := referenceHitBody(t, srv.planner, req)
	for i, body := range bodies {
		if !bytes.Equal(body, want) {
			t.Errorf("hit %d: body differs from the reference encoder", i)
		}
	}
	if st := srv.Stats(); st.CacheHits != n || st.Solves != 1 {
		t.Errorf("stats = %+v, want %d cache hits and 1 solve", st, n)
	}
}

// TestHugeDeadlineIsCapped: a deadline_ms too large for a time.Duration is
// capped at MaxDeadline like any other, not wrapped into an expired one.
func TestHugeDeadlineIsCapped(t *testing.T) {
	srv, _, client := newTestServer(t, Config{MaxDeadline: time.Minute})
	for i, ms := range []int64{1e13, math.MaxInt64} {
		req := &PlanRequest{Config: testConfig(int64(20+i), 200), DeadlineMillis: ms}
		if _, err := client.Do(context.Background(), req); err != nil {
			t.Errorf("deadline_ms %d: %v, want 200 under the MaxDeadline cap", ms, err)
		}
	}
	if st := srv.Stats(); st.Solves != 2 || st.SolvesCanceled != 0 {
		t.Errorf("stats = %+v, want 2 solves, none canceled", st)
	}
}

// TestDrainRefusesNewFlight: a request that reaches the flight table after
// Shutdown began gets 503 draining and opens no flight, even though it
// passed the handler's draining check.
func TestDrainRefusesNewFlight(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{})
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, status, errResp := srv.plan(ctx, &PlanRequest{Config: testConfig(5, 200)})
	if status != http.StatusServiceUnavailable || errResp == nil ||
		errResp.Code != CodeDraining || errResp.RetryAfterSeconds != 1 {
		t.Errorf("plan after Shutdown: HTTP %d %+v, want 503 %s with retry after 1s", status, errResp, CodeDraining)
	}
	if st := srv.Stats(); st.Solves != 0 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want no flight opened after Shutdown", st)
	}
}
